"""batch-cold: programs analyzed by a two-shard ``ShardedSuiteRunner``, cold.

One op is one program.  A fresh launcher process imports ``repro`` and
builds the runner (set-up), then calls ``run()`` over the corpus pass after
pass; every pass forks fresh shard workers, so every analysis is cold.  No
persistent store is configured.  Op latency is the program's analysis time
inside its shard (parse, solve, canonical encoding), from the runner's
per-workload histograms.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Dict, List

from . import corpus, layers
from .common import LAUNCHER, Tally, child_env, latency_summary, min_samples, python
from .common import relative, run_child, warm_imports, workdir
from .spans import load_events, spans_of

#: Declared tail: p95 needs 200 programs; a 20 s run yields 440 to 890.
TAIL_PERCENTILE = 95
SETUP_REPEATS = 5


def references(items) -> Dict[str, str]:
    """Digest of each program's canonical result from the reference engine."""
    from repro.analysis.engine import analyze_program_reference
    from repro.sil.normalize import parse_and_normalize

    expected = {}
    for name, text in items:
        program, info = parse_and_normalize(text)
        expected[name] = corpus.digest(analyze_program_reference(program, info).canonical())
    return expected


def check(passes: List[Dict], expected: Dict[str, str], tally: Tally) -> int:
    """Count every program of every pass; returns the programs that matched."""
    matched = 0
    for summary in passes:
        for name, want in expected.items():
            got = summary["digests"].get(name)
            if got is None:
                tally.record(False, summary["failures"].get(name, "missing result"))
            elif got != want:
                tally.record(False, "differs from the reference engine")
            else:
                tally.record(True)
                matched += 1
    return matched


def _launch(work, corpus_path, seconds: float, phase: str, index: int,
            trace_dir=None) -> Dict:
    out = work / f"{phase}-{index}.json"
    argv = python(str(LAUNCHER), "batch", relative(corpus_path), relative(out),
                  "--seconds", str(seconds), "--phase", phase,
                  "--min-ops", str(min_samples(TAIL_PERCENTILE)))
    if trace_dir is not None:
        argv += ["--trace-dir", relative(trace_dir)]
    child = run_child(argv, work, child_env(), timeout=170)
    if child.code != 0:
        raise RuntimeError(f"batch launcher failed ({child.code}): {child.stderr[-2000:]}")
    return json.loads(out.read_text())


def _suite_layers(passes: List[Dict]) -> Dict[str, float]:
    programs = sum(len(summary["digests"]) + len(summary["failures"]) for summary in passes)
    per_op = 1000.0 / programs
    imbalance = [max(s["shard_seconds"]) / (sum(s["shard_seconds"]) / len(s["shard_seconds"]))
                 for s in passes]
    return {
        "suite.run_ms": sum(s["seconds"] for s in passes) * per_op,
        "suite.shard_busy_ms": sum(sum(s["shard_seconds"]) for s in passes) * per_op,
        "suite.dispatch_ms":
            sum(s["seconds"] - max(s["shard_seconds"]) for s in passes) * per_op,
        "suite.imbalance": sum(imbalance) / len(imbalance),
        "suite.retries": sum(s["retries"] for s in passes),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict:
    items = corpus.batch_items(seed)
    with workdir() as work:
        corpus_path = work / "corpus.json"
        corpus_path.write_text(json.dumps(items))
        warm_imports()
        setups = [_launch(work, corpus_path, seconds, "setup", index)["setup_s"]
                  for index in range(SETUP_REPEATS - 1)]
        if trace:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            result = _launch(work, corpus_path, seconds, "traced", 0, trace_dir)
            spans = spans_of(load_events(trace_dir))
        else:
            result = _launch(work, corpus_path, seconds, "timed", 0)
    setups.append(result["setup_s"])
    expected = references(items)

    tally = Tally()
    passes = result["passes"] + result.get("traced_passes", [])
    check(passes, expected, tally)
    untraced = result["passes"]
    ok = check(untraced, expected, Tally())
    latencies = [value for summary in untraced for value in summary["latencies"].values()]
    summary = latency_summary(latencies, TAIL_PERCENTILE)
    report = {
        "inputs_sha256": corpus.digest(items),
        "tally": tally,
        "latency": summary,
        "end_to_end": {
            "throughput_ops_s": ok / sum(s["seconds"] for s in untraced),
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "setup_s": median(setups),
            "peak_rss_mb": result["workers_maxrss_kb"] / 1024.0,
        },
    }
    if trace:
        traced = result["traced_passes"]
        ops = sum(len(s["digests"]) + len(s["failures"]) for s in traced)
        per_layer = layers.from_spans(spans, ops, result["traced_wall"])
        per_layer["trace.overhead_ratio"] = layers.overhead(
            [s["seconds"] for s in untraced], [s["seconds"] for s in traced])
        per_layer.update(_suite_layers(untraced))
        per_layer["suite.speedup_vs_inline"] = result["speedup_vs_inline"]
        report["per_layer"] = per_layer
    return report
