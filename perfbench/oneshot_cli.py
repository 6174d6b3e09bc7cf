"""oneshot-cli: ``python -m repro analyze --census --cache-dir <store> ...`` processes.

One op is one process, run one at a time; its latency is the process's
wall time, interpreter start included.  ``analyze`` reads no files, so each
call names a seeded slice of the corpus on its command line.  Set-up is
the cold pass that fills the disk store with most of the corpus; timed
calls then mostly read it, and the rest analyze unseen programs and write
their transfers at flush.
"""

from __future__ import annotations

import re
import shutil
import time
from statistics import median
from typing import Dict, List

from . import corpus, layers, spans
from .common import LAUNCHER, Tally, child_env, cli_import_ms, keep_going, latency_summary
from .common import min_samples, python, relative, run_child, warm_imports, workdir

#: Declared tail: p60 needs 25 calls; a 20 s run yields 25 to 57.
TAIL_PERCENTILE = 60
SETUP_REPEATS = 3
CENSUS_ROW = re.compile(
    r"^\s+(\S+)\s+groups=(\d+)\s+call_groups=(\d+)\s+independent=(\d+)/(\d+)\s*$")
CENSUS_FIELDS = ("groups", "call_groups", "independent_answers", "queries")


def census_rows(stdout: str) -> Dict[str, tuple]:
    """The census table a call printed: ``{program: (groups, call_groups,
    independent_answers, queries)}``."""
    rows = {}
    lines = stdout.splitlines()
    for position, line in enumerate(lines):
        if line.startswith("parallelism census"):
            for row in lines[position + 1:]:
                match = CENSUS_ROW.match(row)
                if match:
                    rows[match.group(1)] = tuple(int(value) for value in match.groups()[1:])
    return rows


def call_programs(call: List[str]) -> List[str]:
    """The programs a call's command line selects, in corpus naming."""
    named = []
    for token in call:
        if token.startswith("--"):
            break
        named.append(token)
    families = call[call.index("--family") + 1].split(",")
    seed = int(call[call.index("--seed") + 1])
    return named + [f"{family}_s{seed + k}" for k, family in enumerate(families)]


def references(plan: Dict, names) -> Dict[str, tuple]:
    """Census rows from a ``PathMatrixOracle`` prepared with the reference result."""
    from repro.analysis.engine import analyze_program_reference
    from repro.parallel.oracle import PathMatrixOracle, parallelism_census
    from repro.sil.normalize import parse_and_normalize

    expected = {}
    for name in sorted(set(names)):
        program, info = parse_and_normalize(corpus.cli_program_source(plan["programs"][name]))
        reference = analyze_program_reference(program, info)
        oracle = PathMatrixOracle(analysis=reference)
        row = parallelism_census(program, info, oracle=oracle)
        if oracle.analysis is not reference:
            raise RuntimeError("the census re-analyzed instead of using the reference")
        expected[name] = tuple(row[field] for field in CENSUS_FIELDS)
    return expected


def timed_calls(work, store, plan: Dict, seconds: float, needed: int = 0,
                traced: bool = False) -> Dict:
    """Run the plan's calls one after another for ``seconds`` and at least
    ``needed`` calls.  ``traced`` calls run under the launcher, each inside
    a ``cli.process`` span."""
    calls = []
    links = spans.Links()
    started = time.perf_counter()
    for index, call in enumerate(plan["calls"]):
        if not keep_going(started, seconds, len(calls), needed):
            break
        argv = ["analyze", "--cache-dir", relative(store), *call]
        env = child_env()
        if not traced:
            child = run_child(python("-m", "repro", *argv), work, env)
        else:
            with links.span("cli.process", (f"call-{index}", None)) as args:
                env.update(PERFBENCH_OP=f"call-{index}", PERFBENCH_PARENT=args[spans.ID])
                child = run_child(python(str(LAUNCHER), "cli", relative(work / "spans"),
                                         *argv[1:]), work, env)
        calls.append({"call": call, "code": child.code, "seconds": child.seconds,
                      "rows": census_rows(child.stdout), "maxrss_kb": child.maxrss_kb})
    return {"calls": calls, "wall": time.perf_counter() - started}


def check(calls: List[Dict], expected: Dict[str, tuple], tally: Tally) -> List[float]:
    """Count every call; returns the wall times of those that matched."""
    good = []
    for call in calls:
        wanted = {name: expected[name] for name in call_programs(call["call"])}
        if call["code"] != 0:
            tally.record(False, f"exit code {call['code']}")
        elif call["rows"] != wanted:
            tally.record(False, "census differs from the reference engine")
        else:
            tally.record(True)
            good.append(call["seconds"])
    return good


def run(seed: int, seconds: float, trace: bool) -> Dict:
    plan = corpus.cli_plan(seed)
    budget = seconds / 2 if trace else seconds
    with workdir() as work:
        warm_imports()
        setups = []
        for index in range(SETUP_REPEATS):
            store = work / f"store{index}"
            child = run_child(python("-m", "repro", "analyze", "--cache-dir",
                                     relative(store), *plan["setup"]), work)
            if child.code != 0:
                raise RuntimeError(f"set-up pass failed ({child.code}): {child.stderr[-2000:]}")
            setups.append(child.seconds)
        if trace:
            # The traced phase starts from the same store the untraced one did.
            shutil.copytree(store, work / "store-traced")
        timed = timed_calls(work, store, plan, budget, min_samples(TAIL_PERCENTILE))
        if trace:
            from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

            (work / "spans").mkdir()
            tracer = install_tracer(Tracer())
            try:
                traced = timed_calls(work, work / "store-traced", plan, budget, traced=True)
            finally:
                uninstall_tracer()
            spans_seen = spans.spans_of(spans.load_events(work / "spans") + tracer.drain())
            import_ms = cli_import_ms(work)
    runs = [timed] + ([traced] if trace else [])
    names = [name for result in runs for call in result["calls"]
             for name in call_programs(call["call"])]
    expected = references(plan, names)
    tally = Tally()
    for result in runs:
        check(result["calls"], expected, tally)
    calls = timed["calls"]
    good = check(calls, expected, Tally())
    summary = latency_summary([call["seconds"] for call in calls], TAIL_PERCENTILE)
    report = {
        "inputs_sha256": corpus.digest(plan),
        "tally": tally,
        "latency": summary,
        "end_to_end": {
            "throughput_ops_s": len(good) / timed["wall"],
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "setup_s": median(setups),
            "peak_rss_mb": max(call["maxrss_kb"] for call in calls) / 1024.0,
        },
    }
    if trace:
        traced_calls = traced["calls"]
        per_layer = layers.from_spans(spans_seen, len(traced_calls), traced["wall"])
        per_layer["trace.overhead_ratio"] = layers.overhead(
            [call["seconds"] for call in calls], [call["seconds"] for call in traced_calls])
        per_layer["cli.import_ms"] = import_ms
        report["per_layer"] = per_layer
    return report
