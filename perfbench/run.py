"""The benchmark of record for the three ways users reach the analysis.

    python3 perfbench/run.py --workload batch-cold|edit-serve|oneshot-cli \\
        --seed N --seconds S --trace 0|1

Run from the checkout root.  The seed decides every input.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` measures
half the time untraced and half with the benchmark's spans on, and reports
the per-layer metrics.  Every op's output is checked against the reference
engine ``analyze_program_reference``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = {
    "batch-cold": "perfbench.batch_cold",
    "edit-serve": "perfbench.edit_serve",
    "oneshot-cli": "perfbench.oneshot_cli",
}
#: End-to-end metric -> unit, as ``BENCHMARK.json`` declares them.
END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    from perfbench.layers import RESIDUAL_BOUND, complete

    report = importlib.import_module(WORKLOADS[args.workload]).run(
        args.seed, args.seconds, bool(args.trace))
    tally = report["tally"]
    latency = report["latency"]
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {report['inputs_sha256']}")
    print(f"ops attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_ratio {tally.failed_ratio:.4f}  {tally.reasons or ''}")
    print(f"latency over {latency['samples']} ops: p50 {latency['p50_ms']:.2f} ms, "
          f"tail p{latency['tail_percentile']:g} {latency['tail_ms']:.2f} ms")
    correct = tally.failed == 0
    if args.trace:
        metrics = complete(report["per_layer"])
        residual = metrics["trace.residual_ratio"]["value"]
        # The residual is traced wall time outside every op's spans; past
        # the stated bound the layer table does not account for the run.
        within = abs(residual) <= RESIDUAL_BOUND
        correct = correct and within
        print(f"layer table residual {residual:+.4f} of wall time "
              f"({'within' if within else 'OUTSIDE, so the run fails'} "
              f"the stated {RESIDUAL_BOUND:g}); tracing overhead "
              f"{metrics['trace.overhead_ratio']['value']:+.4f}")
    else:
        values = dict(report["end_to_end"], success_ratio=1.0 - tally.failed_ratio)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
