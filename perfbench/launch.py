"""The benchmark's launcher: the process the system under test runs in.

Three uses, all started as ``python perfbench/launch.py <use> ...`` with
``src`` on ``PYTHONPATH``:

``batch CORPUS OUT --seconds S --min-ops N --phase setup|timed|traced [--trace-dir D]``
    batch-cold's runner process.  Measures its own set-up (importing
    ``repro`` and building a two-shard ``ShardedSuiteRunner`` over the
    corpus), then calls ``run()`` pass after pass, each forking fresh
    shard workers, until the passes add up to ``S`` seconds and at least
    ``N`` programs.  ``traced`` spends half of ``S`` untraced, half with a
    ``repro.obs`` tracer and the benchmark's spans on, then times one pool
    pass against one ``run_single_process`` pass.  Writes OUT.

``serve TRACE_DIR ARGS...`` / ``cli TRACE_DIR ARGS...``
    ``python -m repro serve|analyze ARGS`` with a tracer and the
    benchmark's spans installed; the trace is written to TRACE_DIR when
    the process exits.
"""

import atexit
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import GIVE_UP  # noqa: E402
from perfbench.corpus import digest  # noqa: E402
from perfbench.spans import Links, dump  # noqa: E402

SHARDS = 2


def _pass_summary(report, seconds: float) -> dict:
    latencies = {}
    for histogram in report.metrics.histograms("suite.workload_seconds"):
        name = dict(histogram.labels).get("workload")
        if name is not None and histogram.count:
            latencies[name] = histogram.sum_ns / 1e9 / histogram.count
    shard_seconds = [shard.seconds for shard in report.shards]
    return {
        "seconds": seconds,
        "digests": {name: digest(result) for name, result in report.results.items()},
        "failures": dict(report.failures),
        "latencies": latencies,
        "shard_seconds": shard_seconds,
        "retries": sum(attempts - 1 for attempts in report.attempts.values()),
    }


def _passes(runner, budget: float, min_ops: int = 0, links: Optional[Links] = None):
    """Run passes until they add up to ``budget`` seconds and ``min_ops``
    programs; yields each pass's report and seconds.  With ``links``, each
    pass is the op its runner span runs under."""
    busy = 0.0
    ops = 0
    count = 0
    while (busy < budget or ops < min_ops) and busy < GIVE_UP * budget:
        if links is not None:
            links.default = (f"pass-{count}", None)
        started = time.perf_counter()
        report = runner.run()
        seconds = time.perf_counter() - started
        busy += seconds
        ops += len(report.results) + len(report.failures)
        count += 1
        yield report, seconds


def batch(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="launch.py batch")
    parser.add_argument("corpus")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--phase", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro  # noqa: F401 - set-up is importing the package
    from repro.workloads import ShardedSuiteRunner

    items = [tuple(item) for item in json.loads(Path(args.corpus).read_text())]
    runner = ShardedSuiteRunner(items, shards=SHARDS)
    result = {"setup_s": time.perf_counter() - started}
    if args.phase == "timed":
        result["passes"] = [_pass_summary(*run)
                            for run in _passes(runner, args.seconds, args.min_ops)]
    elif args.phase == "traced":
        from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

        from perfbench.probes import install

        result["passes"] = [_pass_summary(*run)
                            for run in _passes(runner, args.seconds / 2, args.min_ops)]
        links = Links()
        tracer = install_tracer(Tracer())
        undo = install(links, op_per_program=True)
        started = time.perf_counter()
        held = list(_passes(runner, args.seconds / 2, links=links))
        result["traced_wall"] = time.perf_counter() - started
        # Digested only now, so that no bookkeeping sits between traced ops.
        result["traced_passes"] = [_pass_summary(*run) for run in held]
        undo()
        uninstall_tracer()
        dump(tracer, Path(args.trace_dir))
        # Last, since the inline pass analyzes in this process and would
        # hand warm intern tables to any shard forked after it.
        started = time.perf_counter()
        runner.run()
        pool = time.perf_counter() - started
        started = time.perf_counter()
        runner.run_single_process()
        result["speedup_vs_inline"] = (time.perf_counter() - started) / pool
    result["workers_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(args.out).write_text(json.dumps(result))
    return 0


def traced_repro(command: str, argv) -> int:
    """``python -m repro <command> ARGS`` with a tracer and the benchmark's spans."""
    trace_dir, args = Path(argv[0]), argv[1:]
    context = (os.environ.get("PERFBENCH_OP"), os.environ.get("PERFBENCH_PARENT"))
    started = time.perf_counter_ns()
    import repro.cli
    from repro.obs.trace import Tracer, install_tracer

    loaded = time.perf_counter_ns()
    from perfbench.probes import install

    tracer = install_tracer(Tracer())
    atexit.register(dump, tracer, trace_dir)
    if command == "serve":
        # Daemon spans hang off the client span each request names, not
        # off the process, whose lifetime is mostly idle.
        install(Links())
        return repro.cli.main(["serve", *args])
    links = Links(default=context)
    install(links)
    links.record("cli.load", started, loaded)
    with links.span("cli.main"):
        return repro.cli.main([command, *args])


def main() -> int:
    use, argv = sys.argv[1], sys.argv[2:]
    if use == "batch":
        return batch(argv)
    if use == "serve":
        return traced_repro("serve", argv)
    if use == "cli":
        return traced_repro("analyze", argv)
    print(f"unknown use {use!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
