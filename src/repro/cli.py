"""The batch-analysis command line: ``python -m repro <command>``.

The subcommands turn the reproduction into a workload-serving frontend:

* ``analyze`` — analyze named workloads and/or generated scenarios,
  optionally sharded across worker processes, streaming per-workload
  outcomes as shards finish, plus the merged
  :class:`~repro.analysis.context.AnalysisStats`.
* ``bench`` — run a whole population (every named workload + a seeded
  random scenario population) through the sharded suite runner, verify the
  sharded results are bit-identical to a single-process run, and write the
  merged per-shard stats artifact (``BENCH_analysis.json``).
  ``--edit-replay`` adds the edit-replay grid: statements visited by cold
  solves against dirty-seeded re-analyses of edited programs.  Wall time
  is measured by ``perfbench/``, not here.
* ``generate`` — emit seeded random SIL scenario sources (stdout or
  ``--out`` directory), optionally cross-checked against the reference
  engine.
* ``reanalyze`` — cross-run incremental re-analysis of an edited program:
  solve the old version, diff, invalidate, re-solve only the dirty
  frontier, and (by default) verify the warm solution bit-identical to a
  from-scratch solve of the new version.  Takes two ``.sil`` files or a
  seeded generated scenario plus a seeded edit script.
* ``cache`` — inspect (``stats``), empty (``clear``) or compact
  (``compact``: stale-generation sweep + SQLite VACUUM) a persistent
  transfer-cache store created with ``--cache-dir``.
* ``serve`` — run the long-lived analysis daemon
  (:mod:`repro.server`): one warm transfer cache + interned domain
  serving ``analyze``/``reanalyze``/``cache_stats``/``metrics`` requests
  to many clients over a unix or TCP socket, until a ``shutdown`` request.
* ``client`` — talk to a running daemon: ``health``, ``ping``,
  ``version``, ``analyze``, ``reanalyze``, ``cache-stats``, ``metrics``,
  ``shutdown``.

``analyze``, ``bench``, ``reanalyze`` and ``serve`` accept ``--cache-dir``,
the disk store shards and *runs* share: rerunning against the same
directory serves transfers from the store instead of recomputing them;
without it there is no persistent tier.  The store and the in-memory
transfer memo both evict least-recently-used entries.

Everything is built on the PR-1 architecture: scenarios travel as source
text, every analysis goes through ``AnalysisContext`` and the pass
pipeline, and sharding happens in :class:`repro.workloads.suite.
ShardedSuiteRunner` — no side-channel entry points.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import STORE_FILENAME, CacheConfig, DiskBackend
from .workloads.generators import (
    EDIT_KINDS,
    FAMILIES,
    EditScript,
    GeneratorConfig,
    Scenario,
    cross_check_scenario,
    format_edit_replay,
    generate_edited_pair,
    generate_scenario,
    generate_scenarios,
    measure_edit_replay,
)
from .workloads.suite import (
    WORKLOADS,
    ShardedSuiteReport,
    ShardedSuiteRunner,
    source,
)

#: Default artifact path of ``bench`` (written to the working directory).
DEFAULT_ARTIFACT = "BENCH_analysis.json"


def _family_arg(value: str) -> str:
    """Validate ``--family``: one family, a comma list, or ``all``."""
    if value == "all":
        return value
    for family in value.split(","):
        if family not in FAMILIES:
            raise argparse.ArgumentTypeError(
                f"unknown family {family!r}; choose from "
                f"{', '.join(FAMILIES)}, a comma-separated list, or 'all'"
            )
    return value


def _family_list(args: argparse.Namespace) -> List[str]:
    """The effective family round-robin of the population."""
    return list(FAMILIES) if args.family == "all" else args.family.split(",")


def _add_generator_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed of the population")
    parser.add_argument(
        "--family",
        type=_family_arg,
        default="all",
        help="scenario family or comma-separated list, e.g. dag,deep,mixed "
        "(default: round-robin over all families)",
    )
    parser.add_argument(
        "--procedures", type=int, default=2, help="walker procedures per scenario"
    )
    parser.add_argument(
        "--depth", type=int, default=4, help="structure depth / length constant"
    )
    parser.add_argument(
        "--aliasing", type=float, default=0.3, help="handle-overlap probability in [0,1]"
    )


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="flight recorder: capture parse/solve/cache/dispatch spans for "
        "this run and write a Chrome trace-event JSON file (load it in "
        "Perfetto or chrome://tracing)",
    )


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent transfer-cache directory shared across shards and "
        "runs (without it there is no persistent tier; rerunning against "
        "the same directory serves cached transfers instead of recomputing)",
    )


def _cache_config(args: argparse.Namespace) -> Optional[CacheConfig]:
    """The disk store ``--cache-dir`` names (None: no persistent tier)."""
    directory = getattr(args, "cache_dir", None)
    return CacheConfig(directory) if directory else None


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    """The effective (clamped) generator config the population will use."""
    return GeneratorConfig(
        procedures=args.procedures, depth=args.depth, aliasing=args.aliasing
    ).clamped()


def _population(args: argparse.Namespace, count: int) -> List[Scenario]:
    families = None if args.family == "all" else args.family.split(",")
    return generate_scenarios(
        count, base_seed=args.seed, config=_generator_config(args), families=families
    )


def _print_workload_rows(
    results: Dict[str, Dict], failures: Dict[str, str], matrices: bool = False
) -> None:
    """Per-workload ``ok``/``FAIL`` rows (used streaming and post-merge)."""
    for name, canonical in results.items():
        procedures = len(canonical["entry_matrices"])
        diagnostics = len(canonical["diagnostics"])
        print(f"  ok    {name:24s} procs={procedures:<3d} diagnostics={diagnostics}")
        if matrices:
            for procedure, matrix in canonical["entry_matrices"].items():
                for source_handle, target_handle, paths in matrix["entries"]:
                    print(f"          {procedure}: {source_handle} -> {target_handle} : {paths}")
    for name, error in failures.items():
        print(f"  FAIL  {name:24s} {error}")


def _print_report(
    report: ShardedSuiteReport, runner: ShardedSuiteRunner, rows: bool = True
) -> None:
    if rows:
        _print_workload_rows(report.results, report.failures)
        print()
    print(f"shards ({len(report.shards)}):")
    header = f"  {'shard':>5s} {'n':>4s} {'pops':>6s} {'hits':>7s} {'misses':>7s} {'seconds':>8s}"
    print(header)
    for shard in report.shards:
        stats = shard.stats
        print(
            f"  {shard.shard:5d} {len(shard.workloads):4d} {stats.worklist_pops:6d} "
            f"{stats.transfer_cache_hits:7d} {stats.transfer_cache_misses:7d} "
            f"{shard.seconds:8.3f}"
        )
    print()
    stats = report.stats
    cache = runner.cache
    tier = f"disk @ {cache.directory}" if cache is not None else "none (in-process only)"
    print(f"transfer cache: persistent={tier}")
    if stats.persistent_cache_requests:
        print(
            f"  persistent: hits={stats.persistent_cache_hits} "
            f"misses={stats.persistent_cache_misses} "
            f"hit_rate={stats.persistent_cache_hit_rate:.4f} "
            f"writes={stats.persistent_cache_writes} "
            f"evictions={stats.persistent_cache_evictions}"
        )
    print()
    print("merged AnalysisStats:")
    for key, value in report.stats.as_dict().items():
        print(f"  {key:28s} {value}")
    if report.intern_tables:
        print()
        print("interning-table growth (summed across shard workers):")
        for table in sorted(report.intern_tables):
            print(f"  {table:28s} {report.intern_tables[table]}")

    tails = report.tails()
    if tails:
        print()
        print("workload latency tails (from merged histogram buckets):")
        print(f"  {'workload':24s} {'n':>4s} {'p50':>10s} {'p90':>10s} {'p99':>10s}")
        for name, row in tails.items():
            print(
                f"  {name:24s} {row['count']:4d} {row['p50_seconds']:10.6f} "
                f"{row['p90_seconds']:10.6f} {row['p99_seconds']:10.6f}"
            )

    widened = {name: row for name, row in report.widening.items() if any(row.values())}
    print()
    print(f"widening telemetry ({len(widened)}/{len(report.widening)} workloads widened):")
    for name, row in widened.items():
        parts = [f"{counter}={value}" for counter, value in row.items() if value]
        print(f"  {name:24s} {' '.join(parts)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.list:
        print("named workloads:")
        for name in WORKLOADS:
            print(f"  {name}")
        print("scenario families:")
        for family in FAMILIES:
            print(f"  {family}")
        return 0

    names = args.names or (list(WORKLOADS) if not args.generated else [])
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        print(f"duplicate workloads: {duplicates}", file=sys.stderr)
        return 2
    items = [(name, source(name, depth=args.depth)) for name in names]
    if args.generated:
        items += [(s.name, s.source) for s in _population(args, args.generated)]

    runner = ShardedSuiteRunner(
        items, shards=args.shards, cache=_cache_config(args), census=args.census
    )

    # Streaming collection: rows appear as each shard finishes, not behind
    # the final barrier.
    def stream(output: Dict) -> None:
        _print_workload_rows(output["results"], output["failures"], matrices=args.matrices)
        sys.stdout.flush()

    print(f"analyzing {len(items)} workloads across {min(runner.shards, len(items))} "
          f"shard(s), streaming:")
    report = runner.run(progress=stream)
    print()
    print(f"analyzed {len(report.results)}/{len(items)} workloads "
          f"across {len(report.shards)} shard(s) in {report.seconds:.3f}s")
    _print_report(report, runner, rows=False)

    if args.census:
        # Rows come from each shard's own solve; a workload whose analysis
        # failed shows its failure instead.
        print("\nparallelism census (path-matrix oracle):")
        for name, _ in items:
            row = report.census.get(name) or {"error": report.failures.get(name)}
            if "error" in row:
                print(f"  {name:24s} FAIL {row['error']}")
            else:
                print(
                    f"  {name:24s} groups={row['groups']:<3d} "
                    f"call_groups={row['call_groups']:<3d} "
                    f"independent={row['independent_answers']}/{row['queries']}"
                )
    return 1 if report.failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = _generator_config(args)
    scenarios = _population(args, args.seeds)
    items = [(name, source(name, depth=min(config.depth, 4))) for name in WORKLOADS]
    items += [(s.name, s.source) for s in scenarios]
    print(
        f"population: {len(WORKLOADS)} named workloads + {len(scenarios)} generated "
        f"scenarios (seed {args.seed}, families {', '.join(_family_list(args))})"
    )

    runner = ShardedSuiteRunner(items, shards=args.shards, cache=_cache_config(args))
    cache, limits = runner.cache, runner.limits

    def stream(output: Dict) -> None:
        print(
            f"  shard {output['shard']} finished: {len(output['workloads'])} workloads "
            f"({len(output['failures'])} failed) in {output['seconds']:.3f}s",
            flush=True,
        )

    report = runner.run(progress=stream)
    print(f"\nsharded run ({min(runner.shards, len(items))} shards): {report.seconds:.3f}s")
    _print_report(report, runner)

    artifact: Dict[str, object] = {
        "population": {
            "named_workloads": len(WORKLOADS),
            "generated_scenarios": len(scenarios),
            "base_seed": args.seed,
            "families": _family_list(args),
            # The *effective* (clamped) knobs the population was generated
            # with, not the raw CLI values.
            "generator": {
                "procedures": config.procedures,
                "depth": config.depth,
                "aliasing": config.aliasing,
            },
        },
        # The persistent-cache configuration and outcome of this run
        # ("directory" is null without a store).  The persistent hit rate is
        # the cold-vs-warm signal: ~0 against a fresh --cache-dir,
        # approaching 1 when rerun against a populated one — while
        # "results_digest" (under "sharded") must not move at all.
        "cache": {
            "directory": cache.directory if cache is not None else None,
            "persistent": {
                "hits": report.stats.persistent_cache_hits,
                "misses": report.stats.persistent_cache_misses,
                "hit_rate": round(report.stats.persistent_cache_hit_rate, 4),
                "writes": report.stats.persistent_cache_writes,
                "evictions": report.stats.persistent_cache_evictions,
            },
        },
        "sharded": report.as_dict(),
        # Tail-latency accounting: per-workload p50/p90/p99 (plus the exact
        # bucket-merged "_overall" row) derived from the fixed-boundary
        # histograms every shard shipped home.
        "tails": report.tails(),
    }

    edit_replay_failed = False
    if args.edit_replay:
        print("\nedit-replay bench (dirty-seeded re-analysis vs cold solves):")
        replay = measure_edit_replay(limits=limits)
        print(format_edit_replay(replay))
        artifact["edit_replay"] = replay
        every_cell_verified = all(
            cell["verified"] for cell in replay["cells"].values()
        )
        edit_replay_failed = not (
            every_cell_verified
            and replay["scaling"]["scales_with_edit_not_program"]
        )
        if edit_replay_failed:
            print("edit-replay bench FAILED: verification or scaling did not hold",
                  file=sys.stderr)

    verified: Optional[bool] = None
    if not args.no_verify:
        single = runner.run_single_process()
        verified = report.matches(single)
        speedup = single.seconds / report.seconds if report.seconds else 0.0
        print(f"\nsingle-process reference: {single.seconds:.3f}s "
              f"(sharded speedup {speedup:.2f}x)")
        print(f"sharded results bit-identical to single process: {verified}")
        artifact["single_process"] = {"seconds": round(single.seconds, 4)}
        artifact["verified_identical"] = verified

    output = Path(args.output)
    output.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if report.failures or verified is False or edit_replay_failed:
        return 1
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    scenarios = _population(args, args.count)
    if args.verify:
        for scenario in scenarios:
            if not cross_check_scenario(scenario):
                print(f"cross-check FAILED: {scenario.name}", file=sys.stderr)
                return 1
        print(f"cross-checked {len(scenarios)} scenarios against the reference engine",
              file=sys.stderr)
    if args.out:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        for scenario in scenarios:
            (directory / f"{scenario.name}.sil").write_text(scenario.source.strip() + "\n")
        print(f"wrote {len(scenarios)} scenarios to {directory}")
    else:
        for scenario in scenarios:
            print(f"{{ scenario {scenario.name} (family {scenario.family}, "
                  f"seed {scenario.seed}) }}")
            print(scenario.source.strip())
            print()
    return 0


def _resolve_edit_pair(
    args: argparse.Namespace,
) -> Tuple[str, str, Optional[EditScript], str]:
    """``(old_source, new_source, script, name)`` from files or the generator.

    File mode: both positionals given.  Generated mode: neither given — a
    seeded scenario plus a seeded edit script (``--edits``/``--edit-kind``/
    ``--target``) produce the pair deterministically.
    """
    if bool(args.old) != bool(args.new):
        raise ValueError("give both OLD and NEW source files, or neither (generated mode)")
    if args.old:
        return (
            Path(args.old).read_text(),
            Path(args.new).read_text(),
            None,
            Path(args.new).stem,
        )
    scenario = generate_scenario(
        args.seed,
        GeneratorConfig(
            family=args.family, procedures=args.procedures, depth=args.depth
        ),
    )
    kinds = tuple(args.edit_kind) if args.edit_kind else None
    pair = generate_edited_pair(
        scenario.source,
        args.edit_seed,
        edits=args.edits,
        kinds=kinds,
        target_procedure=args.target,
    )
    return pair.old_source, pair.new_source, pair.script, scenario.name


def _print_reanalysis(payload: Dict, script: Optional[EditScript]) -> None:
    """Print a re-analysis payload as text.

    ``payload`` is :meth:`~repro.analysis.reanalysis.ReanalysisReport.
    as_dict` plus the program name: what ``repro reanalyze`` builds and
    what the daemon's ``reanalyze`` op returns (with ``base_digest``).
    """
    delta = payload["delta"]
    print(
        f"program {payload['program']}: {len(delta['changed'])} changed, "
        f"{len(delta['added'])} added, {len(delta['removed'])} removed, "
        f"{len(delta['unchanged'])} unchanged procedures"
    )
    if script is not None:
        print(f"edit script (seed {script.seed}): "
              + "; ".join(step.describe() for step in script.steps))
    print(f"dirty seed ({payload['dirty_seed_size']}): "
          + (", ".join(payload["dirty_seed"]) or "-"))
    reanalyzed = payload["procedures_reanalyzed"]
    print(
        f"re-analyzed {len(reanalyzed)}/{payload['procedures_total']} "
        f"procedures ({', '.join(reanalyzed) or '-'})"
    )
    print(
        f"summaries: reused={payload['summaries_reused']} "
        f"invalidated={payload['summaries_invalidated']}; "
        f"transfer entries invalidated={payload['transfers_invalidated']}"
    )
    fired = {name: value for name, value in payload["widening"].items() if value}
    if fired:
        print("widening: " + " ".join(f"{k}={v}" for k, v in sorted(fired.items())))
    base = f" (base {payload['base_digest'][:12]})" if "base_digest" in payload else ""
    print(f"digest {payload['digest'][:12]} in {payload['seconds']:.3f}s{base}")
    if "verified" in payload:
        print(
            f"verified against cold solve: {payload['verified']} "
            f"(cold digest {payload['cold_digest'][:12]})"
        )


def cmd_reanalyze(args: argparse.Namespace) -> int:
    from .analysis.reanalysis import IncrementalSession
    from .sil.normalize import parse_and_normalize

    try:
        old_source, new_source, script, name = _resolve_edit_pair(args)
    except (OSError, ValueError, KeyError) as error:
        print(error, file=sys.stderr)
        return 2
    try:
        old_program, old_info = parse_and_normalize(old_source)
        new_program, new_info = parse_and_normalize(new_source)
    except Exception as error:  # noqa: BLE001 - front-end rejection
        print(f"front end rejected input: {type(error).__name__}: {error}", file=sys.stderr)
        return 2

    session = IncrementalSession(cache=_cache_config(args))
    try:
        session.analyze(old_program, old_info)
        report = session.reanalyze(new_program, new_info, verify=not args.no_verify)
        session.flush()
    finally:
        session.close()

    payload = report.as_dict()
    payload["program"] = name
    if script is not None:
        payload["edit_script"] = script.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_reanalysis(payload, script)
    if args.output:
        output = Path(args.output)
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if not args.json:
            print(f"wrote {output}")
    return 1 if report.verified is False else 0


def _open_store(args: argparse.Namespace) -> Optional[DiskBackend]:
    """Open the disk store under ``--cache-dir``; None if never created."""
    store_path = Path(args.cache_dir) / STORE_FILENAME
    if not store_path.exists():
        return None
    return DiskBackend(args.cache_dir)


def cmd_cache_stats(args: argparse.Namespace) -> int:
    backend = _open_store(args)
    if backend is None:
        message = f"no transfer-cache store under {args.cache_dir} (nothing written yet)"
        if args.json:
            print(json.dumps({"path": str(Path(args.cache_dir) / STORE_FILENAME),
                              "entries": 0, "exists": False}, indent=2, sort_keys=True))
        else:
            print(message)
        return 0
    try:
        stats = backend.stats()
    finally:
        backend.close()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        for key in sorted(stats):
            print(f"  {key:12s} {stats[key]}")
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    backend = _open_store(args)
    if backend is None:
        print(f"no transfer-cache store under {args.cache_dir}; nothing to clear")
        return 0
    try:
        dropped = backend.clear()
    finally:
        backend.close()
    print(f"cleared {dropped} entries from {args.cache_dir}")
    return 0


def cmd_cache_compact(args: argparse.Namespace) -> int:
    backend = _open_store(args)
    if backend is None:
        print(f"no transfer-cache store under {args.cache_dir}; nothing to compact")
        return 0
    try:
        result = backend.compact(max_age=args.max_age)
        stats = backend.stats()
    finally:
        backend.close()
    if args.json:
        print(json.dumps({"compact": result, "stats": stats}, indent=2, sort_keys=True))
        return 0
    print(
        f"swept {result['swept']} stale entries (unused for > {args.max_age} "
        f"generations), {result['remaining']} remain"
    )
    print(
        f"store size {result['size_bytes_before']} -> {result['size_bytes_after']} bytes "
        f"(reclaimed {result['reclaimed_bytes']})"
    )
    print(
        f"lifetime: compactions={stats['compactions']} swept={stats['swept']} "
        f"invalidations={stats['invalidations']}"
    )
    return 0


# ---------------------------------------------------------------------------
# Daemon: serve / client
# ---------------------------------------------------------------------------


def _endpoint_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the shared --socket | --host/--port endpoint flags."""
    if bool(args.socket) == bool(args.host):
        return "configure exactly one endpoint: --socket PATH or --host HOST --port PORT"
    if args.host and args.port is None:
        return "--host needs --port"
    return None


def cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from .server import DEFAULT_MAX_FRAME, ServerConfig, run_server

    message = _endpoint_error(args)
    if message:
        print(message, file=sys.stderr)
        return 2
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
    )
    try:
        cache = _cache_config(args)
        config = ServerConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port if args.port is not None else 0,
            workers=args.workers,
            request_timeout=args.request_timeout if args.request_timeout > 0 else None,
            max_frame=args.max_frame if args.max_frame else DEFAULT_MAX_FRAME,
            drain_timeout=args.drain_timeout,
            cache=cache,
            slow_request_threshold=(
                args.slow_threshold if args.slow_threshold > 0 else None
            ),
            max_inflight=args.max_inflight if args.max_inflight > 0 else None,
        ).validated()
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    where = args.socket or f"{args.host}:{args.port}"
    store = f"disk @ {cache.directory}" if cache else "none"
    print(
        f"analysis server listening on {where} "
        f"(workers={config.workers}, persistent store: {store})",
        flush=True,
    )
    return run_server(config)


def _client(args: argparse.Namespace):
    from .server import AnalysisClient
    from .server.client import endpoint_kwargs

    return AnalysisClient(
        **endpoint_kwargs(args.socket, args.host, args.port),
        timeout=args.timeout,
        retries=getattr(args, "retries", 0),
        deadline=getattr(args, "deadline", None),
    )


def _print_response(response: Dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    from .server import ProtocolMismatch, ServerError
    from .server.protocol import ProtocolError

    message = _endpoint_error(args)
    if message:
        print(message, file=sys.stderr)
        return 2
    try:
        with _client(args) as client:
            return args.client_func(args, client)
    except ServerError as error:
        print(f"server error: {error}", file=sys.stderr)
        return 1
    except ProtocolMismatch as error:
        print(f"protocol mismatch: {error}", file=sys.stderr)
        return 1
    except ProtocolError as error:
        # Covers ConnectionClosed/TruncatedFrame: the connection died
        # mid-conversation (daemon restart, idle reap) and the request
        # was not retried to completion — suggest the knob that would.
        print(
            f"connection to the analysis server failed: {error} "
            "(idempotent requests can ride this out with --retries)",
            file=sys.stderr,
        )
        return 1
    except (ConnectionError, FileNotFoundError, TimeoutError, OSError) as error:
        print(f"cannot reach the analysis server: {error}", file=sys.stderr)
        return 1


def client_ping(args: argparse.Namespace, client) -> int:
    alive = client.ping()
    print("pong" if alive else "no pong")
    return 0 if alive else 1


def client_version(args: argparse.Namespace, client) -> int:
    response = client.protocol_version()
    if args.json:
        return _print_response(response, True)
    print(f"server:   {response['server']}")
    print(f"protocol: {response['protocol']}")
    print(f"ops:      {', '.join(response['ops'])}")
    return 0


def client_analyze(args: argparse.Namespace, client) -> int:
    response = client.analyze(
        workloads=args.names or None,
        depth=args.depth,
        timeout=args.timeout_request,
    )
    if args.json:
        return _print_response(response, True)
    _print_workload_rows(response["results"], response["failures"])
    stats = response["stats"]
    print()
    print(
        f"analyzed {len(response['results'])} workloads in {response['seconds']}s "
        f"(digest {response['results_digest'][:12]})"
    )
    print(
        f"  transfer cache:   hits={stats['transfer_cache_hits']} "
        f"misses={stats['transfer_cache_misses']} "
        f"hit_rate={stats['transfer_cache_hit_rate']}"
    )
    print(
        f"  persistent tier:  hits={stats['persistent_cache_hits']} "
        f"misses={stats['persistent_cache_misses']} "
        f"hit_rate={stats['persistent_cache_hit_rate']} "
        f"writes={stats['persistent_cache_writes']}"
    )
    return 1 if response["failures"] else 0


def client_reanalyze(args: argparse.Namespace, client) -> int:
    try:
        old_source, new_source, script, name = _resolve_edit_pair(args)
    except (OSError, ValueError, KeyError) as error:
        print(error, file=sys.stderr)
        return 2
    response = client.reanalyze(
        old_source,
        new_source,
        name=name,
        verify=not args.no_verify,
        timeout=args.timeout_request,
    )
    if args.json:
        _print_response(response, True)
    else:
        _print_reanalysis(response, script)
    return 1 if response.get("verified") is False else 0


def client_cache_stats(args: argparse.Namespace, client) -> int:
    response = client.cache_stats()
    if args.json:
        return _print_response(response, True)
    server = response["server"]
    print(
        f"server: up {server['uptime_seconds']}s, "
        f"{server['requests_served']} analysis requests served "
        f"({', '.join(f'{op}={n}' for op, n in sorted(server['requests_by_op'].items()))})"
    )
    print("lifetime stats:")
    for key, value in sorted(response["lifetime_stats"].items()):
        print(f"  {key:28s} {value}")
    cache = response["transfer_cache"]
    print(
        f"transfer cache: {cache['entries']}/{cache['capacity']} entries "
        f"({cache['evictions']} evictions)"
    )
    if response["persistent"]:
        print("persistent store:")
        for key, value in sorted(response["persistent"].items()):
            print(f"  {key:28s} {value}")
    print("intern tables:")
    for key, value in sorted(response["intern_tables"].items()):
        print(f"  {key:28s} {value}")
    return 0


def client_metrics(args: argparse.Namespace, client) -> int:
    response = client.metrics()
    if args.json:
        return _print_response(response, True)
    metrics = response["metrics"]
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    if counters:
        print("counters:")
        for key, entry in counters.items():
            print(f"  {key:44s} {entry['value']}")
    if gauges:
        print("gauges:")
        for key, entry in gauges.items():
            print(f"  {key:44s} {entry['value']}")
    for name, tails in sorted(response["tails"].items()):
        if not tails:
            continue
        print()
        print(f"{name} tails (from histogram buckets):")
        print(f"  {'label':24s} {'n':>6s} {'p50':>10s} {'p90':>10s} {'p99':>10s}")
        for label, row in tails.items():
            print(
                f"  {label:24s} {row['count']:6d} {row['p50_seconds']:10.6f} "
                f"{row['p90_seconds']:10.6f} {row['p99_seconds']:10.6f}"
            )
    return 0


def client_health(args: argparse.Namespace, client) -> int:
    response = client.health()
    if args.json:
        return _print_response(response, True)
    print(f"status:          {response['status']}")
    print(f"ready:           {response['ready']}")
    print(f"inflight:        {response['inflight']}"
          + (f" / max {response['max_inflight']}" if response["max_inflight"] else ""))
    print(f"queue depth:     {response['queue_depth']}")
    print(f"workers:         {response['workers']}")
    print(f"cache degraded:  {response['cache_degraded']}")
    print(f"requests shed:   {response['shed_total']}")
    print(f"requests served: {response['requests_served']}")
    return 0 if response["ready"] else 1


def client_shutdown(args: argparse.Namespace, client) -> int:
    response = client.shutdown()
    print(
        f"server stopping (served {response['requests_served']} analysis requests, "
        f"{response['inflight']} in flight)"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Batch path-matrix analysis over workload suites and "
        "generated SIL scenario populations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="analyze named workloads and/or generated scenarios"
    )
    analyze.add_argument("names", nargs="*", help="workload names (default: all)")
    analyze.add_argument("--shards", type=int, default=1, help="worker processes")
    analyze.add_argument(
        "--generated", type=int, default=0, metavar="N", help="add N generated scenarios"
    )
    analyze.add_argument("--matrices", action="store_true", help="print main entry matrices")
    analyze.add_argument(
        "--census", action="store_true", help="report the parallelism census per workload"
    )
    analyze.add_argument("--list", action="store_true", help="list workloads and families")
    _add_generator_options(analyze)
    _add_cache_options(analyze)
    _add_trace_option(analyze)
    analyze.set_defaults(func=cmd_analyze)

    bench = commands.add_parser(
        "bench",
        help="sharded benchmark over the named workloads + a generated population; "
        "writes the merged stats artifact",
    )
    bench.add_argument("--shards", type=int, default=4, help="worker processes")
    bench.add_argument(
        "--seeds", type=int, default=50, metavar="N", help="generated scenarios in the population"
    )
    bench.add_argument(
        "--output", default=DEFAULT_ARTIFACT, help="merged stats artifact path"
    )
    bench.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the single-process bit-identity verification run",
    )
    bench.add_argument(
        "--edit-replay",
        action="store_true",
        help="run the edit-replay bench (dirty-seeded re-analysis of edited "
        "programs vs cold solves over a program-size x edit-count grid) "
        "into the artifact's edit_replay section; exits nonzero unless "
        "every cell verifies bit-identical and the statements a re-analysis "
        "visits and the procedures it pops scale with edit size rather than "
        "program size",
    )
    _add_generator_options(bench)
    _add_cache_options(bench)
    _add_trace_option(bench)
    bench.set_defaults(func=cmd_bench)

    def _add_reanalyze_inputs(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("old", nargs="?", help="old program source file (.sil)")
        sub.add_argument("new", nargs="?", help="edited program source file (.sil)")
        sub.add_argument(
            "--family",
            choices=FAMILIES,
            default="deep",
            help="generated mode: scenario family (default: deep)",
        )
        sub.add_argument(
            "--seed", type=int, default=0, help="generated mode: scenario seed"
        )
        sub.add_argument(
            "--procedures", type=int, default=2, help="generated mode: walker procedures"
        )
        sub.add_argument(
            "--depth", type=int, default=6, help="generated mode: structure depth"
        )
        sub.add_argument(
            "--edits", type=int, default=1, metavar="N", help="edit-script length"
        )
        sub.add_argument(
            "--edit-seed", type=int, default=0, help="edit-script seed"
        )
        sub.add_argument(
            "--edit-kind",
            action="append",
            choices=EDIT_KINDS,
            default=None,
            metavar="KIND",
            help=f"restrict edit kinds (repeatable; from {', '.join(EDIT_KINDS)})",
        )
        sub.add_argument(
            "--target",
            default=None,
            metavar="PROC",
            help="pin every edit to one procedure (deterministic CI replays)",
        )
        sub.add_argument(
            "--no-verify",
            action="store_true",
            help="skip the from-scratch verification solve of the new version",
        )

    reanalyze = commands.add_parser(
        "reanalyze",
        help="incremental re-analysis of an edited program: diff, invalidate, "
        "re-solve the dirty frontier, verify against a cold solve",
    )
    _add_reanalyze_inputs(reanalyze)
    reanalyze.add_argument("--json", action="store_true", help="machine-readable output")
    reanalyze.add_argument(
        "--output", default=None, metavar="PATH", help="also write the JSON report here"
    )
    _add_cache_options(reanalyze)
    reanalyze.set_defaults(func=cmd_reanalyze)

    generate = commands.add_parser(
        "generate", help="emit seeded random SIL scenarios (stdout or --out directory)"
    )
    generate.add_argument("--count", type=int, default=5, help="scenarios to generate")
    generate.add_argument("--out", help="directory for .sil files (default: stdout)")
    generate.add_argument(
        "--verify",
        action="store_true",
        help="cross-check each scenario against the reference engine",
    )
    _add_generator_options(generate)
    generate.set_defaults(func=cmd_generate)

    cache = commands.add_parser(
        "cache", help="inspect or clear a persistent transfer-cache store"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="entry count, size and lifetime hit/miss/write/eviction totals"
    )
    cache_stats.add_argument("--json", action="store_true", help="machine-readable output")
    cache_stats.set_defaults(func=cmd_cache_stats)
    cache_clear = cache_commands.add_parser("clear", help="drop every stored entry")
    cache_clear.set_defaults(func=cmd_cache_clear)
    cache_compact = cache_commands.add_parser(
        "compact",
        help="sweep entries unused for --max-age generations, then VACUUM "
        "the store file",
    )
    cache_compact.add_argument(
        "--max-age",
        type=int,
        default=8,
        metavar="N",
        help="sweep entries last used more than N flush generations ago "
        "(default: 8)",
    )
    cache_compact.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_compact.set_defaults(func=cmd_cache_compact)
    for sub in (cache_stats, cache_clear, cache_compact):
        sub.add_argument("--cache-dir", required=True, metavar="DIR", help="store directory")

    endpoint = argparse.ArgumentParser(add_help=False)
    endpoint.add_argument(
        "--socket", metavar="PATH", default=None, help="unix domain socket path"
    )
    endpoint.add_argument("--host", default=None, help="TCP bind/connect host")
    endpoint.add_argument(
        "--port", type=int, default=None, help="TCP port (0: ephemeral when serving)"
    )

    serve = commands.add_parser(
        "serve",
        parents=[endpoint],
        help="run the long-lived analysis daemon over warm interning/cache state",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="bounded analysis worker pool size (default: 1)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-request budget for analyze/reanalyze; 0 disables (default: 300)",
    )
    serve.add_argument(
        "--max-frame",
        type=int,
        default=None,
        metavar="BYTES",
        help="largest accepted/emitted frame payload (default: 8 MiB)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown wait for in-flight requests (default: 30)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="stdlib logging threshold for the repro.server.* loggers "
        "(default: info)",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="log a warning (and count server.slow_requests_total) for any "
        "request slower than this; 0 disables (default: 5)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission cap: heavy requests beyond N simultaneously in "
        "flight are shed with a retryable 'overloaded' error; 0 disables "
        "(default: 64)",
    )
    _add_cache_options(serve)
    _add_trace_option(serve)
    serve.set_defaults(func=cmd_serve)

    client = commands.add_parser(
        "client", help="talk to a running analysis daemon (see: serve)"
    )
    client_commands = client.add_subparsers(dest="client_command", required=True)

    def client_parser(name: str, func, help: str) -> argparse.ArgumentParser:
        sub = client_commands.add_parser(name, parents=[endpoint], help=help)
        sub.add_argument(
            "--timeout",
            type=float,
            default=120.0,
            metavar="SECONDS",
            help="client-side socket timeout (default: 120)",
        )
        sub.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="re-attempts of idempotent requests after a transport "
            "failure or an 'overloaded' rejection, with exponential "
            "backoff + jitter (default: 0, fail fast)",
        )
        sub.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock bound on one request including every retry "
            "and backoff sleep (default: none)",
        )
        sub.set_defaults(func=cmd_client, client_func=func)
        return sub

    health_cmd = client_parser(
        "health", client_health, "liveness/load snapshot: status, in-flight, shed count"
    )

    client_parser("ping", client_ping, "liveness round trip")
    version = client_parser(
        "version", client_version, "protocol-version handshake + op vocabulary"
    )
    c_analyze = client_parser(
        "analyze", client_analyze, "analyze named workloads on the warm server"
    )
    c_analyze.add_argument("names", nargs="*", help="workload names (default: all)")
    c_analyze.add_argument("--depth", type=int, default=4, help="workload depth constant")
    c_analyze.add_argument(
        "--timeout-request",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget (may lower the server's, never raise it)",
    )
    c_reanalyze = client_parser(
        "reanalyze",
        client_reanalyze,
        "incremental re-analysis of an edited program on the warm server",
    )
    _add_reanalyze_inputs(c_reanalyze)
    c_reanalyze.add_argument(
        "--timeout-request",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget (may lower the server's, never raise it)",
    )
    stats_cmd = client_parser(
        "cache-stats",
        client_cache_stats,
        "server-lifetime stats, cache occupancy and intern-table sizes",
    )
    metrics_cmd = client_parser(
        "metrics",
        client_metrics,
        "live server metrics: per-op request counters, latency tails, gauges",
    )
    client_parser("shutdown", client_shutdown, "graceful shutdown: drain, flush, exit")
    for sub in (version, c_analyze, c_reanalyze, stats_cmd, metrics_cmd, health_cmd):
        sub.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    # Flight recorder: install the process-global tracer around the whole
    # command so every instrumented layer (parse, passes, solver visits,
    # cache flushes, codec, shard dispatch) records into one timeline, then
    # write the Chrome trace-event document whatever the exit path.
    from .obs.trace import install_tracer, uninstall_tracer

    tracer = install_tracer()
    try:
        return args.func(args)
    finally:
        uninstall_tracer()
        spans = tracer.write_chrome(trace_path)
        print(
            f"trace: {spans} span events -> {trace_path} "
            "(load in Perfetto or chrome://tracing)",
            file=sys.stderr,
        )
