"""Span wrappers around the public calls of each ``repro`` layer.

:func:`install` replaces each call with a :meth:`perfbench.spans.Links.wrap`
of itself, in every module that bound it, and returns the function that puts
the originals back.  The wrappers record into the installed
``repro.obs.trace`` tracer, and only while one is installed.  Nothing under
``src/`` knows about these spans: they are the benchmark's own, installed
in the launcher that runs the shards, the daemon or the CLI, and inherited
by forked shard workers.

Span names are layer names; :data:`SPAN_METRICS` maps each to the
per-layer metric its self time is reported under.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from .spans import Links

#: Span name -> per-layer metric reporting its self time (ms per op).
SPAN_METRICS = {
    "sil.parse": "sil.parse_ms",
    "sil.diff": "sil.diff_ms",
    "analysis.solve": "analysis.solve_ms",
    "analysis.canonical": "analysis.canonical_ms",
    "reanalysis.reanalyze": "reanalysis.reanalyze_ms",
    "cache.decode": "cache.decode_ms",
    "cache.encode": "cache.encode_ms",
    "cache.store_read": "cache.store_read_ms",
    "cache.flush": "cache.flush_ms",
    "parallel.census": "parallel.census_ms",
    "suite.runner": "suite.runner_ms",
    "suite.shard": "suite.shard_ms",
    "server.roundtrip": "server.roundtrip_ms",
    "server.service": "server.service_ms",
    "cli.process": "cli.process_ms",
    "cli.load": "cli.load_ms",
    "cli.main": "cli.main_ms",
}

#: Request names of the form ``perfbench:<op>:<client span id>`` carry the
#: client's span into the daemon.
REQUEST_NAME = re.compile(r"^perfbench:([^:]+):(.+)$")
_PROGRAM_HEADER = re.compile(r"\s*program\s+(\w+)")

#: Analysis counters each solve span records (deltas over the call).
SOLVE_COUNTERS = (
    "worklist_pops",
    "statements_visited",
    "matrices_allocated",
    "segment_collapses",
    "exact_widenings",
    "path_set_collapses",
    "iteration_guard_trips",
    "transfer_cache_hits",
    "transfer_cache_misses",
    "transfer_cache_evictions",
    "persistent_cache_hits",
    "persistent_cache_misses",
)


def _delta(before: Dict[str, int], after: Dict[str, int], names) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in names}


def install(links: Links, op_per_program: bool = False) -> Callable[[], None]:
    """Wrap the layers' public calls in spans; returns the undo function.

    ``op_per_program`` gives each program parsed its own op id, taken from
    its ``program <name>`` header (batch-cold, where one op is one program
    inside a shard that analyzes many).
    """
    from repro.analysis import engine, reanalysis, transfer
    from repro.cache import codec, disk, memory
    from repro.parallel import oracle
    from repro.server import service
    from repro.sil import ast, normalize
    from repro.workloads import generators, suite

    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, links.wrap(original, name, **hooks))
        patches.append((owner, attr, original))

    def parse_context(args, kwargs) -> Optional[Tuple[Optional[str], Optional[str]]]:
        if op_per_program:
            header = _PROGRAM_HEADER.match(args[0] if args else kwargs["source"])
            links.op = header.group(1) if header else None
        return None

    def statements(args, kwargs, result, state) -> Dict[str, int]:
        return {"statements": ast.count_statements(result[0])}

    for module in (normalize, suite, service, generators):
        patch(module, "parse_and_normalize", "sil.parse", context=parse_context,
              after=statements)
    for function in ("diff_programs", "dirty_seed", "statement_rebase_map"):
        patch(reanalysis, function, "sil.diff")

    def batch_before(args, kwargs) -> Dict[str, int]:
        return args[0].stats.counters()

    def batch_after(args, kwargs, result, before) -> Dict[str, int]:
        return _delta(before, args[0].stats.counters(), SOLVE_COUNTERS)

    patch(engine.BatchAnalyzer, "analyze", "analysis.solve", before=batch_before,
          after=batch_after)
    # The census oracle solves through a fresh context: its stats are the delta.
    patch(oracle, "analyze_program", "analysis.solve",
          after=lambda args, kwargs, result, state: _delta(
              {}, result.stats.counters(), SOLVE_COUNTERS))
    patch(engine.AnalysisResult, "canonical", "analysis.canonical")

    def session_before(args, kwargs) -> Dict[str, int]:
        return args[0].stats.counters()

    def session_after(args, kwargs, result, before) -> Dict[str, int]:
        return _delta(before, args[0].stats.counters(),
                      ("summaries_reused", "worklist_pops", "dirty_seed_size"))

    patch(reanalysis.IncrementalSession, "reanalyze", "reanalysis.reanalyze",
          before=session_before, after=session_after)

    patch(codec, "decode_entry", "cache.decode")
    patch(codec, "encode_entry", "cache.encode")
    patch(disk.DiskBackend, "get", "cache.store_read")
    patch(memory.MemoryBackend, "get", "cache.store_read")
    patch(transfer.TransferCache, "flush", "cache.flush",
          after=lambda args, kwargs, result, state: {"persistent_cache_writes": result[0]})

    census_keys = ("queries", "independent_answers", "groups")
    patch(oracle, "parallelism_census", "parallel.census",
          after=lambda args, kwargs, result, state: {k: result[k] for k in census_keys})

    patch(suite.ShardedSuiteRunner, "run", "suite.runner")

    # A shard span keeps a worker's time between its programs in its own
    # row; without it, that time would go to the other shard's open span.
    def shard_done(args, kwargs, result, state) -> Dict[str, int]:
        links.op = None
        return {}

    patch(suite, "analyze_pairs", "suite.shard", after=shard_done)

    def request_context(args, kwargs):
        match = REQUEST_NAME.match(str(args[1].get("name", "")))
        return (match.group(1), match.group(2)) if match else None

    patch(service.AnalysisService, "reanalyze", "server.service", context=request_context)

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo
