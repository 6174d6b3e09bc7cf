"""Per-layer metrics: their names and units, and the reduction that fills them.

Every ``_ms`` metric is milliseconds per op of the traced phase.  The rows
named in :data:`perfbench.probes.SPAN_METRICS` come from the layer table
(self time, see :func:`perfbench.spans.layer_table`); with
``trace.residual_ratio`` they add up to ``trace.wall_ms``.  Counts are per
op too, ratios are over the whole traced phase.  A layer a workload does
not reach reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .probes import SPAN_METRICS
from .spans import Span, layer_table, sum_counts, total_time

#: Per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
PER_LAYER = {
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    "trace.wall_ms": "ms",
    "trace.residual_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "sil.statements": "count",
    "analysis.worklist_pops": "count",
    "analysis.statements_visited": "count",
    "analysis.matrices_allocated": "count",
    "analysis.widenings": "count",
    "analysis.transfer_hits": "count",
    "analysis.transfer_misses": "count",
    "analysis.transfer_hit_ratio": "ratio",
    "analysis.transfer_evictions": "count",
    "reanalysis.reuse_ratio": "ratio",
    "reanalysis.dirty_seed": "count",
    "cache.persistent_hits": "count",
    "cache.persistent_misses": "count",
    "cache.persistent_writes": "count",
    "cache.persistent_hit_ratio": "ratio",
    "parallel.queries": "count",
    "parallel.independent_answers": "count",
    "parallel.groups": "count",
    "suite.run_ms": "ms",
    "suite.shard_busy_ms": "ms",
    "suite.dispatch_ms": "ms",
    "suite.imbalance": "ratio",
    "suite.retries": "count",
    "suite.speedup_vs_inline": "ratio",
    "server.handler_ms": "ms",
    "server.transport_ms": "ms",
    "server.response_kb": "kb",
    "server.errors": "count",
    "cli.import_ms": "ms",
    "cli.work_ms": "ms",
}

#: The largest share of the traced wall time the layer table may leave
#: out; a traced run past it is not correct.  The root spans (the client
#: round trip, the CLI process, the runner's ``run``) count any unwrapped
#: work inside an op as their own self time, so the residual is the time
#: spent between ops, not unexplained time inside one.
RESIDUAL_BOUND = 0.05

_WIDENINGS = ("segment_collapses", "exact_widenings", "path_set_collapses",
              "iteration_guard_trips")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def from_spans(spans: Sequence[Span], ops: int, wall: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of a traced phase of ``ops`` ops.

    ``wall`` is the phase's wall time in seconds; the layer table covers
    the ops' spans, and whatever ran between ops is the residual.
    """
    table = layer_table(spans)
    per_op = 1000.0 / ops
    metrics = {metric: table.get(name, 0.0) * per_op for name, metric in SPAN_METRICS.items()}
    metrics["trace.wall_ms"] = wall * per_op
    metrics["trace.residual_ratio"] = _ratio(wall - sum(table.values()), wall)

    parsed = sum_counts(spans, "sil.parse")
    solved = sum_counts(spans, "analysis.solve")
    hits, misses = solved.get("transfer_cache_hits", 0), solved.get("transfer_cache_misses", 0)
    stored = solved.get("persistent_cache_hits", 0)
    missed = solved.get("persistent_cache_misses", 0)
    reanalyzed = sum_counts(spans, "reanalysis.reanalyze")
    reanalyses = sum(1 for span in spans if span[3] == "reanalysis.reanalyze")
    census = sum_counts(spans, "parallel.census")
    metrics.update({
        "sil.statements": parsed.get("statements", 0) / ops,
        "analysis.worklist_pops": solved.get("worklist_pops", 0) / ops,
        "analysis.statements_visited": solved.get("statements_visited", 0) / ops,
        "analysis.matrices_allocated": solved.get("matrices_allocated", 0) / ops,
        "analysis.widenings": sum(solved.get(name, 0) for name in _WIDENINGS) / ops,
        "analysis.transfer_hits": hits / ops,
        "analysis.transfer_misses": misses / ops,
        "analysis.transfer_hit_ratio": _ratio(hits, hits + misses),
        "analysis.transfer_evictions": solved.get("transfer_cache_evictions", 0) / ops,
        "reanalysis.reuse_ratio": _ratio(reanalyzed.get("summaries_reused", 0),
                                         reanalyzed.get("worklist_pops", 0)),
        "reanalysis.dirty_seed": _ratio(reanalyzed.get("dirty_seed_size", 0), reanalyses),
        "cache.persistent_hits": stored / ops,
        "cache.persistent_misses": missed / ops,
        "cache.persistent_writes":
            sum_counts(spans, "cache.flush").get("persistent_cache_writes", 0) / ops,
        "cache.persistent_hit_ratio": _ratio(stored, stored + missed),
        "parallel.queries": census.get("queries", 0) / ops,
        "parallel.independent_answers": census.get("independent_answers", 0) / ops,
        "parallel.groups": census.get("groups", 0) / ops,
        "cli.work_ms": (total_time(spans, "cli.main") - table.get("cli.main", 0.0)) * per_op,
    })
    return metrics


def overhead(untraced: List[float], traced: List[float]) -> float:
    """Traced over untraced mean op time, minus one, over the ops both ran."""
    common = min(len(untraced), len(traced))
    if not common:
        return 0.0
    return sum(traced[:common]) / sum(untraced[:common]) - 1.0


def complete(metrics: Dict[str, float]) -> Dict:
    """Every per-layer metric with its unit; those the workload never reached are 0."""
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()}
