"""Observability: span tracing and shard-mergeable metrics.

Two small, dependency-free subsystems the rest of the codebase threads
through every layer:

* :mod:`.trace` — context-manager **spans** over monotonic clocks.  A
  process-global tracer is off by default and costs one global read per
  instrumentation point when disabled; when installed (``--trace FILE``
  on ``analyze``/``bench``/``serve``), spans from the pass pipeline, the
  per-procedure solver visits, the transfer-cache flush, the persistent
  codec and the shard dispatch are collected — across forked shard
  workers — and exported as Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) or a JSONL event log.
* :mod:`.metrics` — a registry of counters, gauges and fixed-bucket
  latency histograms that merges across processes exactly the way
  :class:`~repro.analysis.context.AnalysisStats` does: workers ship
  plain-data snapshots home and the parent's merge is bit-deterministic
  (histogram time sums are integer nanoseconds, so addition is exact).
  p50/p90/p99 are derived from the bucket boundaries — never from raw
  samples — so quantiles survive merging unchanged.

See ``docs/architecture.md`` §"Observability" for the span taxonomy and
metric naming scheme.
"""

from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    latency_tails,
)
from .trace import (
    Tracer,
    current_tracer,
    install_tracer,
    span,
    stopwatch,
    tracing_enabled,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "latency_tails",
    "span",
    "stopwatch",
    "tracing_enabled",
    "uninstall_tracer",
]
