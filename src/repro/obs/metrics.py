"""Counters, gauges and fixed-bucket histograms with exact cross-shard merge.

The registry exists to answer one question the per-median benches cannot:
*what does the tail look like* — per workload, per server op — without
giving up the property every other statistic in this codebase has, that
**sharded == single-process, bit for bit**.  Three design rules make that
hold, mirroring :class:`~repro.analysis.context.AnalysisStats` and
:class:`~repro.analysis.telemetry.WideningTally`:

* every stored value is an **integer** — counter increments, gauge
  levels, histogram bucket occupancies, and histogram time sums kept in
  integer *nanoseconds* (``observe`` converts once) — so merging is
  integer addition: exact, associative, commutative;
* quantiles (p50/p90/p99) are **derived from the fixed bucket
  boundaries**, never from raw samples, and clamped to each histogram's
  exact integer-ns observed range (merged as the min of mins and the max
  of maxes), so a merge of shard histograms yields exactly the quantiles
  a single process observing the union would report;
* registries cross process boundaries only as **plain-data snapshots**
  (:meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.from_dict`),
  the same way shard workers already ship ``AnalysisStats`` home, and
  :meth:`MetricsRegistry.canonical` renders a key-sorted minified JSON
  document for byte-level identity checks.

Naming scheme: dotted ``component.metric`` names (``suite.workload_seconds``,
``server.requests_total``) with optional ``{label="value"}`` dimensions;
durations end in ``_seconds``, monotone totals in ``_total``.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "latency_tails",
]

#: Upper bucket bounds for latency histograms, in seconds: log-spaced from
#: 100µs to a minute, matching the spread between a memoized replay and a
#: cold solve of a large program.  Observations beyond the last bound land
#: in the overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Upper bucket bounds for count-valued histograms (worklist pops per
#: workload, frame sizes): log-spaced integers.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000,
)

#: The p-quantiles every tails report derives from the buckets.
TAIL_QUANTILES: Tuple[Tuple[str, float], ...] = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))


def _labels_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone integer total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += int(amount)


class Gauge:
    """An integer level (in-flight requests, queue depth).

    Merging sums levels across shards — the union of N workers each
    holding K in-flight *is* N·K in flight — which keeps the merge exact;
    last-write-wins semantics would not survive order-free merging.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: int) -> None:
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        self.value += int(amount)

    def dec(self, amount: int = 1) -> None:
        self.value -= int(amount)


class Histogram:
    """Fixed-bucket histogram: integer occupancies, integer-ns sum and range.

    ``boundaries`` are inclusive upper bounds; ``counts`` has one extra
    overflow slot.  Observations are converted to integer nanoseconds up
    front so the running sum — and therefore every merge — is exact, and so
    are ``min_ns`` / ``max_ns``, the observed range (``None`` while empty)
    every quantile is clamped to.
    """

    __slots__ = (
        "name", "labels", "boundaries", "counts", "count", "sum_ns", "min_ns", "max_ns",
    )

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Tuple[Tuple[str, str], ...] = (),
    ):
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be a sorted non-empty sequence")
        self.name = name
        self.labels = labels
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    def observe(self, value: float) -> None:
        """Record one observation (seconds for latency histograms)."""
        self.observe_ns(int(round(value * 1e9)))

    def observe_ns(self, value_ns: int) -> None:
        value = value_ns / 1e9
        index = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.sum_ns += int(value_ns)
        self._widen_range(int(value_ns), int(value_ns))

    def _widen_range(self, low_ns: Optional[int], high_ns: Optional[int]) -> None:
        if low_ns is not None and (self.min_ns is None or low_ns < self.min_ns):
            self.min_ns = int(low_ns)
        if high_ns is not None and (self.max_ns is None or high_ns > self.max_ns):
            self.max_ns = int(high_ns)

    def absorb(self, other: "Histogram") -> None:
        """Fold ``other`` (same boundaries) into this histogram, exactly."""
        for i, occupancy in enumerate(other.counts):
            self.counts[i] += occupancy
        self.count += other.count
        self.sum_ns += other.sum_ns
        self._widen_range(other.min_ns, other.max_ns)

    def quantile(self, q: float) -> float:
        """The q-quantile in seconds, interpolated inside its bucket.

        Deterministic given the bucket occupancies and the observed range
        (linear interpolation inside the bucket): a merge of shard
        histograms reports the same quantiles as the single process would.
        The overflow bucket clamps to the largest boundary, and every
        quantile is then clamped to ``[min, max]`` of the observations — a
        one-sample histogram reports that sample, not its bucket's
        midpoint.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        value = self.boundaries[-1]
        for i, occupancy in enumerate(self.counts):
            if not occupancy:
                continue
            if cumulative + occupancy >= rank:
                if i < len(self.boundaries):
                    lower = self.boundaries[i - 1] if i else 0.0
                    upper = self.boundaries[i]
                    fraction = (rank - cumulative) / occupancy
                    value = lower + (upper - lower) * min(1.0, max(0.0, fraction))
                break
            cumulative += occupancy
        if self.min_ns is None or self.max_ns is None:  # a snapshot without a range
            return value
        return min(max(value, self.min_ns / 1e9), self.max_ns / 1e9)

    def mean(self) -> float:
        return (self.sum_ns / 1e9 / self.count) if self.count else 0.0


_KINDS = ("counters", "gauges", "histograms")


class MetricsRegistry:
    """Get-or-create instrument store with snapshot/merge plumbing.

    Structure mutation (instrument creation, absorb) and snapshots take an
    internal re-entrant lock so the daemon can record on its event loop
    while a worker thread folds a request's registry in; increments on an
    already-created instrument are plain integer adds on one object and
    stay lock-free.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = _render_key(name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(
                    key, Counter(name, _labels_key(labels))
                )
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _render_key(name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(
                    key, Gauge(name, _labels_key(labels))
                )
        return instrument

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = _render_key(name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(name, boundaries, _labels_key(labels))
                )
        if instrument.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(f"histogram {key!r} re-declared with different boundaries")
        return instrument

    def histograms(self, name: Optional[str] = None) -> List[Histogram]:
        """Registered histograms, optionally restricted to one metric name."""
        with self._lock:
            return [
                h for h in self._histograms.values() if name is None or h.name == name
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # snapshots (the only cross-process form)
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                "counters": {
                    key: {"name": c.name, "labels": dict(c.labels), "value": c.value}
                    for key, c in sorted(self._counters.items())
                },
                "gauges": {
                    key: {"name": g.name, "labels": dict(g.labels), "value": g.value}
                    for key, g in sorted(self._gauges.items())
                },
                "histograms": {
                    key: {
                        "name": h.name,
                        "labels": dict(h.labels),
                        "boundaries": list(h.boundaries),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum_ns": h.sum_ns,
                        "min_ns": h.min_ns,
                        "max_ns": h.max_ns,
                    }
                    for key, h in sorted(self._histograms.items())
                },
            }

    @classmethod
    def from_dict(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for entry in (snapshot.get("counters") or {}).values():
            registry.counter(entry["name"], **entry.get("labels", {})).inc(entry["value"])
        for entry in (snapshot.get("gauges") or {}).values():
            registry.gauge(entry["name"], **entry.get("labels", {})).set(entry["value"])
        for entry in (snapshot.get("histograms") or {}).values():
            histogram = registry.histogram(
                entry["name"], entry["boundaries"], **entry.get("labels", {})
            )
            counts = [int(c) for c in entry["counts"]]
            if len(counts) != len(histogram.counts):
                raise ValueError(f"histogram {entry['name']!r} snapshot shape mismatch")
            histogram.counts = counts
            histogram.count = int(entry["count"])
            histogram.sum_ns = int(entry["sum_ns"])
            histogram._widen_range(entry.get("min_ns"), entry.get("max_ns"))
        return registry

    def canonical(self) -> str:
        """Key-sorted minified JSON — the byte-identity form the tests pin."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    # ------------------------------------------------------------------
    # merging (exact, like AnalysisStats)
    # ------------------------------------------------------------------

    def absorb(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place; returns self."""
        with self._lock, other._lock:
            for counter in list(other._counters.values()):
                self.counter(counter.name, **dict(counter.labels)).inc(counter.value)
            for gauge in list(other._gauges.values()):
                self.gauge(gauge.name, **dict(gauge.labels)).inc(gauge.value)
            for histogram in list(other._histograms.values()):
                self.histogram(
                    histogram.name, histogram.boundaries, **dict(histogram.labels)
                ).absorb(histogram)
        return self

    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry with every value summed across self and ``others``."""
        merged = MetricsRegistry()
        for source in (self, *others):
            merged.absorb(source)
        return merged

    def filtered(self, predicate: Callable[[str], bool]) -> "MetricsRegistry":
        """A new registry keeping only instruments whose *name* passes.

        The merge-determinism tests use this to strip wall-clock metrics
        (``*_seconds``) before comparing canonical snapshots: time is the
        one axis that legitimately differs between a sharded and a
        single-process run.
        """
        survivor = MetricsRegistry()
        clone = MetricsRegistry()
        for kind in _KINDS:
            snapshot = self.as_dict()[kind]
            kept = {k: v for k, v in snapshot.items() if predicate(v["name"])}
            clone.absorb(MetricsRegistry.from_dict({kind: kept}))
        survivor.absorb(clone)
        return survivor


# ---------------------------------------------------------------------------
# derived reports
# ---------------------------------------------------------------------------


def _tail_row(histogram: Histogram) -> Dict[str, Any]:
    row: Dict[str, Any] = {"count": histogram.count}
    for label, q in TAIL_QUANTILES:
        row[f"{label}_seconds"] = round(histogram.quantile(q), 6)
    row["mean_seconds"] = round(histogram.mean(), 6)
    return row


def latency_tails(
    registry: MetricsRegistry, name: str, label: Optional[str] = None
) -> Dict[str, Dict[str, Any]]:
    """Per-label p50/p90/p99 rows for one histogram family, plus ``_overall``.

    ``label`` picks the dimension used as the row key (default: the first
    label of each histogram); ``_overall`` is the exact bucket-wise merge
    of every matching histogram — the population tail, not an average of
    per-row tails.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    overall: Optional[Histogram] = None
    for histogram in registry.histograms(name):
        labels = dict(histogram.labels)
        if label is not None:
            key = labels.get(label)
            if key is None:
                continue
        else:
            key = next(iter(labels.values()), "")
        rows[key] = _tail_row(histogram)
        if overall is None:
            overall = Histogram(name, histogram.boundaries)
        overall.absorb(histogram)
    report = {key: rows[key] for key in sorted(rows)}
    if overall is not None:
        report["_overall"] = _tail_row(overall)
    return report
