"""The warm analysis service behind the daemon's protocol layer.

One :class:`AnalysisService` owns everything the one-shot CLI used to tear
down between invocations:

* one **server-lifetime** :class:`~repro.analysis.transfer.TransferCache`,
  with the disk store shared with the batch CLI behind it when one is
  configured (``--cache-dir``) and no persistent tier otherwise;
* the process-global interned path domain (paths, path sets and matrix
  rows) and op memos, which stay hot simply because the process stays
  alive;
* server-lifetime merged :class:`~repro.analysis.context.AnalysisStats`.

Every ``analyze`` request gets a *fresh*
:class:`~repro.analysis.engine.BatchAnalyzer` attached to the shared cache
(``transfer_cache=...``), so per-request stats are exact deltas; the
request's items run through
:meth:`~repro.workloads.suite.ShardedSuiteRunner.run_warm` — the same
suite machinery the sharded CLI uses, pointed at the warm batch instead of
fresh worker processes — and the per-request stats are merged into the
lifetime totals that ``cache_stats`` reports.

``reanalyze`` requests share one more piece of state: the **held
session**, the :class:`~repro.analysis.reanalysis.IncrementalSession`
that solved the last request's new version, beside that version's
:class:`~repro.sil.window.ParsedVersion` (its exact source text, program,
types and callable offsets).  An editor sends each edit with the previous
one's result as its old version, so the next request finds the old
version already solved.  Its front end reads only the *edit window*, the
callables between the first and the last changed character, and carries
every other callable over from the held version; when the window cannot
show that it equals a full parse, the whole new version is parsed.  Any
other request starts a fresh session, which parses and solves its old
version first.  Every request runs at the service's limits.

Why the second request is cheap: the in-memory transfer memo keys on
statement **content** (kind and rendering), limits and input matrix, so a
re-submitted program — freshly parsed into new statement objects — finds
every transfer the first request computed with one dict probe each: no
recomputation, no persistent read, no codec decode.  A persistent store
serves only what memory does not hold — a store filled by an earlier
daemon or batch run, and entries evicted from the bounded memo — so a
daemon without ``--cache-dir`` keeps no store at all: a private one would
only cost an encode per miss and a write per request.

The service is thread-safe under the daemon's bounded worker pool: one
internal lock serializes the analysis itself (the path, path-set and row
tables and the op memos are process-global, so analysis must not race),
while snapshot reads (``cache_stats``) stay lock-free.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..analysis.context import AnalysisStats
from ..analysis.engine import BatchAnalyzer
from ..analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from ..analysis.pathset import intern_table_sizes
from ..analysis.reanalysis import IncrementalSession, result_digest
from ..analysis.transfer import TransferCache
from ..cache.backend import CacheConfig, open_backend
from ..obs.metrics import MetricsRegistry, latency_tails
from ..sil import ast
from ..sil.normalize import parse_and_normalize
from ..sil.typecheck import TypeInfo
from ..sil.window import ParsedVersion
from ..workloads.suite import WORKLOADS, ShardedSuiteReport, ShardedSuiteRunner, source

#: Operations the service implements (the daemon adds ping/protocol_version,
#: which never reach the service).
SERVICE_OPS = ("analyze", "reanalyze", "cache_stats", "metrics")

logger = logging.getLogger("repro.server.service")


class RequestError(ValueError):
    """A request was well-framed but semantically invalid (→ ``bad_request``)."""


def _front_end(source: str) -> Tuple[ast.Program, TypeInfo]:
    """Parse, type-check and normalize one request program (→ ``bad_request``)."""
    try:
        return parse_and_normalize(source)
    except Exception as error:  # noqa: BLE001 - front-end rejection
        raise RequestError(f"{type(error).__name__}: {error}") from None


class _HeldSession(NamedTuple):
    """The session that solved the last ``reanalyze`` request's new version."""

    version: ParsedVersion
    session: IncrementalSession
    digest: str


class AnalysisService:
    """Warm shared analysis state + the request handlers over it."""

    def __init__(
        self,
        limits: AnalysisLimits = DEFAULT_LIMITS,
        cache: Optional[CacheConfig] = None,
        entry: str = "main",
    ):
        self.limits = limits
        self.entry = entry
        self.cache = TransferCache(
            backend=open_backend(cache) if cache is not None else None
        )
        self.started_at = time.time()
        self.requests_served = 0
        self.requests_by_op: Dict[str, int] = {op: 0 for op in SERVICE_OPS}
        self._lifetime = AnalysisStats()
        #: The one held ``reanalyze`` session, or ``None``; see :meth:`reanalyze`.
        self._held: Optional[_HeldSession] = None
        #: Server-lifetime observability registry.  The daemon records its
        #: per-op request counters / latency histograms / transport gauges
        #: here, and every warm suite run's per-workload histograms are
        #: absorbed in — one registry, one ``metrics`` op.
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._closed = False
        logger.info(
            "analysis service ready (persistent store: %s)",
            cache.directory if cache is not None else "none",
        )

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------

    def _items(self, params: Mapping[str, Any]) -> List[Tuple[str, str]]:
        """The (name, source) items an ``analyze`` request names.

        ``workloads`` picks named suite programs (all of them when the
        request names neither workloads nor inline programs); ``programs``
        carries inline ``{"name": ..., "source": ...}`` SIL sources.
        """
        names = params.get("workloads")
        programs = params.get("programs")
        if names is None and programs is None:
            names = list(WORKLOADS)
        names = list(names or [])
        unknown = [name for name in names if name not in WORKLOADS]
        if unknown:
            raise RequestError(
                f"unknown workloads: {unknown}; known: {sorted(WORKLOADS)}"
            )
        depth = params.get("depth", 4)
        if not isinstance(depth, int) or depth < 1:
            raise RequestError(f"depth must be a positive integer, got {depth!r}")
        items = [(name, source(name, depth=depth)) for name in names]
        for entry in programs or []:
            if (
                not isinstance(entry, Mapping)
                or not isinstance(entry.get("name"), str)
                or not isinstance(entry.get("source"), str)
            ):
                raise RequestError(
                    'each inline program must be {"name": <str>, "source": <str>}'
                )
            items.append((entry["name"], entry["source"]))
        if not items:
            raise RequestError("nothing to analyze: empty workloads/programs")
        return items

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def analyze(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Analyze named workloads / inline programs against the warm state."""
        items = self._items(params)
        try:
            runner = ShardedSuiteRunner(items, shards=1)
        except ValueError as error:  # duplicate names
            raise RequestError(str(error)) from None
        report = self._run_warm(runner)
        self._count("analyze")
        return {
            "results": report.results,
            "failures": report.failures,
            "widening": report.widening,
            "results_digest": report.results_digest(),
            "stats": report.stats.as_dict(),
            "intern_table_growth": report.intern_tables,
            "seconds": round(report.seconds, 4),
        }

    def reanalyze(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Dirty-seeded re-analysis of an edited program over the warm cache.

        The request carries the old and new program sources.  When the old
        source is the source of the held session — the one that solved the
        last request's new version — the request continues it: it reads the
        new version through the edit window
        (:meth:`~repro.sil.window.ParsedVersion.edited`, or a full parse
        when the window declines), diffs, invalidates, and re-solves the
        dirty frontier.  Otherwise a fresh
        :class:`~repro.analysis.reanalysis.IncrementalSession` over the
        shared :class:`TransferCache` parses and solves the old version
        first.  ``base_reused`` says which path ran.  Either way the
        session is taken out of the slot before the solve and put back,
        holding the new version, only after the flush succeeds, so a failed
        request leaves no session behind; a front-end rejection of either
        version answers ``bad_request`` and leaves the slot as it was.

        ``request_stats`` are the whole request's counter deltas: base
        solve plus re-analysis on a fresh session, the re-analysis alone on
        a continued one.  The lifetime totals stay their sum.
        ``verify: true`` additionally runs a from-scratch solve of the new
        version and reports whether the warm solution matched it exactly.
        """
        old_source = params.get("old_source")
        new_source = params.get("new_source")
        if not isinstance(old_source, str) or not isinstance(new_source, str):
            raise RequestError(
                'reanalyze needs "old_source" and "new_source" program strings'
            )
        name = str(params.get("name", "program"))
        verify = bool(params.get("verify", False))
        window_base = self._held
        new = None
        if window_base is not None and window_base.version.source == old_source:
            new = window_base.version.edited(new_source)
        if new is None:
            window_base = None
            new = ParsedVersion(new_source, *_front_end(new_source))
        with self._lock:
            if self._closed:
                raise RequestError("service is closed")
            held = self._held
            if window_base is not None and held is not window_base:
                # Another request replaced the version the window was read
                # against while this one was outside the lock.
                new = ParsedVersion(new_source, *_front_end(new_source))
            reused = held is not None and held.version.source == old_source
            if reused:
                session, base_digest = held.session, held.digest
            else:
                old_program, old_info = _front_end(old_source)
                session = IncrementalSession(
                    limits=self.limits, entry=self.entry, transfer_cache=self.cache
                )
            self._held = None
            counters_before = session.stats.counters()
            if not reused:
                base_digest = result_digest(session.analyze(old_program, old_info))
            report = session.reanalyze(new.program, new.info, verify=verify)
            session.flush()
            counters_after = session.stats.counters()
            request_stats = AnalysisStats.from_dict(
                {
                    counter: counters_after[counter] - counters_before[counter]
                    for counter in counters_after
                }
            )
            self._lifetime = self._lifetime.merge(request_stats)
            self._held = _HeldSession(new, session, report.digest)
            self.requests_served += 1
        self._count("reanalyze")
        payload = report.as_dict()
        payload["program"] = name
        payload["base_digest"] = base_digest
        payload["base_reused"] = reused
        payload["request_stats"] = request_stats.as_dict()
        return payload

    def cache_stats(self, params: Mapping[str, Any] = None) -> Dict[str, Any]:
        """Server-lifetime totals, cache occupancy and store statistics."""
        self._count("cache_stats")  # before the snapshot: the call counts itself
        backend = self.cache.backend
        payload = {
            "server": {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "requests_served": self.requests_served,
                "requests_by_op": dict(self.requests_by_op),
            },
            "lifetime_stats": self._lifetime.as_dict(),
            "transfer_cache": {
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
                "evictions": self.cache.evictions,
            },
            "persistent": backend.stats() if backend is not None else None,
            "intern_tables": intern_table_sizes(),
        }
        return payload

    def metrics_payload(self) -> Dict[str, Any]:
        """The live observability registry: its snapshot plus derived tail tables.

        Counted *before* the snapshot, like ``cache_stats``: the scrape
        shows itself in ``requests_by_op``.
        """
        self._count("metrics")
        # Warm runs export cache.degraded per run and absorb() sums gauges,
        # so pin the gauge to the live truth before every scrape.
        self.metrics.gauge("cache.degraded").set(1 if self.cache.degraded else 0)
        return {
            "format": "json",
            "metrics": self.metrics.as_dict(),
            "tails": {
                "server.request_seconds": latency_tails(
                    self.metrics, "server.request_seconds", "op"
                ),
                "suite.workload_seconds": latency_tails(
                    self.metrics, "suite.workload_seconds", "workload"
                ),
            },
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def lifetime_stats(self) -> AnalysisStats:
        return self._lifetime

    def flush(self) -> None:
        """Write any buffered transfer deltas to the persistent store."""
        with self._lock:
            self.cache.flush(self._lifetime)

    def close(self) -> None:
        """Flush and release the persistent backend (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._held = None
            self.cache.flush(self._lifetime)
            if self.cache.backend is not None:
                self.cache.backend.close()
                self.cache.backend = None
        logger.info(
            "analysis service closed after %d requests (%.1fs uptime)",
            self.requests_served,
            time.time() - self.started_at,
        )

    # ------------------------------------------------------------------

    def _run_warm(self, runner: ShardedSuiteRunner) -> ShardedSuiteReport:
        """One request through the warm batch, lifetime totals updated.

        The lock serializes actual analysis across the daemon's worker
        threads: the path, path-set and row tables and the op memos are
        process-global, so two interleaved analyses could otherwise race
        them.  Protocol-level concurrency (many clients, pipelined frames)
        is the daemon's job; compute is serialized here.
        """
        with self._lock:
            if self._closed:
                raise RequestError("service is closed")
            batch = BatchAnalyzer(
                limits=self.limits, entry=self.entry, transfer_cache=self.cache
            )
            report = runner.run_warm(batch)
            # run_warm reports are exact deltas, so lifetime totals stay the
            # sum of the per-request stats the responses carried — and the
            # per-workload metric histograms accumulate the same way.
            self._lifetime = self._lifetime.merge(report.stats)
            self.metrics.absorb(report.metrics)
            self.requests_served += 1
        logger.debug(
            "warm run: %d workloads, %d failures, %.3fs",
            len(report.results),
            len(report.failures),
            report.seconds,
        )
        return report

    def _count(self, op: str) -> None:
        self.requests_by_op[op] = self.requests_by_op.get(op, 0) + 1
