"""Cross-run incremental re-analysis of edited programs.

The solver is incremental *within* a run (delta rows, PR 5) and warm
*across* runs for byte-identical programs (persistent transfer cache,
PR 4); this module makes it incremental across runs of **edited** programs:

1. diff the old and new program versions structurally
   (:func:`repro.sil.delta.diff_programs`);
2. compute the *dirty seed* — directly-edited procedures plus their
   reverse-call-graph dependents (:func:`repro.sil.delta.dirty_seed`);
3. drop exactly the memoized procedure visits and persistent transfer
   entries the edit invalidates (``summaries_invalidated``, targeted
   :meth:`~repro.analysis.transfer.TransferCache.invalidate_statements`);
4. rebase the surviving ``id(stmt)``-keyed recordings onto the new parse's
   statement objects (:func:`repro.sil.delta.statement_rebase_map`);
5. re-solve.  The solver runs the standard cold worklist algorithm — same
   discovery order, same entry-matrix evolution, hence the *least* fixed
   point — but answers every clean ``(procedure, limits, entry matrix)``
   visit from the :class:`VisitMemo` by pointer (``summaries_reused``),
   replaying the visit's captured widening counters so warm telemetry is
   bit-identical to a cold solve.

Soundness rests on one observation (golden-tested): a procedure's visit
recording is a pure function of its body, its (interned) entry matrix, the
analysis limits and its direct callees' summaries.  The first two are in
the memo key; the last two are covered by invalidating the reverse-call
closure of every edited procedure — and if a dirty caller's projection to
a clean callee actually changes, the callee's entry matrix changes with it
and the memo misses on its own.

:class:`IncrementalSession` packages the whole loop for the CLI
(``repro reanalyze``) and the analysis daemon (the ``reanalyze`` op).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from ..cache.backend import CacheConfig
from ..sil import ast
from ..sil.delta import (
    IdentityTable,
    ProgramDelta,
    diff_programs,
    dirty_seed,
    program_identities,
    statement_rebase_map,
)
from ..sil.typecheck import TypeInfo
from .context import AnalysisRecorder, AnalysisStats
from .engine import AnalysisResult, BatchAnalyzer
from .limits import DEFAULT_LIMITS, AnalysisLimits, LimitsLike
from .matrix import PathMatrix
from .transfer import TransferCache


def result_digest(result: AnalysisResult) -> str:
    """SHA-256 of the result's canonical encoding.

    The single-program analogue of the sharded suite's ``results_digest``:
    equal digests ⇔ bit-identical recorded matrices, entry matrices and
    diagnostics, across processes and hash seeds.
    """
    document = json.dumps(result.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


_MemoKey = Tuple[str, AnalysisLimits, PathMatrix]
_MemoVisit = Tuple[AnalysisRecorder, Dict[str, int]]


class VisitMemo:
    """Cross-run memo of completed procedure visits.

    Keyed by ``(procedure name, limits, interned entry matrix)``; the value
    is the visit's :class:`~repro.analysis.context.AnalysisRecorder` plus
    the widening-counter deltas the visit produced (replayed on every hit
    so warm telemetry matches a cold solve exactly).  Holding the interned
    entry matrices strongly also pins them in the weak intern table, so a
    later run's content-identical entry matrix resolves to the *same*
    object and the lookup is a plain tuple hash.

    The memo keeps only the visits the latest solve used.  A solve runs
    between :meth:`begin_run` and :meth:`end_run`; every visit it looks up
    (a hit) or records (a put) survives, and :meth:`end_run` drops the
    rest.  A re-solve follows a cold solve's discovery order and
    entry-matrix evolution, so the kept keys are exactly those a cold solve
    of the same version records.  A session that lives as long as the
    daemon therefore holds one version's visits, not one per entry matrix
    an edited caller ever produced, and its next re-analysis does the same
    solver work as a fresh session's.
    """

    __slots__ = ("_entries", "_previous", "fresh_names")

    def __init__(self) -> None:
        self._entries: Dict[_MemoKey, _MemoVisit] = {}
        #: The visits kept by the previous solve and not yet used by this
        #: one (empty between solves).
        self._previous: Dict[_MemoKey, _MemoVisit] = {}
        #: Procedure names analyzed fresh (memo misses) since
        #: :meth:`begin_run` — the re-analysis report's
        #: ``procedures_reanalyzed``.
        self.fresh_names: Set[str] = set()

    def __len__(self) -> int:
        return len(self._entries) + len(self._previous)

    def begin_run(self) -> None:
        """Start a solve: every kept visit waits to be used again."""
        self._previous, self._entries = self._entries, {}
        self.fresh_names = set()

    def end_run(self) -> None:
        """End a solve: drop the visits it did not use."""
        self._previous = {}

    def get(
        self, name: str, limits: AnalysisLimits, entry_matrix: PathMatrix
    ) -> Optional[_MemoVisit]:
        key = (name, limits, entry_matrix.interned())
        visit = self._entries.get(key)
        if visit is None:
            visit = self._previous.pop(key, None)
            if visit is not None:
                self._entries[key] = visit
        return visit

    def put(
        self,
        name: str,
        limits: AnalysisLimits,
        entry_matrix: PathMatrix,
        recorder: AnalysisRecorder,
        widening_delta: Dict[str, int],
    ) -> None:
        self._entries[(name, limits, entry_matrix.interned())] = (
            recorder,
            dict(widening_delta),
        )
        self.fresh_names.add(name)

    def invalidate(self, names: Iterable[str]) -> int:
        """Drop every memoized visit of the named procedures; return the count."""
        doomed = set(names)
        stale = [key for key in self._entries if key[0] in doomed]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def rebase(self, mapping: Dict[int, ast.Stmt]) -> None:
        """Re-key every surviving recorder onto new statement objects.

        ``mapping`` maps ``id(old stmt) -> new stmt`` for the procedures the
        delta reported unchanged (see :func:`repro.sil.delta.
        statement_rebase_map`).  Must be called *after* :meth:`invalidate`
        has dropped the dirty procedures — every id a surviving recorder
        holds is then covered by the mapping (a visit recorder only ever
        records statements of its own procedure).
        """
        for recorder, _widening in self._entries.values():
            _rebase_recorder(recorder, mapping)


def _rebase_recorder(recorder: AnalysisRecorder, mapping: Dict[int, ast.Stmt]) -> None:
    """Rebuild a recorder's ``id(stmt)``-keyed state onto new statements."""
    if not recorder.statements:
        return
    before: Dict[int, PathMatrix] = {}
    after: Dict[int, PathMatrix] = {}
    statements: Dict[int, ast.Stmt] = {}
    procedure_of: Dict[int, str] = {}
    for old_id, old_stmt in recorder.statements.items():
        new_stmt = mapping.get(old_id, old_stmt)
        new_id = id(new_stmt)
        before[new_id] = recorder.before[old_id]
        after[new_id] = recorder.after[old_id]
        statements[new_id] = new_stmt
        procedure_of[new_id] = recorder.procedure_of[old_id]
    loop_histories = {}
    for old_id, history in recorder.loop_histories.items():
        new_stmt = mapping.get(old_id)
        loop_histories[id(new_stmt) if new_stmt is not None else old_id] = history
    recorder.before = before
    recorder.after = after
    recorder.statements = statements
    recorder.procedure_of = procedure_of
    recorder.loop_histories = loop_histories


@dataclass
class ReanalysisReport:
    """Everything one :meth:`IncrementalSession.reanalyze` call produced."""

    result: AnalysisResult
    delta: ProgramDelta
    #: The dirty worklist seed (sorted): edited procedures + reverse-call
    #: dependents, in the *new* program.
    dirty_seed: Tuple[str, ...]
    #: Procedures actually re-analyzed (visit-memo misses) this solve.
    procedures_reanalyzed: Tuple[str, ...]
    #: Reachable procedures in the new program's solution.
    procedures_total: int
    #: This call's counter deltas (``summaries_reused`` et al. live here).
    stats_delta: Dict[str, int] = field(default_factory=dict)
    #: Memoized transfer entries dropped by targeted invalidation.
    transfers_invalidated: int = 0
    #: This call's widening-telemetry deltas.
    widening: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    seconds: float = 0.0
    #: Filled when the caller asked for cold verification.
    verified: Optional[bool] = None
    cold_digest: Optional[str] = None
    cold_widening: Optional[Dict[str, int]] = None

    @property
    def summaries_reused(self) -> int:
        return self.stats_delta.get("summaries_reused", 0)

    @property
    def summaries_invalidated(self) -> int:
        return self.stats_delta.get("summaries_invalidated", 0)

    @property
    def dirty_seed_size(self) -> int:
        return self.stats_delta.get("dirty_seed_size", 0)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-able rendering (the ``result`` itself is omitted)."""
        payload: Dict[str, object] = {
            "delta": self.delta.as_dict(),
            "dirty_seed": list(self.dirty_seed),
            "procedures_reanalyzed": list(self.procedures_reanalyzed),
            "procedures_total": self.procedures_total,
            "summaries_reused": self.summaries_reused,
            "summaries_invalidated": self.summaries_invalidated,
            "dirty_seed_size": self.dirty_seed_size,
            "transfers_invalidated": self.transfers_invalidated,
            "stats": dict(self.stats_delta),
            "widening": dict(self.widening),
            "digest": self.digest,
            "seconds": round(self.seconds, 6),
        }
        if self.verified is not None:
            payload["verified"] = self.verified
            payload["cold_digest"] = self.cold_digest
            payload["cold_widening"] = dict(self.cold_widening or {})
        return payload


def cold_solve(
    program: ast.Program,
    info: Optional[TypeInfo] = None,
    limits: LimitsLike = DEFAULT_LIMITS,
    entry: str = "main",
) -> Tuple[str, Dict[str, int]]:
    """Digest + widening counters of a from-scratch solve (fresh caches).

    The golden reference a dirty-seeded re-analysis must match bit-for-bit
    — used by ``repro reanalyze``'s verification mode and the golden tests.
    """
    batch = BatchAnalyzer(limits=limits, entry=entry)
    result = batch.analyze(program, info)
    return result_digest(result), batch.stats.widening_counters()


class IncrementalSession:
    """A warm analysis session fed successive versions of one program.

    Owns a :class:`~repro.analysis.engine.BatchAnalyzer` (optionally over a
    shared :class:`~repro.analysis.transfer.TransferCache` — the daemon's
    server-lifetime cache) plus the cross-run :class:`VisitMemo`.  Call
    :meth:`analyze` with the base version, then :meth:`reanalyze` with each
    edited version; each re-analysis re-solves only the dirty frontier and
    reuses every other procedure visit by pointer.

    A session can live as long as its host: the daemon holds the session
    that solved its last ``reanalyze`` request and continues it when the
    next request's old version is that request's new one.  It keeps the
    latest version's program and, through the bounded memo, that
    version's visits, so its state does not grow with the number of edits.
    :attr:`stats` accumulates over the session's whole life.

    Beside the program it keeps that version's
    :func:`~repro.sil.delta.program_identities` table, rendered when the
    session took the version, as the old side of the next diff and rebase.
    A continued re-analysis therefore renders each statement of the new
    version once and the old version not at all.  The table records the
    content the session actually solved, so a caller that later edits a
    statement of the old program object in place does not change what the
    next re-analysis compares the new version against.  A statement added
    to that object is not in the table, and the next re-analysis raises
    ``KeyError`` on it.
    """

    def __init__(
        self,
        limits: LimitsLike = DEFAULT_LIMITS,
        entry: str = "main",
        cache: Optional[CacheConfig] = None,
        transfer_cache: Optional[TransferCache] = None,
    ):
        self.batch = BatchAnalyzer(
            limits=limits, entry=entry, cache=cache, transfer_cache=transfer_cache
        )
        self.memo = VisitMemo()
        self.batch.visit_memo = self.memo
        self._program: Optional[ast.Program] = None
        self._identities: IdentityTable = {}

    @property
    def stats(self) -> AnalysisStats:
        return self.batch.stats

    @property
    def program(self) -> Optional[ast.Program]:
        """The latest analyzed program version (the next diff's old side)."""
        return self._program

    def analyze(
        self, program: ast.Program, info: Optional[TypeInfo] = None
    ) -> AnalysisResult:
        """Solve the base version cold, populating the visit memo."""
        identities = program_identities(program)
        result = self._solve(program, info)
        self._program, self._identities = program, identities
        return result

    def _solve(self, program: ast.Program, info: Optional[TypeInfo]) -> AnalysisResult:
        self.memo.begin_run()
        result = self.batch.analyze(program, info)
        self.memo.end_run()
        return result

    def reanalyze(
        self,
        new_program: ast.Program,
        info: Optional[TypeInfo] = None,
        verify: bool = False,
    ) -> ReanalysisReport:
        """Diff against the previous version, invalidate, re-solve warm.

        With ``verify=True`` the report also carries a from-scratch solve's
        digest and widening counters and ``verified`` says whether the
        dirty-seeded solution matched them exactly.
        """
        if self._program is None:
            raise ValueError(
                "IncrementalSession.reanalyze needs a base version; call "
                "analyze() first"
            )
        old_program, old_identities = self._program, self._identities
        stats = self.batch.stats
        counters_before = stats.counters()

        started = time.perf_counter()
        new_identities = program_identities(new_program)
        delta = diff_programs(old_program, new_program, old_identities, new_identities)
        dirty = dirty_seed(delta, new_program)
        stats.dirty_seed_size += len(dirty)
        stats.summaries_invalidated += self.memo.invalidate(
            set(dirty) | set(delta.removed)
        )
        self.memo.rebase(
            statement_rebase_map(
                old_program, new_program, delta.unchanged, old_identities, new_identities
            )
        )
        transfers_invalidated = 0
        stale = delta.stale_statement_labels
        if stale:
            transfers_invalidated = self.batch.cache.invalidate_statements(stale)

        result = self._solve(new_program, info)
        seconds = time.perf_counter() - started

        self._program, self._identities = new_program, new_identities

        counters_after = stats.counters()
        stats_delta = {
            name: counters_after[name] - counters_before[name]
            for name in counters_after
        }
        report = ReanalysisReport(
            result=result,
            delta=delta,
            dirty_seed=tuple(sorted(dirty)),
            procedures_reanalyzed=tuple(sorted(self.memo.fresh_names)),
            procedures_total=len(result.entry_matrices),
            stats_delta=stats_delta,
            transfers_invalidated=transfers_invalidated,
            widening={
                name: stats_delta[name] for name in AnalysisStats.WIDENING_FIELDS
            },
            digest=result_digest(result),
            seconds=seconds,
        )
        if verify:
            cold_digest, cold_widening = cold_solve(
                new_program, limits=self.batch.limits, entry=self.batch.entry
            )
            report.cold_digest = cold_digest
            report.cold_widening = cold_widening
            report.verified = (
                cold_digest == report.digest and cold_widening == report.widening
            )
        return report

    def flush(self) -> None:
        self.batch.flush()

    def close(self) -> None:
        self.batch.close()
