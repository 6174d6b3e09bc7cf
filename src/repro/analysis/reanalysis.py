"""Cross-run incremental re-analysis of edited programs.

The solver is incremental *within* a run (interned entry matrices and
row-wise merges) and warm *across* runs for byte-identical programs
(transfer cache); this module makes it incremental across runs of
**edited** programs:

1. diff the old and new program versions structurally
   (:func:`repro.sil.delta.diff_programs`), reading the old side from the
   identity table the session rendered when it took that version;
2. compute the *dirty seed* — directly-edited procedures plus their
   reverse-call-graph dependents (:func:`repro.sil.delta.dirty_seed`),
   over the one :func:`~repro.sil.delta.call_graph` the solve also orders
   its components by;
3. drop exactly the memoized components and persistent transfer entries
   the edit invalidates (``summaries_invalidated``, targeted
   :meth:`~repro.analysis.transfer.TransferCache.invalidate_statements`);
4. rebase the surviving ``id(stmt)``-keyed recordings onto the new parse's
   statement objects (:func:`repro.sil.delta.statement_rebase_map`);
5. compute summaries for the dirty seed only, reusing the previous
   version's summary objects for every other procedure;
6. re-solve.  The solver (:func:`repro.analysis.pipeline.solve_pass`)
   takes the call graph's components level by level, and adopts every
   component whose key — members, limits and entry matrices when its
   level starts — the :class:`ComponentMemo` holds, without popping
   (``summaries_reused`` counts the skipped pops) and with its widening
   counters replayed, so warm telemetry is bit-identical to a cold solve;
7. digest the result from per-procedure canonical text, rendering only
   the procedures whose last-visit recorder the solve did not reuse.

Soundness rests on one observation (golden-tested): a component's solve is
a pure function of its members' bodies, their entry matrices when its
level starts, the analysis limits and its callees' summaries.  The middle
two are in the memo key.  The bodies and summaries are covered by
invalidating the reverse-call closure of every edited procedure — a
procedure outside that closure reaches no edited procedure, so neither its
body nor any summary it reads changed — and if a dirty caller's projection
to a clean callee actually changes, the callee's entry matrix changes with
it and the memo misses on its own.

:class:`IncrementalSession` packages the whole loop for the CLI
(``repro reanalyze``) and the analysis daemon (the ``reanalyze`` op).
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple

from ..cache.backend import CacheConfig
from ..sil import ast
from ..sil.delta import (
    IdentityTable,
    ProgramDelta,
    call_graph,
    diff_programs,
    dirty_seed,
    program_identities,
    statement_rebase_map,
)
from ..sil.typecheck import TypeInfo, check_program
from .context import AnalysisRecorder, AnalysisStats
from .engine import (
    AnalysisResult,
    BatchAnalyzer,
    canonical_diagnostics,
    canonical_matrix,
    canonical_points,
)
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .matrix import PathMatrix
from .pipeline import SolvedComponent
from .summaries import ProcedureSummary, compute_summaries
from .transfer import TransferCache


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def result_digest(result: AnalysisResult) -> str:
    """SHA-256 of the result's canonical encoding.

    The single-program analogue of the sharded suite's ``results_digest``:
    equal digests ⇔ bit-identical recorded matrices, entry matrices and
    diagnostics, across processes and hash seeds.
    """
    return hashlib.sha256(_dumps(result.canonical()).encode("utf-8")).hexdigest()


class _ProcedureText(NamedTuple):
    """One procedure's share of the canonical JSON text of a result."""

    recorder: AnalysisRecorder
    entry_matrix: PathMatrix
    #: ``"name":{...}`` in ``entry_matrices``.
    entry: str
    #: Its ``"name#i":{...}`` members of ``points``, comma-joined.
    points: str
    #: Its rows of ``diagnostics``, comma-joined.
    diagnostics: str


def _procedure_text(result: AnalysisResult, name: str) -> _ProcedureText:
    recorder = result.procedure_recorders[name]
    entry_matrix = result.entry_matrices[name]
    points = canonical_points(result.program.callable(name), recorder.before, recorder.after)
    return _ProcedureText(
        recorder,
        entry_matrix,
        _dumps(name) + ":" + _dumps(canonical_matrix(entry_matrix)),
        _dumps(points)[1:-1],
        ",".join(_dumps(row) for row in canonical_diagnostics(recorder.diagnostics)),
    )


def _composed_digest(result: AnalysisResult, texts: Dict[str, _ProcedureText]) -> str:
    """:func:`result_digest`, from per-procedure texts.

    ``json.dumps`` with sorted keys writes each procedure's entry matrix,
    points and diagnostics rows as one contiguous run in procedure-name
    order (``#`` sorts before every identifier character), so joining the
    runs gives the canonical text byte for byte.
    """
    parts = [texts[name] for name in sorted(result.entry_matrices)]
    document = "".join(
        (
            '{"diagnostics":[',
            ",".join(part.diagnostics for part in parts if part.diagnostics),
            '],"entry_matrices":{',
            ",".join(part.entry for part in parts),
            '},"points":{',
            ",".join(part.points for part in parts if part.points),
            '},"program":',
            _dumps(result.program.name),
            "}",
        )
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class ComponentMemo:
    """Cross-run memo of solved call-graph components.

    Keyed by ``(members, limits, ((name, entry matrix), ...))``: the
    component's sorted member names, the limits, and the interned entry
    matrix of each member that had one when the component's level started,
    in arrival order.  The value is the
    :class:`~repro.analysis.pipeline.SolvedComponent` the solve recorded:
    the members' final entry matrices and last-visit recorders, the
    projections the component emitted, its widening counts and its pops.
    Holding the interned matrices strongly also pins them in the weak
    intern table, so a later run's content-identical matrix resolves to
    the *same* object and the lookup is a plain tuple hash.

    Callee summaries are not in the key: a component whose callee's
    summary could change holds a transitive caller of an edited procedure,
    and the session invalidates every such component before it solves.

    The memo keeps only the components the latest solve used.  A solve
    runs between :meth:`begin_run` and :meth:`end_run`; every component it
    looks up (a hit) or records (a put) survives, and :meth:`end_run` drops
    the rest.  A session that lives as long as the daemon therefore holds
    one version's components, and its next re-analysis does the same
    solver work as a fresh session's.
    """

    __slots__ = ("_entries", "_previous", "fresh_names")

    def __init__(self) -> None:
        self._entries: Dict[tuple, SolvedComponent] = {}
        #: The components kept by the previous solve and not yet used by
        #: this one (empty between solves).
        self._previous: Dict[tuple, SolvedComponent] = {}
        #: Procedures visited by the solver since :meth:`begin_run` — the
        #: re-analysis report's ``procedures_reanalyzed``.
        self.fresh_names: Set[str] = set()

    def __len__(self) -> int:
        return len(self._entries) + len(self._previous)

    def begin_run(self) -> None:
        """Start a solve: every kept component waits to be used again."""
        self._previous, self._entries = self._entries, {}
        self.fresh_names = set()

    def end_run(self) -> None:
        """End a solve: drop the components it did not use."""
        self._previous = {}

    def get(self, key: tuple) -> Optional[SolvedComponent]:
        solved = self._entries.get(key)
        if solved is None:
            solved = self._previous.pop(key, None)
            if solved is not None:
                self._entries[key] = solved
        return solved

    def put(self, key: tuple, solved: SolvedComponent) -> None:
        self._entries[key] = solved

    def invalidate(self, names: Iterable[str]) -> int:
        """Drop every component with a member in ``names``; return the count."""
        doomed = set(names)
        stale = [key for key in self._entries if not doomed.isdisjoint(key[0])]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def rebase(self, mapping: Dict[int, ast.Stmt]) -> None:
        """Re-key every surviving recorder onto new statement objects.

        ``mapping`` maps ``id(old stmt) -> new stmt`` for the procedures the
        delta reported unchanged (see :func:`repro.sil.delta.
        statement_rebase_map`).  Must be called *after* :meth:`invalidate`
        has dropped the dirty procedures' components — every id a surviving
        recorder holds is then covered by the mapping (a visit recorder
        only ever records statements of its own procedure).
        """
        for solved in self._entries.values():
            for recorder in solved.recorders.values():
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
    #: Procedures the solver visited this solve (members of components the
    #: memo did not answer).
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
    limits: AnalysisLimits = DEFAULT_LIMITS,
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
    server-lifetime cache) plus the cross-run :class:`ComponentMemo`.  Call
    :meth:`analyze` with the base version, then :meth:`reanalyze` with each
    edited version; each re-analysis re-solves only the components an edit
    reaches and adopts every other one by pointer.

    A session can live as long as its host: the daemon holds the session
    that solved its last ``reanalyze`` request and continues it when the
    next request's old version is that request's new one.  It keeps the
    latest version's program, summaries and per-procedure digest text and,
    through the bounded memo, that version's components, so its state does
    not grow with the number of edits.  :attr:`stats` accumulates over the
    session's whole life.

    Beside the program it keeps that version's
    :func:`~repro.sil.delta.program_identities` table, rendered when the
    session took the version: per procedure, the signature and the
    (statement, identity) pairs it solved.  The next diff and rebase read
    the old side from that table, so a continued re-analysis renders each
    statement of the new version once and the old version not at all, and
    a caller that later edits the old program object in place — changing,
    adding or removing a statement — does not change what the next
    re-analysis compares the new version against.
    """

    def __init__(
        self,
        limits: AnalysisLimits = DEFAULT_LIMITS,
        entry: str = "main",
        cache: Optional[CacheConfig] = None,
        transfer_cache: Optional[TransferCache] = None,
    ):
        self.batch = BatchAnalyzer(
            limits=limits, entry=entry, cache=cache, transfer_cache=transfer_cache
        )
        self.memo = ComponentMemo()
        self.batch.component_memo = self.memo
        self._program: Optional[ast.Program] = None
        self._identities: IdentityTable = IdentityTable()
        self._summaries: Dict[str, ProcedureSummary] = {}
        self._texts: Dict[str, _ProcedureText] = {}

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
        """Solve the base version cold, populating the component memo."""
        identities = program_identities(program)
        result = self._solve(program, info)
        self._program, self._identities = program, identities
        return result

    def _solve(
        self,
        program: ast.Program,
        info: Optional[TypeInfo],
        summaries: Optional[Dict[str, ProcedureSummary]] = None,
        graph: Optional[Dict[str, Set[str]]] = None,
    ) -> AnalysisResult:
        self.memo.begin_run()
        result = self.batch.analyze(program, info, summaries=summaries, call_graph=graph)
        self.memo.end_run()
        self._summaries = result.summaries
        return result

    def _digest(self, result: AnalysisResult) -> str:
        """:func:`result_digest` of ``result``, rendering only the procedures
        whose last-visit recorder or entry matrix the previous digest did
        not hold."""
        previous, texts = self._texts, {}
        for name, entry_matrix in result.entry_matrices.items():
            text = previous.get(name)
            if (
                text is None
                or text.recorder is not result.procedure_recorders[name]
                or text.entry_matrix is not entry_matrix
            ):
                text = _procedure_text(result, name)
            texts[name] = text
        self._texts = texts
        return _composed_digest(result, texts)

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
        graph = call_graph(new_program)
        dirty = dirty_seed(delta, new_program, graph)
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

        if info is None:
            info = check_program(new_program)
        # Every caller of an edited procedure is in the seed, so no other
        # procedure reaches an edit and its summary cannot have changed.
        clean = {
            name: summary for name, summary in self._summaries.items() if name not in dirty
        }
        summaries = compute_summaries(new_program, info, reuse=clean)
        result = self._solve(new_program, info, summaries, graph)
        digest = self._digest(result)
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
            digest=digest,
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
