"""Whole-program path-matrix analysis driver.

Computes, for a normalized SIL program:

* a **procedure entry matrix** for every reachable procedure — the merge of
  the projections of all its call sites, with ``h*``/``h**`` symbolic
  handles tracking the calling context of recursive procedures (Figure 7's
  ``pB``/``pC``);
* the **path matrix before and after every statement** of every reachable
  procedure (Figure 7's ``pA`` is the matrix before the first call in
  ``main``);
* the **structure diagnostics** raised by destructive updates (possible
  cycle / sharing creation);
* the per-loop iteration histories (Figure 3).

The interprocedural fixed point is solved by the worklist-driven pass
pipeline of :mod:`repro.analysis.pipeline`: a procedure is re-analyzed only
when its entry matrix absorbs a changed call-site projection, and the
recording made during each procedure's last stabilization visit is the
final one.  The abstract domain is finite (see
:mod:`repro.analysis.limits`), so this terminates.  The seed's
rounds-until-stable engine is retained as
:func:`analyze_program_reference`; the golden tests assert both produce
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..cache.backend import CacheConfig, open_backend
from ..sil import ast
from ..sil.typecheck import TypeInfo, check_program
from .context import AnalysisContext, AnalysisRecorder, AnalysisStats
from .interproc import initial_entry_matrix
from .intraproc import ProcedureAnalyzer
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .matrix import PathMatrix, canonical_document
from .pipeline import run_pipeline
from .structure import StructureDiagnostic
from .summaries import ProcedureSummary, compute_summaries
from .transfer import TransferCache


@dataclass
class AnalysisResult:
    """Everything the whole-program analysis produces.

    Recorded matrices are **shared, not owned**: with the memoized transfer
    cache, the matrix at a program point may be the very object another
    result (or a future re-analysis) sees.  Cached matrices are *sealed* —
    mutating one raises — so call ``matrix.copy()`` and mutate the copy.
    """

    program: ast.Program
    info: TypeInfo
    limits: AnalysisLimits
    summaries: Dict[str, ProcedureSummary]
    entry_matrices: Dict[str, PathMatrix]
    recorder: AnalysisRecorder
    #: Interprocedural work performed until the entry matrices stabilized —
    #: worklist pops for the pipeline engine, rounds for the reference engine.
    iterations: int = 0
    #: Work counters for this run (shared across a batch for analyze_many).
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    #: Each reachable procedure's last-visit recording, which ``recorder``
    #: assembles (empty for the reference engine).
    procedure_recorders: Dict[str, AnalysisRecorder] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def matrix_before(self, stmt: ast.Stmt) -> PathMatrix:
        """The path matrix at the program point just before ``stmt``."""
        try:
            return self.recorder.before[id(stmt)]
        except KeyError:
            raise KeyError(
                "no matrix recorded for this statement (is it part of an analyzed, "
                "reachable procedure of the analyzed program object?)"
            ) from None

    def matrix_after(self, stmt: ast.Stmt) -> PathMatrix:
        """The path matrix at the program point just after ``stmt``."""
        try:
            return self.recorder.after[id(stmt)]
        except KeyError:
            raise KeyError(
                "no matrix recorded for this statement (is it part of an analyzed, "
                "reachable procedure of the analyzed program object?)"
            ) from None

    def entry_matrix(self, procedure_name: str) -> PathMatrix:
        """The (fixed-point) entry matrix of a procedure."""
        return self.entry_matrices[procedure_name]

    def summary(self, procedure_name: str) -> ProcedureSummary:
        return self.summaries[procedure_name]

    @property
    def diagnostics(self) -> List[StructureDiagnostic]:
        """All structure diagnostics raised anywhere in the program."""
        return [diag for _, diag in self.recorder.diagnostics]

    def diagnostics_in(self, procedure_name: str) -> List[StructureDiagnostic]:
        return [diag for proc, diag in self.recorder.diagnostics if proc == procedure_name]

    def loop_history(self, stmt: ast.WhileStmt) -> List[PathMatrix]:
        """The Figure 3 iteration sequence for a ``while`` statement."""
        return self.recorder.loop_histories[id(stmt)]

    def reachable_procedures(self) -> List[str]:
        return sorted(self.entry_matrices.keys())

    # ------------------------------------------------------------------
    # Canonical (process-independent) encoding
    # ------------------------------------------------------------------

    def canonical(self) -> Dict[str, object]:
        """A canonical, JSON-able, process-independent encoding of the result.

        Matrices are keyed by procedure name and *statement position* (the
        index in :func:`repro.sil.ast.walk_stmt` order) rather than by
        ``id(stmt)``, and path sets by their exact textual rendering — so
        two analyses of the same source text produce equal encodings even
        in different processes.  The sharded suite runner ships these back
        from workers and the regression tests compare them bit-for-bit
        against single-process runs.
        """
        points = {}
        for proc_name in sorted(self.entry_matrices):
            points.update(
                canonical_points(
                    self.program.callable(proc_name),
                    self.recorder.before,
                    self.recorder.after,
                )
            )
        return {
            "program": self.program.name,
            "entry_matrices": {
                name: canonical_matrix(matrix)
                for name, matrix in sorted(self.entry_matrices.items())
            },
            "points": points,
            "diagnostics": canonical_diagnostics(self.recorder.diagnostics),
        }

    # ------------------------------------------------------------------
    # Convenience: locate statements by shape
    # ------------------------------------------------------------------

    def statements_in(self, procedure_name: str) -> List[ast.Stmt]:
        """Every recorded statement of a procedure, in recording order."""
        return [
            stmt
            for stmt_id, stmt in self.recorder.statements.items()
            if self.recorder.procedure_of[stmt_id] == procedure_name
        ]

    def point_before_call(self, procedure_name: str, callee: str, occurrence: int = 0) -> PathMatrix:
        """The matrix just before the n-th call to ``callee`` inside ``procedure_name``.

        This is how the Figure 7 benches pick out the paper's program points
        A (before ``add_n(lside, 1)`` in ``main``) and B (before the first
        recursive call inside ``add_n``).
        """
        proc = self.program.callable(procedure_name)
        count = 0
        for stmt in ast.walk_stmt(proc.body):
            if isinstance(stmt, (ast.ProcCall, ast.FuncAssign)) and stmt.name == callee:
                if count == occurrence:
                    return self.matrix_before(stmt)
                count += 1
        raise KeyError(
            f"call #{occurrence} to {callee!r} not found in procedure {procedure_name!r}"
        )


def canonical_matrix(matrix: PathMatrix) -> Dict[str, object]:
    """A canonical, JSON-able encoding of one :class:`PathMatrix`.

    Captures exactly what :meth:`PathMatrix.__eq__` compares — the tracked
    handles (in insertion order) and every non-empty entry, with path sets
    rendered via their exact textual form.  Equal encodings ⇔ equal
    matrices, across process boundaries.  A thin alias of
    :func:`repro.analysis.matrix.canonical_document`, the one definition
    of the layout this and the persistent cache codec share.
    """
    return canonical_document(matrix)


def canonical_points(
    proc: ast.Procedure,
    before: Dict[int, PathMatrix],
    after: Dict[int, PathMatrix],
) -> Dict[str, Dict[str, object]]:
    """``proc``'s recorded points in :meth:`AnalysisResult.canonical`
    form, keyed ``"<procedure>#<walk position>"``."""
    points = {}
    for index, stmt in enumerate(ast.walk_stmt(proc.body)):
        recorded_before = before.get(id(stmt))
        if recorded_before is not None:
            points[f"{proc.name}#{index}"] = {
                "before": canonical_matrix(recorded_before),
                "after": canonical_matrix(after[id(stmt)]),
            }
    return points


def canonical_diagnostics(
    diagnostics: Iterable[Tuple[str, StructureDiagnostic]]
) -> List[List[str]]:
    """Recorded diagnostics in :meth:`AnalysisResult.canonical` form, sorted."""
    return sorted(
        [proc, diag.kind.name, diag.certainty.name, diag.statement, diag.detail]
        for proc, diag in diagnostics
    )


def analyze_program(
    program: ast.Program,
    info: Optional[TypeInfo] = None,
    limits: AnalysisLimits = DEFAULT_LIMITS,
    entry: str = "main",
    context: Optional[AnalysisContext] = None,
) -> AnalysisResult:
    """Run the whole-program path-matrix analysis on a core SIL program.

    This drives the worklist pass pipeline of
    :mod:`repro.analysis.pipeline`.  Pass a pre-built
    :class:`~repro.analysis.context.AnalysisContext` to share transfer
    caches and stats across runs; otherwise a fresh context using the
    process-wide shared transfer cache is created.
    """
    if context is None:
        context = AnalysisContext(
            program=program, info=info, limits=limits, entry_name=entry
        )
    elif context.program is not program:
        raise ValueError(
            "analyze_program was given an AnalysisContext built for a "
            "different program; build one context per program (share caches "
            "via the transfer_cache/stats fields or use analyze_many)"
        )
    run_pipeline(context)
    return AnalysisResult(
        program=context.program,
        info=context.info,
        limits=context.limits,
        summaries=context.summaries,
        entry_matrices=context.entry_matrices,
        recorder=context.recorder,
        iterations=context.stats.worklist_pops,
        stats=context.stats,
        procedure_recorders=context.procedure_recorders,
    )


class BatchAnalyzer:
    """One shared memoized-transfer cache + stats, fed one program at a time.

    The single implementation of the batch-sharing contract: every batch
    entry point — :func:`analyze_many`, the workload suite's
    :func:`~repro.workloads.suite.analyze_suite`, and the sharded runner's
    workers — builds on this instead of re-threading the cache/stats/
    pops-delta bookkeeping itself.  ``result.iterations`` on each returned
    result counts only that program's worklist pops; ``result.stats`` is
    the shared batch-wide object.

    ``cache`` may name a persistent store (a :class:`~repro.cache.backend.
    CacheConfig` for the disk store under ``--cache-dir``): the batch's
    transfer cache then reads through to it — transfers computed by
    *earlier runs or other shard processes* are decoded instead of
    recomputed, with their captured widening counts replayed exactly — and
    buffers its own computed transfers as deltas.  Call :meth:`flush` (or
    :meth:`close`) when the batch is done to write them back; nothing is
    persisted implicitly.  Without ``cache`` the batch runs memory-only.

    ``transfer_cache`` attaches an *existing* :class:`TransferCache` —
    warm memoized transfers, persistent backend and all — instead of
    building a private one.  This is how a long-lived host (the analysis
    server in :mod:`repro.server`) gives every request a fresh
    :class:`AnalysisStats` while all requests share one warm cache: the
    batch then does **not** own the backend, so :meth:`close` flushes but
    leaves the backend open for the next batch.  ``cache`` is rejected
    alongside it — the attached cache already chose its backend.  Tests
    attach a :class:`~repro.cache.memory.MemoryBackend` this way.
    """

    def __init__(
        self,
        limits: AnalysisLimits = DEFAULT_LIMITS,
        entry: str = "main",
        cache: Optional[CacheConfig] = None,
        transfer_cache: Optional[TransferCache] = None,
    ):
        self.limits = limits
        self.entry = entry
        self.stats = AnalysisStats()
        #: Cross-run memo of solved call-graph components; attached by
        #: :class:`repro.analysis.reanalysis.IncrementalSession`, ``None``
        #: (no cross-run reuse) for ordinary batches.
        self.component_memo = None
        if transfer_cache is not None:
            if cache is not None:
                raise ValueError(
                    "BatchAnalyzer(transfer_cache=...) shares an existing cache; "
                    "cache would silently be ignored — attach the backend to "
                    "the shared TransferCache instead"
                )
            self.cache = transfer_cache
            self._owns_backend = False
            return
        backend = open_backend(cache) if cache is not None else None
        self.cache = TransferCache(backend=backend)
        self._owns_backend = True

    def flush(self) -> None:
        """Write computed transfer deltas to the persistent store (if any)."""
        self.cache.flush(self.stats)

    def close(self) -> None:
        """Flush deltas; release the persistent backend if this batch owns it.

        A batch attached to a shared cache (``transfer_cache=...``) leaves
        the backend open — the owning host closes it at *its* end of life.
        """
        self.flush()
        if self._owns_backend and self.cache.backend is not None:
            self.cache.backend.close()
            self.cache.backend = None

    def analyze(
        self,
        program: ast.Program,
        info: Optional[TypeInfo] = None,
        summaries: Optional[Dict[str, ProcedureSummary]] = None,
        call_graph: Optional[Dict[str, Set[str]]] = None,
    ) -> AnalysisResult:
        """Analyze one program against the batch's cache and stats.

        ``summaries`` and ``call_graph``, when given, must be this
        program's; the pipeline then skips computing them.
        """
        pops_before = self.stats.worklist_pops
        context = AnalysisContext(
            program=program,
            info=info,
            limits=self.limits,
            entry_name=self.entry,
            stats=self.stats,
            transfer_cache=self.cache,
            component_memo=self.component_memo,
            summaries=summaries,
            call_graph=call_graph,
        )
        run_pipeline(context)
        return AnalysisResult(
            program=context.program,
            info=context.info,
            limits=context.limits,
            summaries=context.summaries,
            entry_matrices=context.entry_matrices,
            recorder=context.recorder,
            iterations=self.stats.worklist_pops - pops_before,
            stats=self.stats,
            procedure_recorders=context.procedure_recorders,
        )


def analyze_many(
    programs: Iterable[Union[ast.Program, Tuple[ast.Program, Optional[TypeInfo]]]],
    limits: AnalysisLimits = DEFAULT_LIMITS,
    entry: str = "main",
) -> List[AnalysisResult]:
    """Analyze a batch of programs against one shared interned-domain context.

    The hash-consed path domain is global, so every analysis already shares
    interned :class:`Path`/:class:`PathSet` values; this entry point
    additionally shares one memoized-transfer cache and one
    :class:`~repro.analysis.context.AnalysisStats` across the whole batch
    (via :class:`BatchAnalyzer`) — the workload-suite batching used by
    :func:`repro.workloads.suite.analyze_suite`.

    ``programs`` items may be bare programs or ``(program, info)`` pairs.
    """
    batch = BatchAnalyzer(limits=limits, entry=entry)
    results: List[AnalysisResult] = []
    for item in programs:
        program, info = item if isinstance(item, tuple) else (item, None)
        results.append(batch.analyze(program, info))
    return results


def analyze_program_reference(
    program: ast.Program,
    info: Optional[TypeInfo] = None,
    limits: AnalysisLimits = DEFAULT_LIMITS,
    entry: str = "main",
) -> AnalysisResult:
    """The seed's rounds-until-stable engine, kept as a golden reference.

    Every interprocedural round re-analyzes every reachable procedure from
    its current entry matrix; once nothing changes, one extra full pass
    records the program points.  No caches, no worklist — this is the
    paper-literal formulation the golden tests compare the pipeline engine
    against (``result.iterations`` counts rounds here, so the seed's
    rounds x procedures work bound is ``iterations * len(entry_matrices)``).
    """
    if not ast.program_is_core(program):
        raise ValueError(
            "the analysis requires a normalized (core) program; "
            "run repro.sil.normalize.normalize_program first"
        )
    if info is None:
        info = check_program(program)
    summaries = compute_summaries(program, info)

    entry_proc = program.callable(entry)
    entries: Dict[str, PathMatrix] = {entry_proc.name: initial_entry_matrix(entry_proc, limits)}

    iterations = 0
    max_rounds = max(8, 4 * len(program.all_callables)) * limits.max_iterations
    while True:
        iterations += 1
        scratch = AnalysisRecorder()
        analyzer = ProcedureAnalyzer(program, info, summaries, limits, scratch)
        for name, entry_matrix in list(entries.items()):
            analyzer.analyze_procedure(program.callable(name), entry_matrix)

        changed = False
        for callee, projected in scratch.call_sites:
            current = entries.get(callee)
            if current is None:
                callee_proc = program.callable(callee)
                base = initial_entry_matrix(callee_proc, limits)
                merged = base.merge(projected)
            else:
                merged = current.merge(projected)
            if current is None or merged != current:
                entries[callee] = merged
                changed = True
        if not changed:
            break
        if iterations >= max_rounds:  # pragma: no cover - safety net
            break

    # Final recording pass with the stabilized entry matrices.
    recorder = AnalysisRecorder()
    analyzer = ProcedureAnalyzer(program, info, summaries, limits, recorder)
    for name, entry_matrix in entries.items():
        analyzer.analyze_procedure(program.callable(name), entry_matrix)

    return AnalysisResult(
        program=program,
        info=info,
        limits=limits,
        summaries=summaries,
        entry_matrices=entries,
        recorder=recorder,
        iterations=iterations,
    )
