"""Shared state of one whole-program analysis run.

The analysis used to be a tangle of positional arguments (program, type
info, summaries, limits, recorder) threaded through every layer.  This
module centralizes that state:

* :class:`AnalysisStats` — cheap counters describing how much work the
  engine actually did (worklist pops, transfer-cache hits, matrices
  allocated, ...).  Exposed on every
  :class:`~repro.analysis.engine.AnalysisResult` and printed by the
  benchmark suite.
* :class:`AnalysisRecorder` — everything the engine keeps per program point
  (before/after matrices, diagnostics, loop histories, call-site
  projections).
* :class:`AnalysisContext` — the mutable bag the pass pipeline
  (:mod:`repro.analysis.pipeline`) operates on.  A context owns (or shares)
  the memoized-transfer cache; the hash-consed path domain
  (:mod:`repro.analysis.paths` / :mod:`repro.analysis.pathset`) is global
  by construction, so every context automatically shares interned domain
  values with every other.

Batch analyses (:func:`repro.analysis.engine.analyze_many`) create one
:class:`TransferCache` and hand it to each per-program context, so a whole
workload suite shares one memoization space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..sil import ast
from ..sil.delta import StatementIdentity, statement_identity
from ..sil.typecheck import TypeInfo
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .matrix import PathMatrix
from .symbols import GLOBAL_SYMBOLS, SymbolTable
from .structure import StructureDiagnostic
from .summaries import ProcedureSummary
from .transfer import GLOBAL_TRANSFER_CACHE, TransferCache

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from .reanalysis import ComponentMemo


@dataclass
class AnalysisStats:
    """Work counters for one analysis run (or one shared batch).

    ``transfer_cache_hits`` / ``transfer_cache_misses`` count memoized
    transfer-function lookups; hits include hits against results cached by
    *earlier* runs when the process-wide shared cache is used.

    Stats are additive: :meth:`merge` sums counters across runs, which is
    how the sharded suite runner (:mod:`repro.workloads.suite`) folds
    per-shard stats — reconstructed from worker snapshots via
    :meth:`from_dict` — into one suite-wide total.
    """

    #: Procedures popped off the interprocedural worklist (re-analyses).
    worklist_pops: int = 0
    #: Entry matrices that changed when a call-site projection was merged in.
    entry_updates: int = 0
    #: Statements visited by the intraprocedural analyzer (recording visits).
    statements_visited: int = 0
    #: Iterations spent in ``while``-loop fixed points.
    loop_iterations: int = 0
    #: Memoized transfer applications answered from the cache (either tier).
    transfer_cache_hits: int = 0
    #: Memoized transfer applications that had to compute.
    transfer_cache_misses: int = 0
    #: Entries evicted from the in-memory transfer-cache layer.
    transfer_cache_evictions: int = 0
    #: In-memory misses answered by the persistent backend (cross-run/shard
    #: hits; also counted in ``transfer_cache_hits``).
    persistent_cache_hits: int = 0
    #: In-memory misses the persistent backend could not answer either.
    persistent_cache_misses: int = 0
    #: Computed transfers newly admitted to the persistent store at flush.
    persistent_cache_writes: int = 0
    #: Entries the persistent store evicted to stay under its capacity.
    persistent_cache_evictions: int = 0
    #: Path matrices allocated while this context was active, including
    #: the join and call-effect results recomputed at every visit.
    matrices_allocated: int = 0
    #: :meth:`PathMatrix.interned` lookups answered from the intern table —
    #: a previously-seen matrix was recognised by a pointer check.
    matrix_intern_hits: int = 0
    #: Rows whose contents actually changed across transfer applications
    #: and entry-matrix absorptions — the row writes any engine must
    #: perform no matter how it is implemented.
    delta_rows_propagated: int = 0
    #: Rows a full re-propagation rewrites at the same program points (the
    #: whole matrix dimension per operation).  The gap between ``delta``
    #: and ``full`` is what the row-reuse/interning layer turns into
    #: pointer copies; the CI bench requires a *strict* gap on the
    #: widening-heavy dag/deep families, which fails if the delta path
    #: ever degenerates into every row changing at every operation.
    full_rows_propagated: int = 0
    #: Whole-matrix joins the solver skipped because the projected call-site
    #: matrix was *identical* (same interned object) to one already absorbed
    #: into the callee's entry matrix.
    full_joins_avoided: int = 0
    #: Programs analyzed against this stats object (one, unless batched).
    programs_analyzed: int = 0
    #: Paths whose tail collapsed into a ``D`` segment (``max_segments``).
    segment_collapses: int = 0
    #: Exact repetition counts widened to open-ended (``max_exact_count``).
    exact_widenings: int = 0
    #: Oversized path-matrix entries collapsed (``max_paths_per_entry``).
    path_set_collapses: int = 0
    #: Times a fixed-point safety net (``max_iterations`` loop bound or the
    #: solver's pop bound) forced a cutoff instead of natural convergence.
    iteration_guard_trips: int = 0
    #: Computed results — transfer misses, joins and call effects — kept in
    #: scratch (sealed-not-interned) form instead of being eagerly
    #: hash-consed — the lazy-interning win.
    scratch_matrices_elided: int = 0
    #: Transfer-memo lookups whose input matrix was *not* interned — each
    #: one is an intern the eager scheme would have paid on the cold path
    #: and the lazy scheme deferred.  Joins and calls build no memo key, so
    #: they are not counted.
    lazy_intern_deferrals: int = 0
    #: Packed-segment integer operations executed by the path kernels
    #: (normalization, concat, cancellation) while this context was active.
    #: Unlike the other counters this one depends on process history: a
    #: path-set op memo hit skips the normalizations inside the op, and
    #: skipped ones are never counted, so a process whose memos are warm
    #: reads lower.  That is why ``benchmarks/work_counters.py`` writes the
    #: exact counter file from a fresh interpreter.
    packed_segment_ops: int = 0
    #: Worklist pops a re-analysis skipped: the pops of every call-graph
    #: component adopted from the cross-run component memo because its
    #: members' entry matrices (and the limits) matched a previous solve
    #: (see :mod:`repro.analysis.reanalysis`).  ``worklist_pops +
    #: summaries_reused`` of a re-analysis equals a cold solve's pops.
    summaries_reused: int = 0
    #: Memoized components dropped by delta-driven invalidation before a
    #: re-analysis (those holding a dirty or removed procedure).
    summaries_invalidated: int = 0
    #: Size of the dirty seed a re-analysis started from: directly-edited
    #: procedures plus their reverse-call-graph dependents.
    dirty_seed_size: int = 0

    #: The additive counter fields, in ``as_dict`` order.  Derived values
    #: (the hit rates) are excluded.
    COUNTER_FIELDS = (
        "worklist_pops",
        "entry_updates",
        "statements_visited",
        "loop_iterations",
        "transfer_cache_hits",
        "transfer_cache_misses",
        "transfer_cache_evictions",
        "persistent_cache_hits",
        "persistent_cache_misses",
        "persistent_cache_writes",
        "persistent_cache_evictions",
        "matrices_allocated",
        "matrix_intern_hits",
        "delta_rows_propagated",
        "full_rows_propagated",
        "full_joins_avoided",
        "programs_analyzed",
        "segment_collapses",
        "exact_widenings",
        "path_set_collapses",
        "iteration_guard_trips",
        "scratch_matrices_elided",
        "lazy_intern_deferrals",
        "packed_segment_ops",
        "summaries_reused",
        "summaries_invalidated",
        "dirty_seed_size",
    )

    #: The widening-telemetry subset of :data:`COUNTER_FIELDS` — the
    #: counters that say whether a run's bounds bit.
    WIDENING_FIELDS = (
        "segment_collapses",
        "exact_widenings",
        "path_set_collapses",
        "iteration_guard_trips",
    )

    @property
    def transfer_cache_requests(self) -> int:
        return self.transfer_cache_hits + self.transfer_cache_misses

    @property
    def transfer_cache_hit_rate(self) -> float:
        """Fraction of transfer applications answered from the cache."""
        requests = self.transfer_cache_requests
        return self.transfer_cache_hits / requests if requests else 0.0

    @property
    def persistent_cache_requests(self) -> int:
        """In-memory misses that consulted the persistent backend."""
        return self.persistent_cache_hits + self.persistent_cache_misses

    @property
    def persistent_cache_hit_rate(self) -> float:
        """Fraction of backend consultations answered from the store.

        This is the warm-start signal: a cold run over an empty store reads
        0.0, a warm rerun of the same population approaches 1.0.  Zero when
        no persistent backend was attached.
        """
        requests = self.persistent_cache_requests
        return self.persistent_cache_hits / requests if requests else 0.0

    def widening_counters(self) -> Dict[str, int]:
        """The widening-telemetry counters only (per-workload deltas, benches)."""
        return {name: getattr(self, name) for name in self.WIDENING_FIELDS}

    def widening_fired(self, since: Optional[Dict[str, int]] = None) -> bool:
        """Did any widening counter advance (since a ``widening_counters`` snapshot)?"""
        baseline = since or {}
        return any(
            getattr(self, name) > baseline.get(name, 0) for name in self.WIDENING_FIELDS
        )

    def counters(self) -> Dict[str, int]:
        """Just the additive counters, without the derived hit rates."""
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def as_dict(self) -> Dict[str, float]:
        """A plain-JSON-able snapshot: the counters plus the two hit rates.

        Per-run values only.  The process-global intern-table sizes are
        process state, reported where a process is: the daemon's
        ``cache_stats.intern_tables`` and the shards' ``intern_tables``
        growth.
        """
        snapshot: Dict[str, float] = dict(self.counters())
        snapshot["transfer_cache_hit_rate"] = round(self.transfer_cache_hit_rate, 4)
        snapshot["persistent_cache_hit_rate"] = round(self.persistent_cache_hit_rate, 4)
        return snapshot

    @classmethod
    def from_dict(cls, snapshot: Dict[str, float]) -> "AnalysisStats":
        """Rebuild stats from an :meth:`as_dict` snapshot.

        Derived values in the snapshot are ignored — they are recomputed on
        the receiving side.  This is how shard workers ship their counters
        back across process boundaries.
        """
        return cls(**{name: int(snapshot.get(name, 0)) for name in cls.COUNTER_FIELDS})

    def merge(self, *others: "AnalysisStats") -> "AnalysisStats":
        """A new stats object with counters summed across ``self`` and ``others``.

        Addition is exact for every counter (they count disjoint work), so
        merging per-shard stats reproduces what a single shared-stats run
        over the union of the shards' programs would have counted — minus
        cross-shard transfer-cache hits, which show up as extra misses.
        """
        merged = AnalysisStats()
        for source in (self, *others):
            for name in self.COUNTER_FIELDS:
                setattr(merged, name, getattr(merged, name) + getattr(source, name))
        return merged

    def format(self) -> str:
        """One-per-line human-readable rendering (benchmark banners)."""
        return "\n".join(f"{key:28s} {value}" for key, value in self.as_dict().items())


@dataclass
class AnalysisRecorder:
    """Collects everything the whole-program engine wants to keep."""

    #: Path matrix before each statement, keyed by ``id(stmt)``.
    before: Dict[int, PathMatrix] = field(default_factory=dict)
    #: Path matrix after each statement, keyed by ``id(stmt)``.
    after: Dict[int, PathMatrix] = field(default_factory=dict)
    #: The statement objects themselves (so ids can be resolved later).
    statements: Dict[int, ast.Stmt] = field(default_factory=dict)
    #: Which procedure each recorded statement belongs to.
    procedure_of: Dict[int, str] = field(default_factory=dict)
    #: Structure diagnostics, with the owning procedure name.
    diagnostics: List[Tuple[str, StructureDiagnostic]] = field(default_factory=list)
    #: Projected entry matrices observed at call sites: (callee, matrix).
    call_sites: List[Tuple[str, PathMatrix]] = field(default_factory=list)
    #: Iteration history of each while loop, keyed by ``id(stmt)``.
    loop_histories: Dict[int, List[PathMatrix]] = field(default_factory=dict)

    def record_point(
        self, proc_name: str, stmt: ast.Stmt, before: PathMatrix, after: PathMatrix
    ) -> None:
        self.before[id(stmt)] = before
        self.after[id(stmt)] = after
        self.statements[id(stmt)] = stmt
        self.procedure_of[id(stmt)] = proc_name

    def record_diagnostics(
        self, proc_name: str, diagnostics: List[StructureDiagnostic]
    ) -> None:
        for diagnostic in diagnostics:
            self.diagnostics.append(
                (
                    proc_name,
                    StructureDiagnostic(
                        kind=diagnostic.kind,
                        certainty=diagnostic.certainty,
                        statement=diagnostic.statement,
                        detail=diagnostic.detail,
                        procedure=proc_name,
                    ),
                )
            )

    def record_call_site(self, callee: str, projected: PathMatrix) -> None:
        self.call_sites.append((callee, projected))

    def record_loop(self, stmt: ast.Stmt, history: List[PathMatrix]) -> None:
        self.loop_histories[id(stmt)] = history

    def absorb(self, other: "AnalysisRecorder") -> None:
        """Fold another recorder's observations into this one.

        Used by the worklist solver to assemble the final program-point
        recording from each procedure's *last* stabilization visit.
        """
        self.before.update(other.before)
        self.after.update(other.after)
        self.statements.update(other.statements)
        self.procedure_of.update(other.procedure_of)
        self.diagnostics.extend(other.diagnostics)
        self.call_sites.extend(other.call_sites)
        self.loop_histories.update(other.loop_histories)


@dataclass
class AnalysisContext:
    """Everything one run of the pass pipeline reads and writes.

    Construct with at least ``program``; the pipeline passes fill in the
    rest (``info``, ``summaries``, ``entry_matrices``, ``recorder``).  Pass
    an explicit ``transfer_cache`` to share memoized transfers across
    several contexts (see :func:`repro.analysis.engine.analyze_many`);
    leave it ``None`` to use the process-wide shared cache.
    """

    program: ast.Program
    info: Optional[TypeInfo] = None
    limits: AnalysisLimits = DEFAULT_LIMITS
    entry_name: str = "main"
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    transfer_cache: Optional[TransferCache] = None
    #: The handle symbol table behind the packed matrix layer.  Defaults to
    #: (and in practice always is) the process-wide table — interned rows
    #: carry masks built from its ids and are shared across contexts, so
    #: every context must agree on id assignment.  Exposed here so analysis
    #: layers can reach it without importing :mod:`repro.analysis.symbols`.
    symbols: SymbolTable = field(default_factory=lambda: GLOBAL_SYMBOLS)

    #: Cross-run memo of solved call-graph components, keyed by
    #: ``(members, limits, entry matrices when the component's level
    #: starts)``.  ``None`` (the default) disables cross-run reuse entirely;
    #: :class:`repro.analysis.reanalysis.IncrementalSession` threads one memo
    #: through successive solves of edited program versions.
    component_memo: Optional["ComponentMemo"] = None
    #: ``caller -> {callees}`` of :attr:`program`
    #: (:func:`repro.sil.delta.call_graph`), built by the solve when
    #: ``None``; a caller that already built it for this program passes it.
    call_graph: Optional[Dict[str, Set[str]]] = None
    #: ``id(stmt) -> statement_identity(stmt)`` for the statements this run
    #: has analyzed, so each is rendered once per run (the transfer-cache
    #: key and the persistent key both use it).
    #: Per context on purpose: an identity cached on the AST node would go
    #: stale when a caller mutates the node between runs.
    statement_identities: Dict[int, StatementIdentity] = field(default_factory=dict)

    # Filled by the pipeline passes.
    summaries: Optional[Dict[str, ProcedureSummary]] = None
    entry_matrices: Dict[str, PathMatrix] = field(default_factory=dict)
    procedure_recorders: Dict[str, AnalysisRecorder] = field(default_factory=dict)
    recorder: Optional[AnalysisRecorder] = None

    def __post_init__(self) -> None:
        if self.transfer_cache is None:
            self.transfer_cache = GLOBAL_TRANSFER_CACHE

    def identity_of(self, stmt: ast.Stmt) -> StatementIdentity:
        """``stmt``'s :func:`~repro.sil.delta.statement_identity`, rendered
        at most once per run (see :attr:`statement_identities`)."""
        identity = self.statement_identities.get(id(stmt))
        if identity is None:
            identity = self.statement_identities[id(stmt)] = statement_identity(stmt)
        return identity
