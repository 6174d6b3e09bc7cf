"""The staged pass pipeline behind :func:`repro.analysis.analyze_program`.

The whole-program analysis is organised as a short sequence of passes over
one :class:`~repro.analysis.context.AnalysisContext`:

1. **validate** — require a normalized (core) program;
2. **typecheck** — compute :class:`~repro.sil.typecheck.TypeInfo` unless the
   caller already supplied it;
3. **summaries** — the flow-insensitive read/update summaries of Section 5.2;
4. **solve** — the worklist-driven interprocedural fixed point (below);
5. **assemble** — stitch the final per-procedure recordings into one
   :class:`~repro.analysis.context.AnalysisRecorder`.

**The worklist solver.**  The seed engine re-analyzed *every* reachable
procedure on *every* interprocedural round and then ran one more full
recording pass once the entry matrices had stabilized.  The solver here
tracks entry-matrix dirtiness instead: a procedure is (re-)analyzed only
when it is discovered or its entry matrix absorbs a changed call-site
projection.  Because procedure summaries are fixed before the fixed point
starts, a procedure's recorded program points depend only on its own entry
matrix — so the recording made during a procedure's *last* visit is already
the final one, and no extra recording pass is needed.  Entry matrices grow
by the same commutative/associative merge the seed used, so the solved
fixed point is identical (the golden tests compare against the retained
reference engine).

**Incremental, delta-driven propagation.**  Entry matrices and call-site
projections are hash-consed (:meth:`~repro.analysis.matrix.PathMatrix.
interned`), which makes three things pointer checks instead of
canonical-encoding walks:

* a projection *identical* to one this callee already absorbed is skipped
  outright (``full_joins_avoided``) — merging it again is a no-op because
  the entry merge is idempotent;
* a genuinely new projection is absorbed row-wise via
  :meth:`~repro.analysis.matrix.PathMatrix.merge_delta`: unchanged rows
  are reused by reference, and the worklist carries only the *delta* —
  the set of entry rows changed since the callee's last visit
  (``delta_rows_propagated``, vs the ``full_rows_propagated`` a
  non-incremental engine would rewrite);
* "did the entry matrix change?" is ``merged is not current``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Set, Tuple

from ..obs.trace import span
from ..sil import ast
from ..sil.typecheck import check_program
from .context import AnalysisContext, AnalysisRecorder
from .interproc import initial_entry_matrix
from .intraproc import ProcedureAnalyzer
from .matrix import PathMatrix
from .paths import packed_segment_ops
from .summaries import compute_summaries
from .telemetry import widening_scope

#: A pass is just a named callable over the context.
AnalysisPass = Callable[[AnalysisContext], None]


def validate_pass(context: AnalysisContext) -> None:
    """Reject surface programs; the analysis needs core (normalized) SIL."""
    if not ast.program_is_core(context.program):
        raise ValueError(
            "the analysis requires a normalized (core) program; "
            "run repro.sil.normalize.normalize_program first"
        )


def typecheck_pass(context: AnalysisContext) -> None:
    """Ensure the context carries type information."""
    if context.info is None:
        context.info = check_program(context.program)


def summaries_pass(context: AnalysisContext) -> None:
    """Compute the per-procedure read/update summaries once, up front."""
    if context.summaries is None:
        context.summaries = compute_summaries(context.program, context.info)


def solve_pass(context: AnalysisContext) -> None:
    """Worklist-driven interprocedural fixed point with last-visit recording.

    Invariants:

    * ``entries[p]`` only ever changes by merging in a call-site projection
      (monotone accumulation, exactly as the seed's rounds did), and is
      always the canonical *interned* instance of its contents, so the
      convergence test is a pointer check;
    * a procedure is queued whenever its entry matrix changes, so the last
      ``ProcedureAnalyzer`` visit of every procedure used its final entry
      matrix — its recording *is* the fixed-point recording;
    * the merge is idempotent, so a projection identical (by interned
      object) to one already absorbed by the callee can be skipped without
      touching the entry matrix — the frequent case once the recursive
      projections stabilize;
    * ``pending_rows[p]`` is the delta this visit of ``p`` propagates: the
      union of the entry rows changed since ``p``'s previous visit.
    """
    program = context.program
    limits = context.limits
    stats = context.stats

    entry_proc = program.callable(context.entry_name)
    entries = {entry_proc.name: initial_entry_matrix(entry_proc, limits).interned()}
    last_visit = context.procedure_recorders
    last_visit.clear()

    pending = deque([entry_proc.name])
    queued = {entry_proc.name}
    #: Interned projections each callee's entry matrix has already absorbed.
    absorbed: Dict[str, Set[PathMatrix]] = {}
    #: Entry rows changed since each queued procedure's last visit.
    pending_rows: Dict[str, Set[str]] = {
        entry_proc.name: set(entries[entry_proc.name].iter_handles())
    }
    # Safety net mirroring the seed's bound: rounds x procedures.  The bound
    # is per *program*, but the stats object may be shared across a whole
    # batch — compare against this run's pop delta, not the cumulative count.
    pops_at_start = stats.worklist_pops
    max_pops = max(8, 4 * len(program.all_callables)) * limits.max_iterations * max(
        1, len(program.all_callables)
    )

    memo = context.visit_memo

    while pending:
        name = pending.popleft()
        queued.discard(name)
        delta = pending_rows.pop(name, None)
        stats.worklist_pops += 1

        # Cross-run reuse: a visit recording is a pure function of the
        # procedure body, the (interned) entry matrix, the limits and the
        # direct callees' summaries — and the memo is invalidated along
        # reverse call edges whenever any of those could have changed (see
        # repro.analysis.reanalysis).  A hit replays the visit by pointer:
        # same recorder, same call-site projections, and the widening
        # counters the original visit advanced are re-applied so warm
        # telemetry is bit-identical to a cold solve.
        visit = None
        if memo is not None:
            cached = memo.get(name, limits, entries[name])
            if cached is not None:
                visit, widening_delta = cached
                visit.entry_delta = frozenset(delta) if delta is not None else None
                stats.summaries_reused += 1
                for counter, amount in widening_delta.items():
                    setattr(stats, counter, getattr(stats, counter) + amount)
        if visit is None:
            visit = AnalysisRecorder()
            visit.entry_delta = frozenset(delta) if delta is not None else None
            if memo is not None:
                widening_before = stats.widening_counters()
            analyzer = ProcedureAnalyzer(
                program, context.info, context.summaries, limits, visit, context=context
            )
            with span("solve.visit", {"procedure": name}):
                analyzer.analyze_procedure(program.callable(name), entries[name])
            if memo is not None:
                widening_delta = {
                    counter: getattr(stats, counter) - widening_before[counter]
                    for counter in stats.WIDENING_FIELDS
                }
                memo.put(name, limits, entries[name], visit, widening_delta)
        last_visit[name] = visit

        for callee, projected in visit.call_sites:
            projected = projected.interned()
            seen = absorbed.setdefault(callee, set())
            if projected in seen:
                # Pointer-identical to an already-absorbed projection: the
                # idempotent entry merge would change nothing.
                stats.full_joins_avoided += 1
                continue
            current = entries.get(callee)
            if current is None:
                base = initial_entry_matrix(program.callable(callee), limits)
                merged, changed = base.merge_delta(projected)
                # A freshly-discovered procedure propagates its whole entry.
                changed = tuple(merged.iter_handles())
            else:
                merged, changed = current.merge_delta(projected)
            merged = merged.interned()
            seen.add(projected)
            if current is None or merged is not current:
                entries[callee] = merged
                stats.entry_updates += 1
                stats.delta_rows_propagated += len(changed)
                stats.full_rows_propagated += len(merged.iter_handles())
                pending_rows.setdefault(callee, set()).update(changed)
                if callee not in queued:
                    queued.add(callee)
                    pending.append(callee)
        if pending and stats.worklist_pops - pops_at_start >= max_pops:  # pragma: no cover - safety net
            stats.iteration_guard_trips += 1
            break

    context.entry_matrices = entries


def assemble_pass(context: AnalysisContext) -> None:
    """Stitch each procedure's last-visit recording into the final recorder.

    Procedures are visited in entry-matrix discovery order (the same order
    the seed's final recording pass used), so diagnostics and statement
    enumeration order are preserved.
    """
    final = AnalysisRecorder()
    for name in context.entry_matrices:
        visit = context.procedure_recorders.get(name)
        if visit is not None:
            final.absorb(visit)
    context.recorder = final
    context.stats.programs_analyzed += 1


#: The default pipeline, in execution order.
PIPELINE: Tuple[Tuple[str, AnalysisPass], ...] = (
    ("validate", validate_pass),
    ("typecheck", typecheck_pass),
    ("summaries", summaries_pass),
    ("solve", solve_pass),
    ("assemble", assemble_pass),
)


def run_pipeline(context: AnalysisContext) -> AnalysisContext:
    """Run the standard pass sequence over ``context`` and return it.

    The whole run executes under a widening-telemetry scope bound to the
    context's stats: domain widenings outside the memoized transfer layer
    (entry-matrix projections, control-flow merges, loop fixed points)
    land directly on ``context.stats``; widenings inside a transfer
    computation are captured per cache entry and folded in exactly once
    per application (see :func:`repro.analysis.transfer.
    apply_basic_statement_cached`).
    """
    # Statement identities are rendered per run: a context handed back to
    # analyze_program may hold a program edited in place since its last run.
    context.statement_identities.clear()
    allocated_before = PathMatrix.allocations
    intern_hits_before = PathMatrix.intern_hits
    packed_ops_before = packed_segment_ops()
    with widening_scope(context.stats):
        for name, analysis_pass in PIPELINE:
            with span(f"analysis.{name}"):
                analysis_pass(context)
    context.stats.matrices_allocated += PathMatrix.allocations - allocated_before
    context.stats.matrix_intern_hits += PathMatrix.intern_hits - intern_hits_before
    context.stats.packed_segment_ops += packed_segment_ops() - packed_ops_before
    return context


def pass_names() -> List[str]:
    """The pipeline stages, in order (for docs and debugging)."""
    return [name for name, _ in PIPELINE]
