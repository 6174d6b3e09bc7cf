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

**The solver.**  The seed engine re-analyzed *every* reachable procedure
on *every* interprocedural round and then ran one more full recording pass
once the entry matrices had stabilized.  The solver here orders the
strongly connected components of the static call graph by call depth from
the entry procedure (the longest path in the component DAG, so every call
between two components goes strictly deeper) and solves one depth level at
a time:

* a level runs one FIFO worklist over its components' members; a procedure
  is (re-)analyzed only when it is discovered or its entry matrix absorbs a
  changed projection from a call site in its own component;
* projections into deeper components are held until the level ends and
  then merged in the order they were emitted, so a component's entry
  matrices are final when its level starts;
* because procedure summaries are fixed before the solve starts, a
  procedure's recorded program points depend only on its own entry matrix,
  so the recording made during its *last* visit is the final one.

Entry matrices grow by the same merge the seed used, so the solved fixed
point is the seed's (the golden tests compare against the retained
reference engine).

**Component reuse.**  A solved component is a pure function of its
members' bodies, the limits, its members' entry matrices when its level
starts and its callees' summaries.  An
:class:`~repro.analysis.reanalysis.IncrementalSession` passes a
:class:`~repro.analysis.reanalysis.ComponentMemo` keyed on the middle two;
the session drops every component whose members an edit touched, directly
or through a callee's summary.  A hit adopts the stored entry matrices,
recorders and emitted projections without popping, replays the widening
counters, and counts the skipped pops in ``summaries_reused``.

**Row-delta propagation.**  Entry matrices and call-site projections are
sealed (:meth:`~repro.analysis.matrix.PathMatrix.seal`), so they hash in
O(1) from a cached fingerprint of interned rows and compare by value:

* a projection *equal* to one this callee already absorbed is skipped
  outright (``full_joins_avoided``) — merging it again is a no-op because
  the entry merge is idempotent;
* a genuinely new projection is absorbed row-wise via
  :meth:`~repro.analysis.matrix.PathMatrix.merge_delta`: unchanged rows
  are reused by reference (``delta_rows_propagated`` counts the changed
  rows, ``full_rows_propagated`` the rows a non-incremental engine would
  rewrite);
* "did the entry matrix change?" is "did the merge change a row?": the
  merge keeps the entry's handle order and appends new handles, so an
  empty delta means the merged contents equal the entry's.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..obs.trace import span
from ..sil import ast
from ..sil.delta import call_graph
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


#: A component of the call graph: its member names, sorted.
Component = Tuple[str, ...]

#: Where a projection was emitted in a level's FIFO order: ``(generation,
#: path, call site)``.  A level's first pops have the path ``(rank,)``, their
#: order of arrival; a procedure queued by call site ``i`` of the pop with
#: path ``p`` gets the path ``p + (i,)``.  A FIFO pops in ``(len(path),
#: path)`` order, so sorting on these keys restores the order of a level
#: that never ran some of its components.
EmitKey = Tuple[int, Tuple[int, ...], int]


def component_levels(
    graph: Dict[str, Set[str]], entry: str
) -> Tuple[Dict[str, Component], Dict[str, int]]:
    """The components reachable from ``entry`` and their call depths.

    Returns ``(component_of, level_of)`` over every procedure reachable
    from ``entry``.  A procedure's level is the length of the longest path
    from ``entry``'s component to its own in the component DAG, so every
    call between two components goes from a lower level to a higher one.
    Tarjan's algorithm, iterative so deep call chains need no recursion.
    """
    index: Dict[str, int] = {entry: 0}
    low: Dict[str, int] = {entry: 0}
    stack: List[str] = [entry]
    on_stack: Set[str] = {entry}
    found: List[Component] = []  # callees before their callers
    work = [(entry, iter(graph.get(entry, ())))]
    while work:
        name, callees = work[-1]
        for callee in callees:
            if callee not in index:
                index[callee] = low[callee] = len(index)
                stack.append(callee)
                on_stack.add(callee)
                work.append((callee, iter(graph.get(callee, ()))))
                break
            if callee in on_stack:
                low[name] = min(low[name], index[callee])
        else:
            work.pop()
            if work:
                caller = work[-1][0]
                low[caller] = min(low[caller], low[name])
            if low[name] == index[name]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    if member == name:
                        break
                found.append(tuple(sorted(members)))

    component_of = {member: component for component in found for member in component}
    depth = {component: 0 for component in found}
    for component in reversed(found):  # callers before callees
        below = depth[component] + 1
        for member in component:
            for callee in graph.get(member, ()):
                target = component_of[callee]
                if target is not component and depth[target] < below:
                    depth[target] = below
    level_of = {member: depth[component_of[member]] for member in component_of}
    return component_of, level_of


class SolvedComponent:
    """What solving one component produced, as a :class:`~repro.analysis.
    reanalysis.ComponentMemo` stores it.

    ``ranks`` are the arrival ranks the component's first pops had in their
    level; the keys in ``emitted`` and ``discovered`` use them, and a level
    that adopts the component maps them onto its own ranks.
    """

    __slots__ = ("ranks", "entries", "recorders", "emitted", "discovered", "widening", "pops")

    def __init__(self, ranks: Tuple[int, ...]) -> None:
        self.ranks = ranks
        #: The members' final entry matrices and last-visit recorders.
        self.entries: Dict[str, PathMatrix] = {}
        self.recorders: Dict[str, AnalysisRecorder] = {}
        #: Projections into deeper components, in emission order.
        self.emitted: List[Tuple[EmitKey, str, PathMatrix]] = []
        #: Members first reached from inside the component.
        self.discovered: List[Tuple[EmitKey, str]] = []
        self.widening: Dict[str, int] = {}
        self.pops = 0


def _rekey(key: EmitKey, ranks: Dict[int, int]) -> EmitKey:
    generation, path, site = key
    return (generation, (ranks[path[0]],) + path[1:], site)


def solve_pass(context: AnalysisContext) -> None:
    """Level-ordered interprocedural fixed point with last-visit recording.

    Invariants:

    * ``entries[p]`` only ever changes by merging in a call-site projection
      (monotone accumulation, exactly as the seed's rounds did), is always
      sealed, and changes exactly when the merge reports a changed row;
    * a procedure is queued whenever its entry matrix changes, so the last
      ``ProcedureAnalyzer`` visit of every procedure used its final entry
      matrix — its recording *is* the fixed-point recording;
    * no projection reaches a component after its level starts, so the
      entry matrices at that moment, the limits and the bodies decide
      everything the component's solve does;
    * the merge is idempotent, so a projection equal to one already
      absorbed by the callee can be skipped without touching the entry
      matrix.
    """
    program = context.program
    limits = context.limits
    stats = context.stats
    memo = context.component_memo

    entry_proc = program.callable(context.entry_name)
    graph = context.call_graph
    if graph is None:
        graph = call_graph(program)
    component_of, level_of = component_levels(graph, entry_proc.name)

    entries = {entry_proc.name: initial_entry_matrix(entry_proc, limits).seal()}
    #: Reachable procedures in the order their entry matrices appeared.
    discovered = [entry_proc.name]
    #: Per level, its procedures in the order their entry matrices appeared.
    arrivals: List[List[str]] = [[] for _ in range(max(level_of.values()) + 1)]
    arrivals[0].append(entry_proc.name)
    last_visit = context.procedure_recorders
    last_visit.clear()
    #: Projections each callee's entry matrix has already absorbed.
    absorbed: Dict[str, Set[PathMatrix]] = {}
    # Safety net mirroring the seed's bound: rounds x procedures.  The bound
    # is per *program*, but the stats object may be shared across a whole
    # batch — compare against this run's pop delta, not the cumulative count.
    pops_at_start = stats.worklist_pops
    max_pops = max(8, 4 * len(program.all_callables)) * limits.max_iterations * max(
        1, len(program.all_callables)
    )

    def absorb(callee: str, projected: PathMatrix) -> Tuple[bool, bool]:
        """Merge ``projected`` into ``callee``'s entry: (changed, discovered)."""
        seen = absorbed.setdefault(callee, set())
        if projected in seen:
            # Equal to an already-absorbed projection: the idempotent entry
            # merge would change nothing.
            stats.full_joins_avoided += 1
            return False, False
        seen.add(projected)
        current = entries.get(callee)
        if current is None:
            base = initial_entry_matrix(program.callable(callee), limits)
            merged, changed = base.merge_delta(projected)
            # A freshly-discovered procedure propagates its whole entry.
            changed = tuple(merged.iter_handles())
        else:
            merged, changed = current.merge_delta(projected)
            if not changed:
                return False, False
        entries[callee] = merged.seal()
        stats.entry_updates += 1
        stats.delta_rows_propagated += len(changed)
        stats.full_rows_propagated += len(merged.iter_handles())
        return True, current is None

    tripped = False
    for level in arrivals:
        if tripped:
            break
        if not level:
            continue
        rank = {name: position for position, name in enumerate(level)}
        starters: Dict[Component, List[str]] = {}
        for name in level:
            starters.setdefault(component_of[name], []).append(name)
        #: Components solved here; the record is None without a memo.
        live: Dict[Component, Optional[SolvedComponent]] = {}
        keys: Dict[Component, tuple] = {}
        found: List[Tuple[EmitKey, str]] = []
        deferred: List[Tuple[EmitKey, str, PathMatrix]] = []
        adopted = False
        for component, names in starters.items():
            if memo is None:
                live[component] = None
                continue
            key = (component, limits, tuple((name, entries[name]) for name in names))
            solved = memo.get(key)
            if solved is None:
                keys[component] = key
                live[component] = SolvedComponent(tuple(rank[name] for name in names))
                continue
            adopted = True
            entries.update(solved.entries)
            last_visit.update(solved.recorders)
            ranks = {old: rank[name] for old, name in zip(solved.ranks, names)}
            found.extend((_rekey(at, ranks), name) for at, name in solved.discovered)
            deferred.extend(
                (_rekey(at, ranks), callee, projected)
                for at, callee, projected in solved.emitted
            )
            stats.summaries_reused += solved.pops
            for counter, amount in solved.widening.items():
                setattr(stats, counter, getattr(stats, counter) + amount)

        queue = deque(
            (name, (rank[name],)) for name in level if component_of[name] in live
        )
        queued = {name for name, _ in queue}
        while queue:
            name, path = queue.popleft()
            queued.discard(name)
            stats.worklist_pops += 1
            component = component_of[name]
            record = live[component]
            if record is not None:
                widening_before = stats.widening_counters()
                memo.fresh_names.add(name)
            visit = AnalysisRecorder()
            analyzer = ProcedureAnalyzer(
                program, context.info, context.summaries, limits, visit, context=context
            )
            with span("solve.visit", {"procedure": name}):
                analyzer.analyze_procedure(program.callable(name), entries[name])
            last_visit[name] = visit

            generation = len(path)
            for site, (callee, projected) in enumerate(visit.call_sites):
                emit_key = (generation, path, site)
                if component_of[callee] is not component:
                    deferred.append((emit_key, callee, projected))
                    if record is not None:
                        record.emitted.append(deferred[-1])
                    continue
                changed, new = absorb(callee, projected)
                if new:
                    found.append((emit_key, callee))
                    if record is not None:
                        record.discovered.append(found[-1])
                if changed and callee not in queued:
                    queued.add(callee)
                    queue.append((callee, path + (site,)))
            if record is not None:
                record.pops += 1
                for counter, before in widening_before.items():
                    amount = getattr(stats, counter) - before
                    if amount:
                        record.widening[counter] = record.widening.get(counter, 0) + amount
            if queue and stats.worklist_pops - pops_at_start >= max_pops:  # pragma: no cover - safety net
                stats.iteration_guard_trips += 1
                tripped = True
                break

        if memo is not None and not tripped:
            for component, record in live.items():
                for member in component:
                    if member in entries:
                        record.entries[member] = entries[member]
                        record.recorders[member] = last_visit[member]
                memo.put(keys[component], record)
        if adopted:
            found.sort(key=itemgetter(0))
            deferred.sort(key=itemgetter(0))
        discovered.extend(name for _, name in found)
        for _, callee, projected in deferred:
            if absorb(callee, projected)[1]:
                discovered.append(callee)
                arrivals[level_of[callee]].append(callee)

    context.entry_matrices = {name: entries[name] for name in discovered}


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
    packed_ops_before = packed_segment_ops()
    with widening_scope(context.stats):
        for name, analysis_pass in PIPELINE:
            with span(f"analysis.{name}"):
                analysis_pass(context)
    context.stats.matrices_allocated += PathMatrix.allocations - allocated_before
    context.stats.packed_segment_ops += packed_segment_ops() - packed_ops_before
    return context


def pass_names() -> List[str]:
    """The pipeline stages, in order (for docs and debugging)."""
    return [name for name, _ in PIPELINE]
