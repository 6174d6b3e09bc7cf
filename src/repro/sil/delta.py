"""Semantic program deltas: what changed between two versions of a program.

Cross-run incremental re-analysis (see :mod:`repro.analysis.reanalysis`)
starts from one question: *given the program we solved last time and the
program we are asked to solve now, which procedures could possibly analyze
differently?*  This module answers it structurally, without running any
analysis:

* :func:`diff_programs` compares two (surface or normalized) programs and
  produces a typed :class:`ProgramDelta` — procedures added, removed,
  body-changed or signature-changed, plus the statement-level change spans
  of every changed body;
* statement content is identified by :func:`statement_identity` — the
  ``(node kind, exact inline rendering)`` pair — which is **the same
  canonical rendering contract both transfer-cache tiers key on** (the
  in-memory memo directly, the persistent codec through
  :func:`repro.cache.codec.transfer_key`), so a delta's stale-statement
  set names exactly the cached transfers of the statements the edit
  removed;
* :func:`statement_rebase_map` produces *stable statement identities across
  reparses*: for procedures whose bodies are textually identical, it maps
  each old statement object's ``id`` to the corresponding statement object
  of the new parse (positional, verified by identity), so ``id(stmt)``-keyed
  memos recorded against the old objects can be rebased onto the new ones;
* both read each side from a :func:`program_identities` table — every
  procedure's signature and statements, and every statement's identity,
  as they were when the table was rendered — so a caller that diffs one
  version against the next renders each version once and passes its
  table to both sides of both calls.

The diff is deliberately *syntactic* and conservative: any difference in a
procedure's rendered body or declarations marks it changed.  Semantic
fan-out (a changed callee invalidating its callers' analyses) is the
re-analysis driver's job, via the reverse call graph — see
:func:`call_graph` / :func:`reverse_call_graph`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from . import ast
from .printer import _format_inline

#: ``(node kind, inline rendering)`` — the content identity of a statement.
StatementIdentity = Tuple[str, str]


def statement_identity(stmt: ast.Stmt) -> StatementIdentity:
    """The canonical content identity of one statement.

    Two statements with equal identities are structurally identical
    (including every nested statement — the inline rendering recurses), so
    they denote the same transfer function under any input matrix.  Both
    transfer-cache tiers key on it: the in-memory memo of
    :class:`repro.analysis.transfer.TransferCache` directly, the persistent
    tier through :func:`repro.cache.codec.transfer_key`.
    """
    return (type(stmt).__name__, _format_inline(stmt))


def statement_label(stmt: ast.Stmt) -> str:
    """The single-string form of :func:`statement_identity` stores index by."""
    return identity_label(statement_identity(stmt))


def identity_label(identity: StatementIdentity) -> str:
    """Collapse an identity pair into the label string stored with cache rows."""
    return "|".join(identity)


def _signature_of(proc: ast.Procedure) -> Tuple:
    """Everything about a procedure except its body, canonically rendered."""
    decls = tuple(
        (decl.name, decl.type.value) for decl in list(proc.params) + list(proc.locals)
    )
    if isinstance(proc, ast.Function):
        return ("function", proc.name, decls, proc.return_type.value, proc.return_var)
    return ("procedure", proc.name, decls)


class IdentityTable(Dict[int, StatementIdentity]):
    """``id(stmt) -> statement_identity(stmt)`` over every statement of a
    program, plus :attr:`procedures`: each procedure's signature and its
    statements in pre-order walk order.

    A table is a snapshot: the diff and the rebase read one side entirely
    from it, so editing the program object after rendering its table —
    a statement changed, added or removed in place — changes nothing they
    see.
    """

    __slots__ = ("procedures",)

    def __init__(self) -> None:
        super().__init__()
        self.procedures: Dict[str, Tuple[Tuple, Tuple[ast.Stmt, ...]]] = {}


def program_identities(program: ast.Program) -> IdentityTable:
    """Render the identity of every statement of ``program``, once each."""
    table = IdentityTable()
    for proc in program.all_callables:
        statements = tuple(ast.walk_stmt(proc.body))
        table.procedures[proc.name] = (_signature_of(proc), statements)
        for stmt in statements:
            table[id(stmt)] = statement_identity(stmt)
    return table


@dataclass(frozen=True)
class ProcedureDelta:
    """One changed procedure, with its statement-level change spans."""

    name: str
    #: ``"body"`` or ``"signature"`` (a signature change implies re-analysis
    #: even when the body rendering is unchanged — formals shape the entry
    #: matrix and the summary).
    kind: str
    #: Statement identities present in the old body but not the new one
    #: (multiset difference): the statements whose cached transfers can
    #: never be keyed again by the new program.
    removed_statements: Tuple[StatementIdentity, ...] = ()
    #: Statement identities present in the new body but not the old one.
    added_statements: Tuple[StatementIdentity, ...] = ()


@dataclass(frozen=True)
class ProgramDelta:
    """The typed structural diff between two program versions."""

    old_name: str
    new_name: str
    #: Procedure names present only in the new program.
    added: Tuple[str, ...] = ()
    #: Procedure names present only in the old program.
    removed: Tuple[str, ...] = ()
    #: Procedures present in both whose body or signature changed.
    changed: Tuple[ProcedureDelta, ...] = ()
    #: Procedures present in both with identical signature and body.
    unchanged: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    @property
    def dirty_procedures(self) -> FrozenSet[str]:
        """Directly-touched procedures: added or changed (not yet closed
        over the reverse call graph — see :func:`dirty_seed`)."""
        return frozenset(self.added) | {d.name for d in self.changed}

    @property
    def stale_statement_labels(self) -> FrozenSet[str]:
        """Labels of the statements the edit removed from the procedures in
        :attr:`changed` — the persistent-store rows targeted invalidation
        drops.  A removed procedure has no :class:`ProcedureDelta`, so its
        statements are not among them."""
        labels: Set[str] = set()
        for proc_delta in self.changed:
            for identity in proc_delta.removed_statements:
                labels.add(identity_label(identity))
        return frozenset(labels)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-able rendering (CLI / daemon responses)."""
        return {
            "old_program": self.old_name,
            "new_program": self.new_name,
            "added": list(self.added),
            "removed": list(self.removed),
            "changed": [
                {
                    "name": d.name,
                    "kind": d.kind,
                    "removed_statements": [list(i) for i in d.removed_statements],
                    "added_statements": [list(i) for i in d.added_statements],
                }
                for d in self.changed
            ],
            "unchanged": list(self.unchanged),
        }


def diff_programs(
    old: ast.Program,
    new: ast.Program,
    old_identities: Optional[IdentityTable] = None,
    new_identities: Optional[IdentityTable] = None,
) -> ProgramDelta:
    """Compute the :class:`ProgramDelta` between two program versions.

    Both programs may be surface or normalized, but the comparison is only
    meaningful between like forms (the re-analysis driver diffs normalized
    programs, so the identities match what the analysis and the cache saw).
    Procedures, signatures and statement identities come from each side's
    :func:`program_identities` table, rendered here when not passed in;
    of the program objects only the names are read.
    """
    if old_identities is None:
        old_identities = program_identities(old)
    if new_identities is None:
        new_identities = program_identities(new)
    old_procs = old_identities.procedures
    new_procs = new_identities.procedures

    added = tuple(sorted(name for name in new_procs if name not in old_procs))
    removed = tuple(sorted(name for name in old_procs if name not in new_procs))

    changed: List[ProcedureDelta] = []
    unchanged: List[str] = []
    for name in sorted(set(old_procs) & set(new_procs)):
        old_signature, old_stmts = old_procs[name]
        new_signature, new_stmts = new_procs[name]
        signature_changed = old_signature != new_signature
        old_ids = [old_identities[id(stmt)] for stmt in old_stmts]
        new_ids = [new_identities[id(stmt)] for stmt in new_stmts]
        if not signature_changed and old_ids == new_ids:
            unchanged.append(name)
            continue
        old_counts = Counter(old_ids)
        new_counts = Counter(new_ids)
        removed_stmts = tuple(sorted((old_counts - new_counts).elements()))
        added_stmts = tuple(sorted((new_counts - old_counts).elements()))
        changed.append(
            ProcedureDelta(
                name=name,
                kind="signature" if signature_changed else "body",
                removed_statements=removed_stmts,
                added_statements=added_stmts,
            )
        )

    return ProgramDelta(
        old_name=old.name,
        new_name=new.name,
        added=added,
        removed=removed,
        changed=tuple(changed),
        unchanged=tuple(unchanged),
    )


# ---------------------------------------------------------------------------
# Stable statement identities across reparses
# ---------------------------------------------------------------------------


def statement_rebase_map(
    old: ast.Program,
    new: ast.Program,
    names: Iterable[str],
    old_identities: Optional[IdentityTable] = None,
    new_identities: Optional[IdentityTable] = None,
) -> Dict[int, ast.Stmt]:
    """Map ``id(old statement) -> new statement`` for unchanged procedures.

    ``names`` must name procedures whose bodies are identical between the
    two programs (the delta's ``unchanged`` set); their pre-order statement
    walks are then the same shape, so positional pairing is exact.  Each
    side's statements and identities come from its table (rendered here
    when not passed in), and every pairing is verified against them — a
    mismatch raises rather than silently rebasing a memo onto a different
    statement.
    """
    if old_identities is None:
        old_identities = program_identities(old)
    if new_identities is None:
        new_identities = program_identities(new)
    mapping: Dict[int, ast.Stmt] = {}
    for name in names:
        old_stmts = old_identities.procedures[name][1]
        new_stmts = new_identities.procedures[name][1]
        if len(old_stmts) != len(new_stmts):
            raise ValueError(
                f"procedure {name!r} was reported unchanged but its statement "
                f"count differs ({len(old_stmts)} vs {len(new_stmts)})"
            )
        for old_stmt, new_stmt in zip(old_stmts, new_stmts):
            old_identity = old_identities[id(old_stmt)]
            new_identity = new_identities[id(new_stmt)]
            if old_identity != new_identity:
                raise ValueError(
                    f"procedure {name!r} was reported unchanged but statement "
                    f"{old_identity!r} does not match {new_identity!r}"
                )
            mapping[id(old_stmt)] = new_stmt
    return mapping


# ---------------------------------------------------------------------------
# Call-graph helpers for dirty seeding
# ---------------------------------------------------------------------------


def call_graph(program: ast.Program) -> Dict[str, Set[str]]:
    """``caller -> {callees}`` over every procedure and function call of a
    normalized program, where every call is a ``ProcCall`` or
    ``FuncAssign`` statement."""
    graph: Dict[str, Set[str]] = {}
    for proc in program.all_callables:
        graph[proc.name] = {
            stmt.name
            for stmt in ast.walk_stmt(proc.body)
            if isinstance(stmt, (ast.ProcCall, ast.FuncAssign))
        }
    return graph


def reverse_call_graph(
    program: ast.Program, graph: Optional[Dict[str, Set[str]]] = None
) -> Dict[str, Set[str]]:
    """``callee -> {callers}`` — the edges dirty seeding walks.  ``graph``
    is ``program``'s :func:`call_graph`, built here when not passed in."""
    if graph is None:
        graph = call_graph(program)
    reverse: Dict[str, Set[str]] = {proc.name: set() for proc in program.all_callables}
    for caller, callees in graph.items():
        for callee in callees:
            reverse.setdefault(callee, set()).add(caller)
    return reverse


def dirty_seed(
    delta: ProgramDelta,
    new: ast.Program,
    graph: Optional[Dict[str, Set[str]]] = None,
) -> FrozenSet[str]:
    """The dirty worklist seed: directly-changed procedures plus every
    transitive caller in the new program's reverse call graph.

    A procedure's analysis depends on its own body, its entry matrix and
    the summaries of its *direct* callees; summaries are themselves
    transitive over the call graph, so closing the directly-changed set
    over reverse call edges covers every procedure whose recorded visits
    could differ from the previous run.  Procedures *called by* dirty ones
    are deliberately not seeded: if a dirty caller's projection to them
    actually changes, their entry matrices change and the entry-keyed
    component memo misses on its own.  ``graph`` is ``new``'s
    :func:`call_graph`, built here when not passed in.
    """
    reverse = reverse_call_graph(new, graph)
    dirty: Set[str] = set(delta.dirty_procedures)
    frontier = list(dirty)
    while frontier:
        name = frontier.pop()
        for caller in reverse.get(name, ()):
            if caller not in dirty:
                dirty.add(caller)
                frontier.append(caller)
    return frozenset(dirty)
