"""Procedure summaries: read-only vs. update arguments and structural effects.

Section 5.2 of the paper refines procedure-call interference by
distinguishing *read-only* handle arguments (all nodes accessed through the
argument are only read) from *update* arguments (some node reached from the
argument may be written).  This module computes, for every procedure:

* ``update_params`` — the handle formals through which the procedure (or any
  procedure it calls) may write a node field;
* ``modifies_links`` — whether the procedure may rewrite ``left``/``right``
  links (i.e. change the *shape* of the structure) rather than just values;
* for functions returning a handle, which formals the returned handle may be
  derived from (or whether it is always freshly allocated) — used to relate
  the caller's result variable to the actual arguments.

The computation is a simple flow-insensitive derivation analysis iterated to
a fixed point over the (possibly recursive) call graph; it is deliberately
conservative (never misses an update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..sil import ast
from ..sil.typecheck import TypeInfo

#: Origin marker for freshly allocated nodes.
FRESH = "<new>"
#: Origin marker for nil.
NIL = "<nil>"


@dataclass
class ProcedureSummary:
    """Summary of one procedure's effect through its handle arguments."""

    name: str
    handle_params: List[str] = field(default_factory=list)
    #: Handle formals through which some node may be written (value or link).
    update_params: Set[str] = field(default_factory=set)
    #: True if the procedure (transitively) may execute a link update
    #: (``a.left := ...`` / ``a.right := ...``).
    modifies_links: bool = False
    #: For handle-returning functions: formals the result may be derived from.
    result_derived_from: Set[str] = field(default_factory=set)
    #: For handle-returning functions: may the result be a freshly allocated
    #: node (or nil)?
    result_may_be_fresh: bool = False

    def readonly_params(self) -> List[str]:
        """Handle formals that are only ever read through (§5.2 refinement)."""
        return [p for p in self.handle_params if p not in self.update_params]

    def is_update(self, formal: str) -> bool:
        return formal in self.update_params


class _SummaryBuilder:
    """Iterates summary computation over the whole program to a fixed point."""

    #: The statement kinds the derivation analysis reads; everything else
    #: (blocks, branches, scalar loads) is flow-insensitively irrelevant.
    _RELEVANT_KINDS = (
        ast.CopyHandle,
        ast.LoadField,
        ast.AssignNew,
        ast.AssignNil,
        ast.StoreField,
        ast.StoreValue,
        ast.ProcCall,
        ast.FuncAssign,
    )

    def __init__(
        self,
        program: ast.Program,
        info: TypeInfo,
        reuse: Optional[Dict[str, ProcedureSummary]] = None,
    ):
        self.program = program
        self.info = info
        self.summaries: Dict[str, ProcedureSummary] = {}
        reuse = reuse or {}
        #: The procedures whose summaries the fixed point computes.
        self._open = [proc for proc in program.all_callables if proc.name not in reuse]
        #: Per-procedure flat list of the relevant statements — the body is
        #: immutable and re-walked many times per fixed point, so the AST
        #: traversal and kind filtering are paid once.
        self._relevant: Dict[str, List[ast.Stmt]] = {}
        for proc in program.all_callables:
            self.summaries[proc.name] = reuse.get(proc.name) or ProcedureSummary(
                name=proc.name, handle_params=list(proc.handle_params)
            )

    def compute(self) -> Dict[str, ProcedureSummary]:
        changed = True
        iterations = 0
        while changed:
            changed = False
            iterations += 1
            if iterations > len(self.summaries) * 4 + 16:  # pragma: no cover - safety net
                break
            for proc in self._open:
                if self._analyze_procedure(proc):
                    changed = True
        return self.summaries

    # ------------------------------------------------------------------

    def _analyze_procedure(self, proc: ast.Procedure) -> bool:
        """Re-derive the summary of ``proc``; returns True if it changed."""
        summary = self.summaries[proc.name]
        scope = self.info.for_procedure(proc.name)

        # Derivation sets: handle variable -> set of origins (formals / FRESH / NIL).
        derivation: Dict[str, Set[str]] = {}
        for name in scope.handle_variables():
            derivation[name] = set()
        for formal in proc.handle_params:
            derivation[formal] = {formal}

        update_origins: Set[str] = set()
        modifies_links = False

        statements = self._relevant.get(proc.name)
        if statements is None:
            statements = self._relevant[proc.name] = [
                stmt
                for stmt in ast.walk_stmt(proc.body)
                if isinstance(stmt, self._RELEVANT_KINDS)
            ]

        # Iterate the (flow-insensitive) derivation analysis within the body
        # until stable — loops and branches make one pass insufficient.
        stable = False
        passes = 0
        while not stable:
            stable = True
            passes += 1
            if passes > 32:  # pragma: no cover - safety net
                break
            for stmt in statements:
                if isinstance(stmt, ast.CopyHandle):
                    if self._flow(derivation, stmt.source, stmt.target):
                        stable = False
                elif isinstance(stmt, ast.LoadField):
                    if self._flow(derivation, stmt.source, stmt.target):
                        stable = False
                elif isinstance(stmt, ast.AssignNew):
                    if FRESH not in derivation.setdefault(stmt.target, set()):
                        derivation[stmt.target].add(FRESH)
                        stable = False
                elif isinstance(stmt, ast.AssignNil):
                    if NIL not in derivation.setdefault(stmt.target, set()):
                        derivation[stmt.target].add(NIL)
                        stable = False
                elif isinstance(stmt, ast.StoreField):
                    modifies_links = True
                    update_origins |= self._origins(derivation, stmt.target)
                    # Linking source below target: nodes derived from source
                    # become reachable from target's origins; treat writes
                    # through either as updates of both origin sets later by
                    # merging source origins into the target variable.
                    if stmt.source is not None:
                        if self._flow(derivation, stmt.source, stmt.target):
                            stable = False
                elif isinstance(stmt, ast.StoreValue):
                    update_origins |= self._origins(derivation, stmt.target)
                elif isinstance(stmt, (ast.ProcCall, ast.FuncAssign)):
                    callee = self.program.callable(stmt.name)
                    callee_summary = self.summaries[callee.name]
                    handle_actuals = self._handle_actuals(stmt.args, callee)
                    if callee_summary.modifies_links:
                        modifies_links = True
                    for formal, actual in handle_actuals.items():
                        if actual is None:
                            continue
                        if callee_summary.is_update(formal):
                            update_origins |= self._origins(derivation, actual)
                    if isinstance(stmt, ast.FuncAssign):
                        target_is_handle = scope.is_handle(stmt.target)
                        if target_is_handle:
                            origins: Set[str] = set()
                            if callee_summary.result_may_be_fresh:
                                origins.add(FRESH)
                            for formal in callee_summary.result_derived_from:
                                actual = handle_actuals.get(formal)
                                if actual is not None:
                                    origins |= self._origins(derivation, actual)
                            before = set(derivation.setdefault(stmt.target, set()))
                            derivation[stmt.target] |= origins
                            if derivation[stmt.target] != before:
                                stable = False

        formal_set = set(proc.handle_params)
        update_params = update_origins & formal_set

        result_derived: Set[str] = set()
        result_fresh = False
        if isinstance(proc, ast.Function) and scope.is_handle(proc.return_var):
            origins = self._origins(derivation, proc.return_var)
            result_derived = origins & formal_set
            result_fresh = bool(origins & {FRESH, NIL}) or not origins

        changed = (
            update_params != summary.update_params
            or modifies_links != summary.modifies_links
            or result_derived != summary.result_derived_from
            or result_fresh != summary.result_may_be_fresh
        )
        summary.update_params = update_params
        summary.modifies_links = modifies_links
        summary.result_derived_from = result_derived
        summary.result_may_be_fresh = result_fresh
        return changed

    # ------------------------------------------------------------------

    @staticmethod
    def _flow(derivation: Dict[str, Set[str]], source: str, target: str) -> bool:
        """Propagate origins from ``source`` into ``target``; True if changed."""
        source_origins = derivation.setdefault(source, set())
        target_origins = derivation.setdefault(target, set())
        before = len(target_origins)
        target_origins |= source_origins
        return len(target_origins) != before

    @staticmethod
    def _origins(derivation: Dict[str, Set[str]], name: str) -> Set[str]:
        return set(derivation.get(name, set()))

    def _handle_actuals(
        self, args: List[ast.Expr], callee: ast.Procedure
    ) -> Dict[str, Optional[str]]:
        """Map each handle formal of ``callee`` to the actual's variable name."""
        result: Dict[str, Optional[str]] = {}
        for param, arg in zip(callee.params, args):
            if param.type is not ast.SilType.HANDLE:
                continue
            if isinstance(arg, ast.Name):
                result[param.name] = arg.ident
            else:
                result[param.name] = None
        return result


def compute_summaries(
    program: ast.Program,
    info: TypeInfo,
    reuse: Optional[Dict[str, ProcedureSummary]] = None,
) -> Dict[str, ProcedureSummary]:
    """Compute :class:`ProcedureSummary` for every procedure/function.

    ``reuse`` maps names to summaries that are already final for this
    program; they are taken as they are and only the other procedures are
    iterated.  That is sound when no procedure in ``reuse`` calls, even
    transitively, one outside it; :class:`~repro.analysis.reanalysis.
    IncrementalSession` reuses exactly the procedures outside its dirty
    seed.  The fixed point starts every other summary empty, so the result
    is the least fixed point either way.
    """
    return _SummaryBuilder(program, info, reuse).compute()
