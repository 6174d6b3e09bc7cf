"""Interprocedural machinery: call-entry projection, symbolic handles, call effects.

Two pieces (Section 5.2 and the ``pB``/``pC`` matrices of Figure 7):

**Entry matrices with symbolic handles.**  To obtain a path matrix valid at
points *inside* a (possibly recursive) procedure, every call site of the
procedure is projected onto its handle formals and the projections are
merged.  Two symbolic handles per formal ``h`` keep track of the calling
context:

* ``h*`` — the argument handle of the original (non-recursive) caller;
* ``h**`` — the union of the argument handles of all stacked recursive
  invocations.

At a non-recursive call site the actual *is* the original caller's argument,
so the projection sets ``p[h*, h] = {S}``.  At a self-recursive call site
the current formal is folded into ``h**`` and the actual becomes the new
``h``.  Iterating this until the entry matrices stabilize yields the
summary "all possible relationships between handles for the recursive
calls" of the paper.

**Call effects.**  After a call returns, the caller's matrix must
conservatively reflect whatever the callee may have done.  Calls that do not
modify links (e.g. ``add_n``) leave the matrix unchanged; link-modifying
calls (e.g. ``reverse``) weaken the relationships among the caller's handles
that can reach an update argument's region, and for handle-returning
functions the result is related to the actuals it may be derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sil import ast
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .matrix import PathMatrix, caller_symbol, stacked_symbol
from .paths import MAYBE_SAME, Direction, Path, PathSegment, concat
from .pathset import PathSet
from .summaries import ProcedureSummary


def _maybe_down() -> Path:
    """``D+?``: possibly one or more links down."""
    return Path((PathSegment(Direction.DOWN, 1, False),), False)


def maybe_descendant() -> PathSet:
    """The coarse "somewhere at or below" relationship ``{S?, D+?}``."""
    return PathSet([MAYBE_SAME, _maybe_down()])


def handle_actual_names(
    args: Sequence[ast.Expr], callee: ast.Procedure
) -> List[Tuple[str, Optional[str]]]:
    """Pair each handle formal of ``callee`` with the actual's variable name.

    Non-variable actuals (``nil``) map to ``None``.
    """
    pairs: List[Tuple[str, Optional[str]]] = []
    for param, arg in zip(callee.params, args):
        if param.type is not ast.SilType.HANDLE:
            continue
        name = arg.ident if isinstance(arg, ast.Name) else None
        pairs.append((param.name, name))
    return pairs


# ---------------------------------------------------------------------------
# Entry-matrix projection
# ---------------------------------------------------------------------------


def initial_entry_matrix(proc: ast.Procedure, limits: AnalysisLimits = DEFAULT_LIMITS) -> PathMatrix:
    """The most optimistic entry matrix: formals and symbolic handles, no relations.

    Used for ``main`` (no callers) and as the starting point before any call
    site has been seen.  For every handle formal ``h`` the matrix also tracks
    ``h*`` with ``p[h*, h] = {S}`` (on the first invocation the caller's
    argument is the formal itself) and ``h**`` with no relationships.
    """
    matrix = PathMatrix(limits=limits)
    for formal in proc.handle_params:
        matrix.add_handle(formal)
        matrix.add_handle(caller_symbol(formal))
        matrix.add_handle(stacked_symbol(formal))
        matrix.set(caller_symbol(formal), formal, PathSet.same())
    return matrix


def entry_handles(proc: ast.Procedure) -> List[str]:
    """The handles an entry matrix of ``proc`` tracks."""
    result: List[str] = []
    for formal in proc.handle_params:
        result.extend([formal, caller_symbol(formal), stacked_symbol(formal)])
    return result


def project_external_call(
    call_site_matrix: PathMatrix,
    args: Sequence[ast.Expr],
    callee: ast.Procedure,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> PathMatrix:
    """Project the caller's matrix at a *non-recursive* call site onto the callee.

    Actuals are renamed to formals; each ``h*`` is bound to the actual
    (``p[h*, h] = {S}``); each ``h**`` starts with no relationships.
    """
    pairs = handle_actual_names(args, callee)
    actuals = [name for _, name in pairs if name is not None]
    restricted = call_site_matrix.restricted(actuals)
    renaming = {name: formal for formal, name in pairs if name is not None}
    projected = restricted.renamed(renaming)

    result = PathMatrix(entry_handles(callee), limits=limits)
    for source, target, paths in projected.entries():
        result.set(source, target, paths)
    for formal, name in pairs:
        result.add_handle(formal)
        if name is not None:
            result.set(caller_symbol(formal), formal, PathSet.same())
    return result


def project_recursive_call(
    call_site_matrix: PathMatrix,
    args: Sequence[ast.Expr],
    callee: ast.Procedure,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> PathMatrix:
    """Project the matrix at a *self-recursive* call site onto the next invocation.

    The current formal ``h`` is folded into ``h**`` (it becomes one of the
    stacked invocations' arguments), ``h*`` and ``h**`` carry over, and the
    actual becomes the new ``h``.
    """
    pairs = handle_actual_names(args, callee)
    keep: List[str] = []
    renaming: Dict[str, str] = {}
    for formal, actual in pairs:
        renaming[formal] = stacked_symbol(formal)
        if actual is not None:
            renaming[actual] = formal
            keep.append(actual)
        keep.extend([formal, caller_symbol(formal), stacked_symbol(formal)])

    restricted = call_site_matrix.restricted(keep)
    projected = restricted.renamed(renaming)

    result = PathMatrix(entry_handles(callee), limits=limits)
    for source, target, paths in projected.entries():
        result.set(source, target, paths)
    return result


# ---------------------------------------------------------------------------
# Call effect on the caller's matrix
# ---------------------------------------------------------------------------


@dataclass
class CallEffect:
    """What a call may have done to the caller's matrix."""

    matrix: PathMatrix
    #: Caller handles whose relationships were weakened.
    weakened: List[str]


def apply_call_effect(
    matrix: PathMatrix,
    summary: ProcedureSummary,
    args: Sequence[ast.Expr],
    callee: ast.Procedure,
    result_target: Optional[str] = None,
    result_is_handle: bool = False,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> CallEffect:
    """The caller-side effect of ``callee(args)`` (optionally ``x := callee(args)``).

    The key TREE property (Section 3.1) bounds what the callee can touch:
    the only nodes it can access are those reached from its handle
    arguments, and in a TREE nodes *above* an argument can never be reached
    from it.  Therefore a link-modifying callee can only

    * sever or rearrange relationships whose paths pass *through* the region
      at or below an update argument, and
    * create new relationships from a node at/below an update argument down
      to a node at/below any (other) argument — by linking one argument's
      structure under another's.

    Calls that never modify links (``modifies_links`` False, e.g. ``add_n``)
    leave the matrix untouched.
    """
    result = matrix.copy()
    pairs = handle_actual_names(args, callee)
    actuals = [name for _, name in pairs if name is not None]
    update_actuals = [
        name for formal, name in pairs if name is not None and summary.is_update(formal)
    ]

    weakened: List[str] = []
    if summary.modifies_links and update_actuals:
        at_or_below_update = _at_or_below(matrix, update_actuals, strict=False)
        strictly_below_update = _at_or_below(matrix, update_actuals, strict=True)
        at_or_below_any = _at_or_below(matrix, actuals, strict=False)

        # 1. Demote relationships whose witnessing paths may traverse the
        #    restructured region.
        for first in matrix.iter_handles():
            for second in matrix.iter_handles():
                if first == second:
                    continue
                if second in strictly_below_update or first in at_or_below_update:
                    entry = result.get(first, second)
                    if not entry.is_empty and any(path.definite for path in entry):
                        result.set(first, second, entry.weakened())
                        if first not in weakened:
                            weakened.append(first)
        #    A weakened path still names its old route, but the callee may
        #    have moved a node strictly below an update argument ``u``
        #    anywhere below ``u``.  A handle outside every update region
        #    therefore also reaches it as ``(p[first, u] · D+)?``.
        outside = [name for name in matrix.iter_handles() if name not in at_or_below_update]
        below = _maybe_down()
        for second in strictly_below_update:
            for update in update_actuals:
                if not matrix.get(update, second).has_proper_path:
                    continue
                for first in outside:
                    result.add_paths(
                        first,
                        second,
                        matrix.get(first, update).map(
                            lambda path: (concat(path, below, limits),)
                        ),
                    )

        # 2. Add possible new relationships the callee could have created by
        #    linking one argument's structure below an update argument's.
        for first in at_or_below_update:
            for second in at_or_below_any | at_or_below_update:
                if first == second:
                    continue
                result.add_paths(first, second, maybe_descendant())

    if result_target is not None and result_is_handle:
        result.remove_handle(result_target)
        result.add_handle(result_target)
        derived_actuals = [
            name
            for formal, name in pairs
            if name is not None and formal in summary.result_derived_from
        ]
        for actual in derived_actuals:
            # The result is obtained by following links down from the actual
            # (or is the actual itself).
            result.set(actual, result_target, maybe_descendant())
            result.set(result_target, actual, PathSet.same(definite=False))
    return CallEffect(matrix=result, weakened=weakened)


def _at_or_below(matrix: PathMatrix, anchors: Sequence[str], strict: bool) -> Set[str]:
    """Handles possibly located below one of ``anchors``.

    ``strict=False`` includes the anchors themselves and their (possible)
    aliases; ``strict=True`` keeps only handles with a proper (non-``S``)
    descending path from some anchor.
    """
    result: Set[str] = set()
    anchor_set = set(anchors)
    for handle in matrix.iter_handles():
        for anchor in anchor_set:
            if handle == anchor:
                if not strict:
                    result.add(handle)
                continue
            entry = matrix.get(anchor, handle)
            if entry.is_empty:
                continue
            if strict:
                if entry.has_proper_path:
                    result.add(handle)
            else:
                result.add(handle)
    return result
