"""The alias functions A(a, f, p) and A^r(h, f, L, p).

Section 5.1: given a handle ``a``, a field kind ``f`` and a path matrix
``p``, the alias function returns the set of locations that may be aliased
to the location ``(a, f)``: ``(x, f)`` is a member iff ``p[a, x]`` (or, by
symmetry of "naming the same node", ``p[x, a]``) contains the path ``S`` or
``S?``.  ``(a, f)`` itself is always a member.

Section 5.3: the *relative* alias function anchors the aliases at the
live-in handles ``L`` instead: ``(l, f, r)`` is a member iff ``l ∈ L`` and
``p[l, h]`` contains the path expression ``r``.
"""

from __future__ import annotations

from typing import Sequence, Set

from ..analysis.matrix import PathMatrix
from ..analysis.pathset import PathSet
from ..sil.ast import Field
from .locations import (
    Location,
    RelativeLocation,
    field_location,
    relative_field_location,
)


def alias_set(handle: str, field: Field, matrix: PathMatrix) -> Set[Location]:
    """``A(a, f, p)`` — the Section 5.1 alias function.

    Returns every location ``(x, f)`` such that ``x`` may name the same node
    as ``a`` (including ``(a, f)`` itself).
    """
    result: Set[Location] = {field_location(handle, field)}
    for other in matrix.iter_handles():
        if other == handle:
            continue
        if matrix.get(handle, other).has_same or matrix.get(other, handle).has_same:
            result.add(field_location(other, field))
    return result


def must_alias_set(handle: str, field: Field, matrix: PathMatrix) -> Set[Location]:
    """Locations that *definitely* alias ``(a, f)`` (definite ``S`` entries)."""
    result: Set[Location] = {field_location(handle, field)}
    for other in matrix.iter_handles():
        if other == handle:
            continue
        if (
            matrix.get(handle, other).has_definite_same
            or matrix.get(other, handle).has_definite_same
        ):
            result.add(field_location(other, field))
    return result


def relative_alias_set(
    handle: str,
    field: Field,
    live_handles: Sequence[str],
    matrix: PathMatrix,
) -> Set[RelativeLocation]:
    """``A^r(h, f, L, p)`` — the Section 5.3 relative alias function.

    Expresses the location ``h.f`` in terms of access paths from the
    live-in handles ``L``: for every ``l ∈ L`` whose matrix entry
    ``p[l, h]`` is non-empty (or ``l = h``), the relative location
    ``(l, f, p[l, h])`` is returned.
    """
    result: Set[RelativeLocation] = set()
    for live in live_handles:
        if live == handle:
            result.add(relative_field_location(live, field, PathSet.same()))
            continue
        paths = matrix.get(live, handle)
        if not paths.is_empty:
            result.add(relative_field_location(live, field, paths))
    return result
