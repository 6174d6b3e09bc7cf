"""Interference between statement sequences (Section 5.3).

Given two statement sequences ``U = [u1..um]`` and ``V = [v1..vn]`` that
would start from the *same* program point (path matrix ``p``), decide
whether it is safe to execute them in parallel (``U || V``), i.e. whether
one sequence may write a location the other reads or writes.

All nodes accessed by either sequence are reached along some path from a
handle that is *live into* the sequences (used before being defined); the
analysis therefore describes accesses as **relative locations**
``(name, kind, access_path)`` anchored at those live-in handles, computes
relative read/write sets per statement (against the path matrix holding at
that statement, obtained by symbolically executing the sequence from ``p``)
and intersects them with a path-overlap test.  For TREE-shaped data the
empty relative interference set implies non-interference (the induction on
tree height sketched in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from ..analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from ..analysis.matrix import PathMatrix
from ..analysis.paths import concat, paths_may_intersect
from ..analysis.transfer import apply_basic_statement
from ..sil import ast
from .locations import LocationKind, RelativeLocation
from .readwrite import relative_read_set, relative_write_set


# ---------------------------------------------------------------------------
# Live-in handles
# ---------------------------------------------------------------------------


def _handle_uses_and_defs(stmt: ast.BasicStmt) -> Tuple[List[str], List[str]]:
    """Handle variables used / defined by one basic statement."""
    if isinstance(stmt, (ast.AssignNil, ast.AssignNew)):
        return [], [stmt.target]
    if isinstance(stmt, ast.CopyHandle):
        return [stmt.source], [stmt.target]
    if isinstance(stmt, ast.LoadField):
        return [stmt.source], [stmt.target]
    if isinstance(stmt, ast.StoreField):
        uses = [stmt.target] + ([stmt.source] if stmt.source is not None else [])
        return uses, []
    if isinstance(stmt, ast.LoadValue):
        return [stmt.source], []
    if isinstance(stmt, ast.StoreValue):
        return [stmt.target], []
    if isinstance(stmt, (ast.ScalarAssign, ast.SkipStmt)):
        return [], []
    raise TypeError(f"not a basic statement: {type(stmt).__name__}")


def live_in_handles(*sequences: Sequence[ast.BasicStmt]) -> List[str]:
    """The set ``L``: handles used before being defined in any of the sequences."""
    live: List[str] = []
    for sequence in sequences:
        defined: Set[str] = set()
        for stmt in sequence:
            uses, defs = _handle_uses_and_defs(stmt)
            for use in uses:
                if use not in defined and use not in live:
                    live.append(use)
            defined.update(defs)
    return live


# ---------------------------------------------------------------------------
# Symbolic execution of a sequence (collecting per-statement matrices)
# ---------------------------------------------------------------------------


def matrices_along(
    sequence: Sequence[ast.BasicStmt],
    initial: PathMatrix,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> List[PathMatrix]:
    """The path matrices ``[p1..pn]`` holding *before* each statement of the sequence."""
    matrices: List[PathMatrix] = []
    current = initial
    for stmt in sequence:
        matrices.append(current)
        current = apply_basic_statement(current, stmt, limits).matrix
    return matrices


# ---------------------------------------------------------------------------
# Relative read/write sets of whole sequences
# ---------------------------------------------------------------------------


def sequence_relative_reads(
    sequence: Sequence[ast.BasicStmt],
    matrices: Sequence[PathMatrix],
    live: Sequence[str],
) -> Set[RelativeLocation]:
    """``R^r_n([s1..sn], [p1..pn], L)``."""
    result: Set[RelativeLocation] = set()
    for stmt, matrix in zip(sequence, matrices):
        result |= relative_read_set(stmt, matrix, live)
    return result


def sequence_relative_writes(
    sequence: Sequence[ast.BasicStmt],
    matrices: Sequence[PathMatrix],
    live: Sequence[str],
) -> Set[RelativeLocation]:
    """``W^r_n([s1..sn], [p1..pn], L)``."""
    result: Set[RelativeLocation] = set()
    for stmt, matrix in zip(sequence, matrices):
        result |= relative_write_set(stmt, matrix, live)
    return result


# ---------------------------------------------------------------------------
# Overlap of relative locations
# ---------------------------------------------------------------------------


def relative_locations_overlap(
    first: RelativeLocation,
    second: RelativeLocation,
    initial: PathMatrix,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> bool:
    """Could the two relative locations denote the same concrete location?

    * ``var`` locations overlap iff they name the same variable.
    * field locations require the same field kind and a node both access
      paths may reach: if the anchors are the same handle, the path
      languages must intersect; if the anchors differ, one access path must
      intersect the other *composed through* the anchors' relationship in
      the initial matrix (unrelated anchors of a TREE root disjoint
      sub-trees and can never overlap).
    """
    if first.kind is LocationKind.VAR or second.kind is LocationKind.VAR:
        return (
            first.kind is LocationKind.VAR
            and second.kind is LocationKind.VAR
            and first.name == second.name
        )
    if first.kind is not second.kind:
        return False

    if first.name == second.name:
        return any(
            paths_may_intersect(p, q) for p in first.access_path for q in second.access_path
        )

    # Different anchors: relate them through the initial path matrix.
    for left, right in ((first, second), (second, first)):
        between = initial.get(left.name, right.name)
        for bridge in between:
            for right_path in right.access_path:
                composed = (
                    right_path if bridge.is_same else concat(bridge, right_path, limits)
                )
                if any(paths_may_intersect(p, composed) for p in left.access_path):
                    return True
    return False


# ---------------------------------------------------------------------------
# The relative interference set
# ---------------------------------------------------------------------------


@dataclass
class SequenceInterferenceReport:
    """Result of checking two statement sequences for interference."""

    interferes: bool
    conflicts: List[Tuple[RelativeLocation, RelativeLocation]] = field(default_factory=list)
    live_handles: List[str] = field(default_factory=list)

    @property
    def independent(self) -> bool:
        return not self.interferes

    def __str__(self) -> str:  # pragma: no cover - trivial
        if not self.interferes:
            return "sequences do not interfere"
        rendered = "; ".join(f"{a} / {b}" for a, b in self.conflicts[:5])
        return f"sequences interfere: {rendered}"


def _cross_conflicts(
    writes: Set[RelativeLocation],
    others: Set[RelativeLocation],
    initial: PathMatrix,
    limits: AnalysisLimits,
) -> List[Tuple[RelativeLocation, RelativeLocation]]:
    conflicts = []
    for write in writes:
        for other in others:
            if relative_locations_overlap(write, other, initial, limits):
                conflicts.append((write, other))
    return conflicts


def sequences_interfere(
    first: Sequence[ast.BasicStmt],
    second: Sequence[ast.BasicStmt],
    initial: PathMatrix,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> SequenceInterferenceReport:
    """``I^r(U, P, V, Q, L)`` — may the two sequences interfere (Section 5.3)?"""
    live = live_in_handles(first, second)
    first_matrices = matrices_along(first, initial, limits)
    second_matrices = matrices_along(second, initial, limits)

    first_reads = sequence_relative_reads(first, first_matrices, live)
    first_writes = sequence_relative_writes(first, first_matrices, live)
    second_reads = sequence_relative_reads(second, second_matrices, live)
    second_writes = sequence_relative_writes(second, second_matrices, live)

    conflicts = _cross_conflicts(first_writes, second_reads | second_writes, initial, limits)
    conflicts += _cross_conflicts(second_writes, first_reads | first_writes, initial, limits)

    # Remove duplicate symmetric pairs.
    unique: List[Tuple[RelativeLocation, RelativeLocation]] = []
    seen = set()
    for a, b in conflicts:
        key = frozenset((a, b))
        if key not in seen:
            seen.add(key)
            unique.append((a, b))

    return SequenceInterferenceReport(
        interferes=bool(unique), conflicts=unique, live_handles=list(live)
    )


def sequences_independent(
    first: Sequence[ast.BasicStmt],
    second: Sequence[ast.BasicStmt],
    initial: PathMatrix,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> bool:
    """Convenience wrapper: True when ``U || V`` is safe from ``initial``."""
    return sequences_interfere(first, second, initial, limits).independent
