"""Execution traces, memory-access records and race reports.

The interpreter (:mod:`repro.runtime.interpreter`) produces an
:class:`ExecutionResult` containing

* **work** — the total number of unit-cost operations executed, and
* **span** — the length of the critical path, where the branches of a
  parallel statement ``s1 || s2 || ...`` contribute the *maximum* of their
  spans instead of the sum,

which together give the ideal parallelism (work / span) used by the
evaluation benches, plus the list of :class:`RaceReport` detected while
executing parallel statements (the dynamic validation of the static
interference analysis).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple, Union

from .heap import Heap
from .values import Value


# ---------------------------------------------------------------------------
# Concrete memory locations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarLocation:
    """A local variable slot in a specific activation frame."""

    frame_id: int
    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}@frame{self.frame_id}"


@dataclass(frozen=True)
class FieldLocation:
    """A field (``left``, ``right`` or ``value``) of a specific heap node."""

    node_id: int
    field_name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"node#{self.node_id}.{self.field_name}"


ConcreteLocation = Union[VarLocation, FieldLocation]


# ---------------------------------------------------------------------------
# Access collection (per parallel branch)
# ---------------------------------------------------------------------------


@dataclass
class AccessSet:
    """Reads and writes recorded while executing one parallel branch."""

    reads: Set[ConcreteLocation] = field(default_factory=set)
    writes: Set[ConcreteLocation] = field(default_factory=set)

    def record_read(self, location: ConcreteLocation) -> None:
        self.reads.add(location)

    def record_write(self, location: ConcreteLocation) -> None:
        self.writes.add(location)

    def conflicts_with(self, other: "AccessSet") -> Set[ConcreteLocation]:
        """Locations through which this access set and ``other`` race."""
        return (self.writes & (other.reads | other.writes)) | (other.writes & self.reads)


@dataclass
class RaceReport:
    """A data race detected between two branches of one parallel statement."""

    locations: FrozenSet[ConcreteLocation]
    branch_indices: Tuple[int, int]
    statement_text: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        locs = ", ".join(sorted(str(l) for l in self.locations))
        i, j = self.branch_indices
        return f"race between branches {i} and {j} on {{{locs}}}"


# ---------------------------------------------------------------------------
# Execution result
# ---------------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Everything the interpreter reports about one program run."""

    #: Total unit-cost operations executed.
    work: int
    #: Critical-path length (parallel branches contribute max, not sum).
    span: int
    #: Final heap.
    heap: Heap
    #: Final values of ``main``'s local variables (handles and ints).
    main_locals: Dict[str, Value] = field(default_factory=dict)
    #: Count of executed statements per statement-kind name.
    op_counts: Counter = field(default_factory=Counter)
    #: Data races detected inside parallel statements (empty = clean run).
    races: List[RaceReport] = field(default_factory=list)
    #: Number of parallel statements executed (dynamic instances).
    parallel_statements: int = 0
    #: Number of procedure/function calls executed.
    calls: int = 0

    @property
    def parallelism(self) -> float:
        """Ideal parallelism = work / span (1.0 for fully sequential runs)."""
        if self.span == 0:
            return 1.0
        return self.work / self.span

    @property
    def race_free(self) -> bool:
        return not self.races

    def speedup_over(self, sequential: "ExecutionResult") -> float:
        """Ideal speedup of this run relative to a sequential run's span."""
        if self.span == 0:
            return 1.0
        return sequential.span / self.span

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"work={self.work} span={self.span} parallelism={self.parallelism:.2f} "
            f"races={len(self.races)} calls={self.calls} heap={len(self.heap)} nodes"
        )
