"""Parallel-execution cost model: work/span accounting and P-processor speedup.

The paper reports *detected parallelism*; its 1989 testbed is not
available, so the reproduction substitutes a deterministic machine model:

* the interpreter (:mod:`repro.runtime.interpreter`) charges one unit per
  executed operation and computes **work** (total units) and **span**
  (critical-path units, where the branches of ``s1 || s2 || ...``
  contribute the maximum instead of the sum);
* this module turns those numbers into P-processor execution-time estimates
  using the greedy-scheduling (Brent) bound ``T_P = max(span, work / P)``
  and into speedup tables comparing the sequential and the parallelized
  program.

This captures exactly the parallelism the transformation exposes,
independent of any particular machine's constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..runtime.trace import ExecutionResult

#: Processor counts reported by default (the paper targets "large scale
#: parallel machines"; infinity shows the ideal parallelism).
DEFAULT_PROCESSORS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


def greedy_time(work: int, span: int, processors: Optional[int]) -> float:
    """Estimated execution time on ``processors`` (None = unbounded).

    Uses the ideal greedy-scheduler estimate ``max(span, work / P)``; any
    greedy schedule of a series-parallel computation finishes within
    ``work / P + span``, so the estimate is within a factor of two of every
    greedy schedule and exact for ``P = 1`` and ``P = ∞``.
    """
    if work < 0 or span < 0:
        raise ValueError("work and span must be non-negative")
    if processors is None:
        return float(span)
    if processors < 1:
        raise ValueError("processor count must be positive")
    return float(max(span, math.ceil(work / processors)))


@dataclass
class SpeedupRow:
    """Speedup of the parallel program over the sequential one on P processors."""

    processors: Optional[int]
    sequential_time: float
    parallel_time: float

    @property
    def speedup(self) -> float:
        if self.parallel_time == 0:
            return 1.0
        return self.sequential_time / self.parallel_time

    @property
    def label(self) -> str:
        return "inf" if self.processors is None else str(self.processors)


@dataclass
class ParallelismReport:
    """Comparison of a sequential run and a parallelized run of the same workload."""

    workload: str
    sequential: ExecutionResult
    parallel: ExecutionResult
    rows: List[SpeedupRow] = field(default_factory=list)

    @property
    def ideal_parallelism(self) -> float:
        """work / span of the parallelized run."""
        return self.parallel.parallelism

    @property
    def max_speedup(self) -> float:
        """Speedup with unbounded processors (sequential span / parallel span)."""
        if self.parallel.span == 0:
            return 1.0
        return self.sequential.span / self.parallel.span

    @property
    def race_free(self) -> bool:
        return self.parallel.race_free

    def row(self, processors: Optional[int]) -> SpeedupRow:
        for row in self.rows:
            if row.processors == processors:
                return row
        raise KeyError(f"no row for {processors} processors")

    def format_table(self) -> str:
        """Render the speedup table as aligned text."""
        header = ["P", "T_seq", "T_par", "speedup"]
        lines = [
            f"workload: {self.workload}  (work_seq={self.sequential.work}, "
            f"work_par={self.parallel.work}, span_par={self.parallel.span}, "
            f"parallelism={self.ideal_parallelism:.2f})"
        ]
        rows = [header] + [
            [row.label, f"{row.sequential_time:.0f}", f"{row.parallel_time:.0f}", f"{row.speedup:.2f}"]
            for row in self.rows
        ]
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)


def build_report(
    workload: str,
    sequential: ExecutionResult,
    parallel: ExecutionResult,
    processors: Sequence[Optional[int]] = DEFAULT_PROCESSORS,
    include_unbounded: bool = True,
) -> ParallelismReport:
    """Build a :class:`ParallelismReport` from two execution results."""
    report = ParallelismReport(workload=workload, sequential=sequential, parallel=parallel)
    processor_list: List[Optional[int]] = list(processors)
    if include_unbounded and None not in processor_list:
        processor_list.append(None)
    for count in processor_list:
        report.rows.append(
            SpeedupRow(
                processors=count,
                sequential_time=greedy_time(sequential.work, sequential.span, 1)
                if count == 1
                else greedy_time(sequential.work, sequential.span, count),
                parallel_time=greedy_time(parallel.work, parallel.span, count),
            )
        )
    return report
