"""Parallelization: dependence oracles, the Figure 8 transformation, speedup model."""

from .oracle import (
    DependenceOracle,
    PathMatrixOracle,
    is_call,
    is_groupable,
    parallelism_census,
)
from .schedule import (
    DEFAULT_PROCESSORS,
    ParallelismReport,
    SpeedupRow,
    build_report,
    greedy_time,
)
from .transform import (
    ParallelizationResult,
    ParallelizationStats,
    Parallelizer,
    parallelize_program,
)

__all__ = [
    "DependenceOracle",
    "PathMatrixOracle",
    "is_call",
    "is_groupable",
    "parallelism_census",
    "parallelize_program",
    "Parallelizer",
    "ParallelizationResult",
    "ParallelizationStats",
    "ParallelismReport",
    "SpeedupRow",
    "build_report",
    "greedy_time",
    "DEFAULT_PROCESSORS",
]
