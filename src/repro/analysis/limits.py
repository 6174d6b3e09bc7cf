"""Finiteness limits for the path-expression abstract domain.

Path expressions are sequences of links with exact or open-ended ("one or
more") repetition counts.  To guarantee that the iterative approximation of
``while`` loops and recursive procedures terminates, the domain must be
finite: :class:`AnalysisLimits` bounds the exact repetition count kept per
segment, the number of segments per path, and the number of distinct paths
kept per path-matrix entry.  Exceeding a bound *widens* (never narrows) the
description — an exact count becomes open-ended, a long path collapses into
a ``D``-segment, an oversized path set collapses towards ``{S?, D+?}`` — so
the approximation stays conservative.  Every widening event is counted via
:mod:`repro.analysis.telemetry`, so a run can tell whether its bounds bit.

The defaults comfortably cover every example in the paper.  The ablation
bench (EXT-D, ``benchmarks/test_ext_analysis_cost.py``) sweeps them and
pins that the parallelizer's answers are the same at 2x and 4x the
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class AnalysisLimits:
    """Bounds that keep the path-expression domain finite."""

    #: Largest exact repetition count kept (e.g. ``L^8``); beyond this the
    #: segment is widened to an open-ended count (``L^8+`` -> ``L8+``).
    max_exact_count: int = 8

    #: Largest *minimum* count kept for open-ended segments.
    max_open_count: int = 8

    #: Maximum number of segments per path expression; longer paths collapse
    #: their tail into a single ``D`` segment.
    max_segments: int = 4

    #: Maximum number of distinct paths kept per path-matrix entry before the
    #: entry is collapsed.
    max_paths_per_entry: int = 8

    #: Maximum number of fixed-point iterations for loops / recursion before
    #: forcing a collapse (a safety net; the finite domain already terminates).
    max_iterations: int = 64

    #: Capacity of the memoized-transfer LRU cache (entries, not bytes).  Used
    #: when an :class:`~repro.analysis.context.AnalysisContext` builds its own
    #: private cache (e.g. for a batch run); the process-wide default cache
    #: uses :data:`DEFAULT_TRANSFER_CACHE_SIZE`.
    transfer_cache_size: int = 4096

    def __hash__(self) -> int:
        # Limits appear in every memoized-transfer key; the generated
        # dataclass hash re-hashes all six fields per lookup.  Cache it —
        # instances are frozen, so the value can never go stale.  (Pure
        # ints, so the cached value is PYTHONHASHSEED-independent, like
        # the generated hash it replaces.)
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash(
                (
                    self.max_exact_count,
                    self.max_open_count,
                    self.max_segments,
                    self.max_paths_per_entry,
                    self.max_iterations,
                    self.transfer_cache_size,
                )
            )
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def as_dict(self) -> Dict[str, int]:
        """The domain bounds as a plain JSON-able dict (persistent cache keys)."""
        return {
            "max_exact_count": self.max_exact_count,
            "max_open_count": self.max_open_count,
            "max_segments": self.max_segments,
            "max_paths_per_entry": self.max_paths_per_entry,
            "max_iterations": self.max_iterations,
        }


#: Default limits used when none are supplied.
DEFAULT_LIMITS = AnalysisLimits()

#: Capacity of the process-wide shared transfer cache.
DEFAULT_TRANSFER_CACHE_SIZE = 4096
