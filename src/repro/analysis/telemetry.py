"""Widening telemetry: first-class counters for the domain's finiteness bounds.

The path-expression domain stays finite by *widening* (see
:mod:`repro.analysis.limits`): over-long exact counts become open-ended,
over-long paths collapse their tail into a ``D`` segment, and oversized
path sets collapse towards ``{S?, D+?}``.  Those events are the evidence
that the configured :class:`~repro.analysis.limits.AnalysisLimits` actually
bit — the signal the per-workload widening rows and the workload benches
report.

The domain operations that widen (:func:`repro.analysis.paths.make_path`
normalization, :meth:`repro.analysis.pathset.PathSet.collapse`) are pure
functions with no analysis context in scope, so events are reported through
a small module-level *scope stack*:

* :func:`widening_scope` installs a tally (usually an
  :class:`~repro.analysis.context.AnalysisStats`, which carries the same
  counter attributes) for the duration of a pipeline run;
* the ``note_*`` functions increment the innermost active tally — events
  are attributed to exactly one owner, never double-counted;
* :class:`WideningTally` is the plain counter bag the memoized transfer
  layer uses to *capture* the events of one transfer computation so they
  can be stored with the cache entry and replayed on every later hit
  (see :func:`repro.analysis.transfer.apply_basic_statement_cached`).
  Replay-on-hit is what makes the counters exact under memoization — and
  therefore exactly additive across shard processes.

With no scope installed (e.g. the retained reference engine, which keeps
no stats) the ``note_*`` functions are no-ops.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List


@dataclass
class WideningTally:
    """Counters for the three domain-level widening events.

    Any object with these three integer attributes can serve as a scope
    target; :class:`~repro.analysis.context.AnalysisStats` does.
    """

    #: Paths whose tail collapsed into a ``D`` segment (``max_segments``).
    segment_collapses: int = 0
    #: Exact repetition counts widened to open-ended (``max_exact_count``).
    exact_widenings: int = 0
    #: Oversized path-matrix entries collapsed (``max_paths_per_entry``).
    path_set_collapses: int = 0

    FIELDS = ("segment_collapses", "exact_widenings", "path_set_collapses")

    def add_into(self, target) -> None:
        """Add these counts onto any object carrying the same attributes.

        Attributes the target lacks are skipped: the transfer layer accepts
        minimal stats objects that only track hit/miss counters.
        """
        for name in self.FIELDS:
            current = getattr(target, name, None)
            if current is not None:
                setattr(target, name, current + getattr(self, name))


#: The active scope stack; ``note_*`` hits the innermost entry only.
_SCOPES: List[object] = []


@contextmanager
def widening_scope(tally) -> Iterator[object]:
    """Route widening events to ``tally`` while the block runs.

    Scopes nest: the innermost one wins, so a transfer-level capture
    temporarily shadows the run-level stats (the transfer layer is then
    responsible for folding the captured delta back — once — wherever it
    belongs).
    """
    _SCOPES.append(tally)
    try:
        yield tally
    finally:
        _SCOPES.pop()


def note_segment_collapse() -> None:
    """A path lost tail structure to the ``max_segments`` bound."""
    if _SCOPES:
        _SCOPES[-1].segment_collapses += 1


def note_exact_widening() -> None:
    """An exact repetition count was widened to open-ended."""
    if _SCOPES:
        _SCOPES[-1].exact_widenings += 1


def note_path_set_collapse() -> None:
    """An oversized path-matrix entry was collapsed."""
    if _SCOPES:
        _SCOPES[-1].path_set_collapses += 1
