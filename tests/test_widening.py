"""Widening telemetry and limit-boundary behavior.

Covers the per-context widening counters that replaced the old
process-global ``segment_truncation_count``:

* exact boundary behavior of every ``AnalysisLimits`` bound in ``paths.py``
  / ``pathset.py`` (at the limit: untouched; one past it: widened, counted);
* the transfer cache *replaying* captured widening counts on hits, so the
  counters read identically whether a transfer was computed or memoized.
"""

import pytest

from repro.analysis import (
    AnalysisLimits,
    BatchAnalyzer,
    WideningTally,
    analyze_program,
    widening_scope,
)
from repro.analysis.context import AnalysisStats
from repro.analysis.matrix import PathMatrix
from repro.analysis.paths import Direction, Path, PathSegment, make_path, parse_path
from repro.analysis.pathset import PathSet
from repro.analysis.transfer import TransferCache, apply_basic_statement_cached
from repro.sil import ast
from repro.workloads import load

LIMITS = AnalysisLimits()  # the defaults: k=8, segments=4, paths/entry=8


def seg(direction, count, exact=True):
    return PathSegment(Direction(direction), count, exact)


class TestSegmentBoundaries:
    def test_exact_count_at_limit_is_untouched(self):
        with widening_scope(WideningTally()) as tally:
            path = make_path([seg("L", LIMITS.max_exact_count)], limits=LIMITS)
        assert path == parse_path(f"L{LIMITS.max_exact_count}")
        assert path.segments[0].exact
        assert not tally.fired

    def test_exact_count_one_past_limit_widens_to_open(self):
        with widening_scope(WideningTally()) as tally:
            path = make_path([seg("L", LIMITS.max_exact_count + 1)], limits=LIMITS)
        assert path == parse_path(f"L{LIMITS.max_exact_count}+")
        assert not path.segments[0].exact
        assert tally.exact_widenings == 1
        assert tally.segment_collapses == 0

    def test_open_count_clamps_at_max_open_count(self):
        with widening_scope(WideningTally()) as tally:
            path = make_path(
                [seg("R", LIMITS.max_open_count + 3, exact=False)], limits=LIMITS
            )
        assert path.segments[0].count == LIMITS.max_open_count
        assert not path.segments[0].exact
        # Clamping an already-open count loses no exactness: it is not one
        # of the counted widening events.
        assert not tally.fired

    def test_path_at_max_segments_is_untouched(self):
        segments = [seg("LRLR"[i % 4], 1) for i in range(LIMITS.max_segments)]
        with widening_scope(WideningTally()) as tally:
            path = make_path(segments, limits=LIMITS)
        assert len(path.segments) == LIMITS.max_segments
        assert not tally.fired

    def test_path_exactly_one_segment_too_long_collapses_tail(self):
        segments = [seg("LRLRL"[i % 5], 1) for i in range(LIMITS.max_segments + 1)]
        with widening_scope(WideningTally()) as tally:
            path = make_path(segments, limits=LIMITS)
        assert tally.segment_collapses == 1
        assert len(path.segments) <= LIMITS.max_segments
        # The collapsed tail joins L and R into a D segment.
        assert path.segments[-1].direction is Direction.DOWN
        # The collapse is sound: the minimum length is preserved.
        assert path.min_length == LIMITS.max_segments + 1


class TestPathSetCollapseBoundary:
    def make_overfull_set(self, extra=1):
        """``{S?}`` plus ``max_paths_per_entry + extra - 1`` distinct paths."""
        paths = [Path((), False)]
        for count in range(1, LIMITS.max_paths_per_entry + extra):
            paths.append(parse_path(f"L{count}" if count <= 8 else f"R{count - 8}"))
        return PathSet(paths)

    def test_set_at_limit_is_untouched(self):
        full = self.make_overfull_set(extra=0)
        assert len(full) == LIMITS.max_paths_per_entry
        with widening_scope(WideningTally()) as tally:
            assert full.collapse(LIMITS) is full
        assert not tally.fired

    def test_set_one_past_limit_collapses_to_same_plus_descendant(self):
        overfull = self.make_overfull_set(extra=1)
        assert len(overfull) == LIMITS.max_paths_per_entry + 1
        with widening_scope(WideningTally()) as tally:
            collapsed = overfull.collapse(LIMITS)
        assert tally.path_set_collapses == 1
        # The paper's {S?, D+}-style shape: the S member survives separately,
        # every proper path generalizes into one open-ended segment.
        assert collapsed.has_possible_same
        proper = [path for path in collapsed if not path.is_same]
        assert len(proper) == 1
        assert len(proper[0].segments) == 1
        assert not proper[0].segments[0].exact

    def test_collapse_event_is_counted_even_on_memo_hit(self):
        overfull = self.make_overfull_set(extra=1)
        first_result = overfull.collapse(LIMITS)  # populate the memo table
        with widening_scope(WideningTally()) as tally:
            assert overfull.collapse(LIMITS) is first_result
        assert tally.path_set_collapses == 1


class TestTransferCacheReplay:
    def tiny_setup(self):
        limits = AnalysisLimits(max_segments=1)
        matrix = PathMatrix(["x", "b", "a"], limits=limits)
        matrix.set("x", "b", PathSet.parse("L1"))
        stmt = ast.LoadField(target="a", source="b", field_name=ast.Field.RIGHT)
        return limits, matrix, stmt

    def test_hit_replays_the_captured_widening_counts(self):
        limits, matrix, stmt = self.tiny_setup()
        cache = TransferCache(capacity=16)
        computed, replayed = AnalysisStats(), AnalysisStats()
        first = apply_basic_statement_cached(matrix, stmt, limits, cache, computed)
        second = apply_basic_statement_cached(
            matrix.copy(), stmt, limits, cache, replayed
        )
        assert second is first
        assert computed.transfer_cache_misses == 1 and replayed.transfer_cache_hits == 1
        # x→b (L1) extended by the R edge is L1R1: two segments under
        # max_segments=1, so the miss widened — and the hit must report the
        # exact same counts without recomputing anything.
        assert computed.segment_collapses == 1
        assert replayed.widening_counters() == computed.widening_counters()

    def test_miss_events_are_not_double_counted_into_an_outer_scope(self):
        limits, matrix, stmt = self.tiny_setup()
        stats = AnalysisStats()
        with widening_scope(stats):
            apply_basic_statement_cached(matrix, stmt, limits, TransferCache(16), stats)
        assert stats.segment_collapses == 1


class TestIterationGuard:
    def test_loop_safety_net_trip_is_counted(self):
        program, info = load("list_walk", depth=3)
        strangled = AnalysisLimits(max_iterations=1)
        result = analyze_program(program, info, limits=strangled)
        assert result.stats.iteration_guard_trips >= 1

    def test_default_limits_never_trip_on_named_workloads(self):
        for name in ("add_and_reverse", "bst_build", "list_walk", "bitonic_sort"):
            result = analyze_program(*load(name, depth=3))
            assert result.stats.iteration_guard_trips == 0, name

    def test_solver_guard_is_per_program_not_batch_cumulative(self):
        """Regression: the solver's pop bound must use this run's delta.

        A long batch shares one stats object; comparing the *cumulative*
        pop count against the per-program bound made late batch entries
        trip the guard spuriously and return pre-fixed-point results.
        """
        # max_iterations=2 shrinks the per-program bound (16*2*4 = 128 for
        # add_and_reverse's 4 procedures) so ~12-pop runs cross the old
        # cumulative check within a quick loop.
        limits = AnalysisLimits(max_iterations=2)
        batch = BatchAnalyzer(limits=limits)
        program, info = load("add_and_reverse", depth=3)
        reference = analyze_program(program, info, limits=limits)
        for _ in range(20):
            last = batch.analyze(program, info)
        assert batch.stats.worklist_pops > 128  # the old guard would have hit
        assert batch.stats.iteration_guard_trips == 0
        assert last.canonical() == reference.canonical()


class TestStatsRoundTrip:
    def test_merge_after_round_trip_recomputes_hit_rate_from_raw_counts(self):
        """Satellite regression: the rounded rate in ``as_dict`` is advisory.

        ``transfer_cache_hit_rate`` is rounded to 4 places in the snapshot;
        rebuilding via ``from_dict`` and merging must recompute the rate
        from the raw hit/miss counters, not average the rounded field.
        """
        first = AnalysisStats(transfer_cache_hits=1, transfer_cache_misses=2)
        second = AnalysisStats(transfer_cache_hits=2, transfer_cache_misses=1)
        rebuilt_first = AnalysisStats.from_dict(first.as_dict())
        rebuilt_second = AnalysisStats.from_dict(second.as_dict())
        merged = rebuilt_first.merge(rebuilt_second)
        assert merged.transfer_cache_hits == 3 and merged.transfer_cache_misses == 3
        # Exactly 0.5 — not the 0.33335 mean of the two rounded snapshots.
        assert merged.transfer_cache_hit_rate == 0.5
        assert first.as_dict()["transfer_cache_hit_rate"] == pytest.approx(0.3333)

    def test_widening_counters_survive_the_round_trip_and_merge(self):
        stats = AnalysisStats(
            segment_collapses=3,
            exact_widenings=2,
            path_set_collapses=7,
            iteration_guard_trips=1,
        )
        rebuilt = AnalysisStats.from_dict(stats.as_dict())
        assert rebuilt == stats
        doubled = rebuilt.merge(rebuilt)
        assert doubled.widening_counters() == {
            "segment_collapses": 6,
            "exact_widenings": 4,
            "path_set_collapses": 14,
            "iteration_guard_trips": 2,
        }

    def test_widening_fired_compares_against_a_snapshot(self):
        stats = AnalysisStats()
        assert not stats.widening_fired()
        snapshot = stats.widening_counters()
        stats.path_set_collapses += 1
        assert stats.widening_fired(snapshot)
        assert not stats.widening_fired(stats.widening_counters())
