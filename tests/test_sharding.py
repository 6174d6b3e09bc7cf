"""Sharded suite runner: stats merging, bit-identity, failure isolation,
streaming collection and persistent warm starts."""

import pytest

from repro.analysis.context import AnalysisStats
from repro.analysis.pathset import intern_table_sizes
from repro.cache import CacheConfig
from repro.workloads import (
    WORKLOADS,
    ShardedSuiteReport,
    ShardedSuiteRunner,
    analyze_suite,
    generate_scenarios,
    source,
)
from repro.workloads.suite import SuiteResult

BROKEN_SOURCE = """
program broken

procedure main()
  x: int
begin
  x := y + 1
end
"""


def make_stats(**overrides):
    stats = AnalysisStats(
        worklist_pops=7,
        entry_updates=5,
        statements_visited=120,
        loop_iterations=3,
        transfer_cache_hits=40,
        transfer_cache_misses=9,
        matrices_allocated=64,
        programs_analyzed=2,
    )
    for key, value in overrides.items():
        setattr(stats, key, value)
    return stats


class TestAnalysisStatsMerge:
    def test_as_dict_from_dict_round_trip(self):
        stats = make_stats()
        rebuilt = AnalysisStats.from_dict(stats.as_dict())
        assert rebuilt == stats

    def test_from_dict_ignores_derived_and_global_keys(self):
        snapshot = make_stats().as_dict()
        assert "transfer_cache_hit_rate" in snapshot  # derived, present in dict
        rebuilt = AnalysisStats.from_dict(snapshot)
        # The derived property is recomputed, not stored.
        assert rebuilt.transfer_cache_hit_rate == pytest.approx(40 / 49)

    def test_merge_sums_every_counter(self):
        first, second = make_stats(), make_stats(worklist_pops=11, programs_analyzed=3)
        merged = first.merge(second)
        for name in AnalysisStats.COUNTER_FIELDS:
            assert getattr(merged, name) == getattr(first, name) + getattr(second, name)
        # merge() is non-destructive.
        assert first.worklist_pops == 7 and second.worklist_pops == 11

    def test_merge_split_round_trip(self):
        """Splitting counters into shards and merging them back is lossless."""
        whole = make_stats()
        parts = [AnalysisStats(), AnalysisStats(), AnalysisStats()]
        for name in AnalysisStats.COUNTER_FIELDS:
            total = getattr(whole, name)
            setattr(parts[0], name, total // 3)
            setattr(parts[1], name, total // 3)
            setattr(parts[2], name, total - 2 * (total // 3))
        assert AnalysisStats().merge(*parts) == whole

    def test_merge_identity(self):
        assert AnalysisStats().merge() == AnalysisStats()


class TestShardedEqualsSingleProcess:
    def test_identical_on_every_named_workload(self):
        """Sharded and single-process runs produce identical path matrices."""
        runner = ShardedSuiteRunner.from_names(depth=3, shards=3)
        sharded = runner.run()
        single = runner.run_single_process()

        assert sharded.ok and single.ok
        assert sorted(sharded.results) == sorted(WORKLOADS)
        assert sharded.matches(single)
        # Not just "matches": every per-point matrix encoding is equal.
        for name in WORKLOADS:
            assert sharded.results[name] == single.results[name]

    def test_identical_on_generated_scenarios(self):
        scenarios = generate_scenarios(8, base_seed=21)
        runner = ShardedSuiteRunner.from_scenarios(scenarios, shards=4)
        assert runner.run().matches(runner.run_single_process())

    def test_merged_stats_equal_shard_sums(self):
        runner = ShardedSuiteRunner.from_names(depth=3, shards=3)
        report = runner.run()
        assert len(report.shards) == 3
        for name in AnalysisStats.COUNTER_FIELDS:
            assert getattr(report.stats, name) == sum(
                getattr(shard.stats, name) for shard in report.shards
            )
        assert report.stats.programs_analyzed == len(WORKLOADS)

    def test_intern_tables_sized_per_worker_and_summed(self):
        """Interning tables are reported as per-worker growth and sum exactly.

        The hash-consing tables are process-global: absolute sizes read in
        the parent would silently reflect only the parent's own interning
        (fork workers inherit them pre-populated, spawn workers start
        empty).  Each shard therefore ships its before/after *delta*, and
        the merged report sums the deltas across workers.
        """
        scenarios = generate_scenarios(6, base_seed=97)
        runner = ShardedSuiteRunner.from_scenarios(scenarios, shards=3)
        report = runner.run()
        assert report.ok
        expected_tables = set(intern_table_sizes())
        for shard in report.shards:
            assert set(shard.intern_tables) == expected_tables
            assert all(size >= 0 for size in shard.intern_tables.values())
        for table in expected_tables:
            assert report.intern_tables[table] == sum(
                shard.intern_tables[table] for shard in report.shards
            )
        # Fresh scenario content interns fresh domain values in the workers,
        # which only per-worker sizing can observe.
        assert sum(report.intern_tables.values()) > 0
        payload = report.as_dict()
        assert payload["intern_tables"] == report.intern_tables
        assert all("intern_tables" in shard for shard in payload["shards"])

    def test_round_robin_preserves_input_order_in_results(self):
        runner = ShardedSuiteRunner.from_names(depth=3, shards=4)
        report = runner.run()
        assert list(report.results) == list(WORKLOADS)

    def test_single_shard_runs_inline(self):
        runner = ShardedSuiteRunner.from_names(names=["tree_add"], depth=3, shards=1)
        report = runner.run()
        assert report.ok and list(report.results) == ["tree_add"]
        assert len(report.shards) == 1

    def test_as_dict_is_json_shaped(self):
        import json

        runner = ShardedSuiteRunner.from_names(names=["tree_add", "list_walk"], depth=3)
        payload = runner.run().as_dict()
        assert payload["workloads_analyzed"] == 2
        assert len(payload["shards"]) == 2
        json.dumps(payload)  # must be JSON-serializable as-is
        # Per-workload widening telemetry rides along in the payload.
        assert sorted(payload["widening"]) == ["list_walk", "tree_add"]
        for row in payload["widening"].values():
            assert set(row) == set(AnalysisStats.WIDENING_FIELDS)


class TestShardingSafeWideningCounts:
    """The satellite regression: widening telemetry survives sharding exactly.

    The old process-global ``segment_truncation_count`` silently lost every
    count accumulated inside worker processes.  The per-context counters
    are shipped back with each shard's stats, and transfer-cache hits
    replay the counts captured at compute time — so the merged sharded
    counters must equal the single-process run's, workload by workload.
    """

    def test_merged_sharded_widening_equals_single_process(self):
        # Includes the dag/deep families, which widen at default limits.
        scenarios = generate_scenarios(12, base_seed=33)
        runner = ShardedSuiteRunner.from_scenarios(scenarios, shards=3)
        sharded = runner.run()
        single = runner.run_single_process()
        assert sharded.ok and single.ok
        for name in AnalysisStats.WIDENING_FIELDS:
            assert getattr(sharded.stats, name) == getattr(single.stats, name), name
        # Something must actually have widened for this test to mean anything.
        assert any(sharded.stats.widening_counters().values())
        # Per-workload rows agree too, not just the totals.
        assert sharded.widening == single.widening


class TestStreamingCollection:
    """run() consumes shard outputs as they finish (imap_unordered)."""

    def test_progress_receives_every_shard_output(self):
        runner = ShardedSuiteRunner.from_names(depth=3, shards=3)
        seen = []
        report = runner.run(progress=seen.append)
        assert sorted(output["shard"] for output in seen) == [0, 1, 2]
        # Each streamed output already carries that shard's per-workload
        # results and failures — nothing waits for the final barrier.
        streamed = {name for output in seen for name in output["results"]}
        assert streamed == set(report.results) == set(WORKLOADS)
        for output in seen:
            assert set(output["workloads"]) >= set(output["results"])

    def test_streaming_does_not_change_the_merged_report(self):
        runner = ShardedSuiteRunner.from_names(depth=3, shards=2)
        with_progress = runner.run(progress=lambda output: None)
        without_progress = runner.run()
        assert with_progress.matches(without_progress)

    def test_results_digest_tracks_matches(self):
        runner = ShardedSuiteRunner.from_names(names=["tree_add", "list_walk"], depth=3)
        first, second = runner.run(), runner.run_single_process()
        assert first.matches(second)
        assert first.results_digest() == second.results_digest()
        assert first.as_dict()["results_digest"] == first.results_digest()


class TestPersistentWarmStart:
    """Acceptance: a sharded warm run against a populated store is
    bit-identical to a cold single-process run, with the persistent
    counters merged per shard."""

    def test_sharded_warm_run_bit_identical_to_cold_single_process(self, tmp_path):
        scenarios = generate_scenarios(6, base_seed=5)
        config = CacheConfig(directory=str(tmp_path))

        # Cold single-process run populates the store.
        cold_runner = ShardedSuiteRunner.from_scenarios(scenarios, shards=1, cache=config)
        cold = cold_runner.run_single_process()
        assert cold.ok and cold.stats.persistent_cache_writes > 0

        # Sharded warm run against the populated store.
        warm_runner = ShardedSuiteRunner.from_scenarios(scenarios, shards=3, cache=config)
        warm = warm_runner.run()
        assert warm.matches(cold)
        assert warm.results_digest() == cold.results_digest()
        assert warm.stats.persistent_cache_hits > 0
        assert warm.stats.transfer_cache_misses == 0  # nothing recomputed
        assert warm.stats.persistent_cache_hit_rate == pytest.approx(1.0)
        # Widening telemetry replays exactly from the stored tallies.
        assert warm.stats.widening_counters() == cold.stats.widening_counters()
        assert warm.widening == cold.widening

    def test_persistent_counters_merge_per_shard(self, tmp_path):
        config = CacheConfig(directory=str(tmp_path))
        runner = ShardedSuiteRunner.from_names(depth=3, shards=3, cache=config)
        report = runner.run()
        persistent_fields = (
            "persistent_cache_hits",
            "persistent_cache_misses",
            "persistent_cache_writes",
            "persistent_cache_evictions",
            "transfer_cache_evictions",
        )
        for name in persistent_fields:
            assert getattr(report.stats, name) == sum(
                getattr(shard.stats, name) for shard in report.shards
            ), name
        assert report.stats.persistent_cache_misses > 0
        payload = report.as_dict()
        assert payload["stats"]["persistent_cache_writes"] > 0
        assert "persistent_cache_hit_rate" in payload["stats"]


class TestMatchesComparesFailurePayloads:
    """Satellite regression: ``matches`` must compare failure *payloads*."""

    def make_report(self, failures):
        return ShardedSuiteReport(results={}, failures=failures, stats=AnalysisStats())

    def test_same_keys_different_messages_do_not_match(self):
        first = self.make_report({"broken": "TypeCheckError: y is undeclared"})
        second = self.make_report({"broken": "ParseError: unexpected token"})
        assert not first.matches(second)

    def test_identical_payloads_match(self):
        failures = {"broken": "TypeCheckError: y is undeclared"}
        assert self.make_report(dict(failures)).matches(self.make_report(dict(failures)))


class TestFailureIsolation:
    def test_analyze_suite_surfaces_failures(self, monkeypatch):
        monkeypatch.setitem(WORKLOADS, "broken", BROKEN_SOURCE)
        results = analyze_suite(["tree_add", "broken", "list_walk"], depth=3)
        assert isinstance(results, SuiteResult)
        assert sorted(results) == ["list_walk", "tree_add"]
        assert set(results.failures) == {"broken"}
        assert isinstance(results.failures["broken"], Exception)
        # The shared stats object is reachable and covers the successes.
        assert results.stats.programs_analyzed == 2
        assert results["tree_add"].stats is results.stats

    def test_analyze_suite_unknown_name_is_a_failure_not_an_abort(self):
        results = analyze_suite(["tree_add", "no_such_workload"], depth=3)
        assert "tree_add" in results
        assert isinstance(results.failures["no_such_workload"], KeyError)

    def test_sharded_runner_surfaces_failures(self):
        items = [
            ("good", source("tree_add", depth=3)),
            ("broken", BROKEN_SOURCE),
            ("also_good", source("list_walk", depth=3)),
        ]
        runner = ShardedSuiteRunner(items, shards=2)
        report = runner.run()
        assert sorted(report.results) == ["also_good", "good"]
        assert set(report.failures) == {"broken"}
        assert "TypeCheckError" in report.failures["broken"]
        assert not report.ok
        assert report.matches(runner.run_single_process())

    def test_duplicate_names_rejected(self):
        text = source("tree_add", depth=3)
        with pytest.raises(ValueError, match="duplicate"):
            ShardedSuiteRunner([("same", text), ("same", text)])
