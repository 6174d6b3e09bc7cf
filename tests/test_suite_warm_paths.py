"""Direct tests for the warm suite paths: ``analyze_pairs`` / ``run_warm``.

These are the server's backend loops, here exercised without a daemon in
the way: per-call reports must be exact *deltas* that sum into the owning
batch's lifetime totals, per-pair failures must be isolated, and a warm
second pass over the same batch must be bit-identical to the first.
"""

import pytest

from repro.analysis.context import AnalysisStats
from repro.analysis.engine import BatchAnalyzer
from repro.cache import CacheConfig
from repro.cache.memory import reset_memory_backends
from repro.workloads.suite import ShardedSuiteRunner, analyze_pairs, source

NAMES = ["dag_sharing", "add_and_reverse", "tree_mirror"]
PAIRS = [(name, source(name)) for name in NAMES]

BROKEN = "program broken\nprocedure main() x: int begin x := y end\n"


def fresh_batch():
    return BatchAnalyzer()


class TestAnalyzePairsDirect:
    def test_fresh_batch_deltas_equal_absolute_counters(self):
        batch = fresh_batch()
        output = analyze_pairs(batch, PAIRS)
        assert sorted(output["results"]) == sorted(NAMES)
        assert not output["failures"]
        # For a fresh batch the growth over the call IS the batch state.
        assert output["stats"] == batch.stats.counters()

    def test_failures_are_isolated_per_pair(self):
        batch = fresh_batch()
        output = analyze_pairs(batch, [("broken", BROKEN)] + PAIRS)
        assert list(output["failures"]) == ["broken"]
        assert "TypeCheckError" in output["failures"]["broken"]
        assert sorted(output["results"]) == sorted(NAMES)
        # The healthy pairs still carry widening telemetry rows.
        assert sorted(output["widening"]) == sorted(NAMES)

    def test_per_call_deltas_sum_to_batch_totals(self):
        batch = fresh_batch()
        first = analyze_pairs(batch, PAIRS[:2])
        second = analyze_pairs(batch, PAIRS[2:])
        summed = AnalysisStats.from_dict(first["stats"]).merge(
            AnalysisStats.from_dict(second["stats"])
        )
        assert summed.counters() == batch.stats.counters()


class TestRunWarmDirect:
    def test_warm_second_pass_is_bit_identical(self):
        # A re-submitted source is freshly parsed into new statement
        # objects; the content-keyed in-memory memo answers every transfer
        # anyway, so the second pass never consults the persistent tier.
        reset_memory_backends()
        config = CacheConfig(backend="memory", directory="warm-paths-test")
        batch = BatchAnalyzer(cache=config)
        runner = ShardedSuiteRunner(PAIRS, shards=1)
        first = runner.run_warm(batch)
        second = runner.run_warm(batch)
        assert first.results == second.results
        assert first.results_digest() == second.results_digest()
        assert not first.failures and not second.failures
        assert first.stats.persistent_cache_writes > 0
        assert second.stats.transfer_cache_misses == 0
        assert second.stats.transfer_cache_hit_rate == 1.0
        assert second.stats.persistent_cache_hits == 0
        assert second.stats.persistent_cache_misses == 0
        assert second.stats.persistent_cache_writes == 0

        # A fresh batch over the same memory namespace starts with a cold
        # memo: there the read-through to the persistent tier serves.
        fresh = runner.run_warm(BatchAnalyzer(cache=config))
        assert fresh.results == first.results
        assert fresh.stats.persistent_cache_hits > 0
        assert fresh.stats.persistent_cache_misses == 0
        assert fresh.stats.persistent_cache_writes == 0
        assert fresh.stats.transfer_cache_misses == 0

    def test_warm_reports_sum_to_batch_lifetime(self):
        batch = fresh_batch()
        runner = ShardedSuiteRunner(PAIRS, shards=1)
        reports = [runner.run_warm(batch) for _ in range(3)]
        summed = AnalysisStats().merge(*(report.stats for report in reports))
        assert summed.counters() == batch.stats.counters()

    def test_run_warm_matches_cold_single_process_results(self):
        cold = ShardedSuiteRunner(PAIRS, shards=1).run_single_process()
        warm = ShardedSuiteRunner(PAIRS, shards=1).run_warm(fresh_batch())
        assert cold.results == warm.results
