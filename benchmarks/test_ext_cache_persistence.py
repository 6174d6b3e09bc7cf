"""EXT-F — warm-vs-cold persistent transfer-cache micro-benchmark.

The ROADMAP's next scaling rung after sharding: a persistent (cross-run)
transfer-cache backend so shards — and whole reruns — stop re-missing
shared transfers.  This bench runs the same population twice against one
disk store and asserts the contract that makes the warm path worth having:

* the **cold** run computes every unique transfer once and writes exactly
  its unique-key count (``persistent_cache_writes``) into the store;
* the **warm** run (a fresh ``BatchAnalyzer``, fresh in-memory cache —
  the in-process stand-in for a fresh process, which
  ``tests/test_cache_determinism.py`` covers with real subprocesses)
  performs **no more transfer computations than the cold run's
  unique-key count** — in fact zero, since the population is identical —
  while producing bit-identical canonical results and replaying the cold
  run's widening telemetry exactly.

Timings are printed for eyeballing, not asserted: decode-from-store versus
recompute is environment-dependent, but the *work counters* are exact.
"""

import time

from conftest import banner

from repro.analysis.engine import BatchAnalyzer
from repro.cache import CacheConfig
from repro.sil.normalize import parse_and_normalize
from repro.workloads import WORKLOADS, generate_scenarios
from repro.workloads.suite import source


def _population():
    sources = [source(name, depth=3) for name in WORKLOADS]
    sources += [s.source for s in generate_scenarios(6, base_seed=17)]
    return sources


def _run(config: CacheConfig):
    batch = BatchAnalyzer(cache=config)
    started = time.perf_counter()
    canonicals = []
    for text in _population():
        program, info = parse_and_normalize(text)
        canonicals.append(batch.analyze(program, info).canonical())
    batch.close()
    return batch.stats, canonicals, time.perf_counter() - started


def test_ext_warm_run_never_recomputes_cold_unique_keys(tmp_path):
    config = CacheConfig(directory=str(tmp_path))

    cold_stats, cold_results, cold_seconds = _run(config)
    warm_stats, warm_results, warm_seconds = _run(config)

    banner("EXT-F — persistent transfer cache: cold vs warm run")
    print(f"{'':14s}{'computed':>9s} {'p-hits':>7s} {'p-miss':>7s} {'writes':>7s} {'seconds':>8s}")
    for label, stats, seconds in (
        ("cold", cold_stats, cold_seconds),
        ("warm", warm_stats, warm_seconds),
    ):
        print(
            f"{label:14s}{stats.transfer_cache_misses:9d} "
            f"{stats.persistent_cache_hits:7d} {stats.persistent_cache_misses:7d} "
            f"{stats.persistent_cache_writes:7d} {seconds:8.3f}"
        )
    print(f"\nwarm persistent hit rate: {warm_stats.persistent_cache_hit_rate:.4f}")

    # The cold run's unique-key count is exactly what it wrote to the store.
    unique_keys = cold_stats.persistent_cache_writes
    assert unique_keys > 0
    assert cold_stats.transfer_cache_misses >= unique_keys

    # The warm-run contract: no more computations than the cold run's
    # unique keys — and for an identical population, none at all.
    assert warm_stats.transfer_cache_misses <= unique_keys
    assert warm_stats.transfer_cache_misses == 0
    assert warm_stats.persistent_cache_hits > 0
    assert warm_stats.persistent_cache_writes == 0  # nothing new to flush

    # Same results, same replayed widening telemetry.
    assert warm_results == cold_results
    assert warm_stats.widening_counters() == cold_stats.widening_counters()
