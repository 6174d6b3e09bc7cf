"""Chaos-harness tests: seeded fault injection and end-to-end recovery.

The contract pinned here, layer by layer:

* **Plan grammar & determinism** — ``SITE=KIND[:PROB[:MATCH[:DELAY]]]``
  specs parse into frozen, picklable plans; every fire decision is a pure
  hash of ``(seed, site, kind, key, occurrence)``, so a chaos scenario
  replays identically run over run.
* **Zero cost when idle** — with no plan installed, ``fault_fire`` returns
  ``None`` and nothing else happens (the cold-median ratchet in
  ``benchmarks/test_ext_obs_overhead.py`` pins the "no plan installed"
  overhead; here we pin the semantics).
* **Shard recovery** — a crashed worker or poisoned shard output gets its
  pending workloads requeued under a bounded attempt budget, and the merged
  report is *bit-identical* (results digest) to a fault-free run; exhausted
  retries surface as honest per-workload failures, never silent drops.
* **Cache degradation** — corrupt persistent-store payloads are quarantined
  (discarded + treated as misses) and recomputed; backend I/O errors are
  retried at the disk tier, then tolerated by the transfer tier until its
  circuit breaker drops to memory-only.  Results never change, only the
  counters.
* **Daemon backpressure & client backoff** — past ``max_inflight`` the
  daemon sheds heavy requests with a retryable ``overloaded`` error while
  ``health`` still answers; the client retries idempotent ops through
  injected connection drops with exponential backoff, bounded by its
  deadline, and never retries non-idempotent ops.
"""

from __future__ import annotations

import pickle
import sqlite3
import sys
import time
import uuid
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.analysis.engine import BatchAnalyzer
from repro.analysis.transfer import TransferCache
from repro.cache.backend import CacheConfig
from repro.cache.disk import DiskBackend, STORE_FILENAME
from repro.cache.memory import MemoryBackend
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    current_fault_plan,
    fault_fire,
    fault_scope,
    injected_counts,
    install_fault_plan,
    uninstall_fault_plan,
)
from repro.faults.plan import draw
from repro.server import (
    AnalysisClient,
    AnalysisServer,
    ServerConfig,
    ServerError,
)
from repro.server.client import IDEMPOTENT_OPS
from repro.server.daemon import KNOWN_OPS
from repro.server.protocol import ERR_OVERLOADED, ConnectionClosed, ProtocolError
from repro.workloads.suite import DEFAULT_MAX_ATTEMPTS, ShardedSuiteRunner

#: A small, fast subset of the named workloads (the full suite is pinned
#: elsewhere; chaos tests re-run these many times).
NAMES = ["list_walk", "tree_add", "swap_children", "cycle_bug"]


@pytest.fixture(autouse=True)
def _no_plan_leaks():
    """Every test starts and ends with no process-global plan installed."""
    uninstall_fault_plan()
    yield
    uninstall_fault_plan()


@pytest.fixture(scope="module")
def baseline():
    """The fault-free reference: digest + failures of the NAMES suite."""
    report = ShardedSuiteRunner.from_names(NAMES, shards=1).run()
    assert not report.failures
    return report


# ---------------------------------------------------------------------------
# plan grammar and the deterministic draw
# ---------------------------------------------------------------------------


class TestPlanGrammar:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(["shard.workload=crash:0.5:@0:0.2"], seed=9)
        assert plan.seed == 9
        (rule,) = plan.rules
        assert rule.site == "shard.workload"
        assert rule.kind == "crash"
        assert rule.probability == 0.5
        assert rule.match == "@0"
        assert rule.delay == 0.2

    def test_parse_defaults(self):
        (rule,) = FaultPlan.parse(["cache.get=io_error"]).rules
        assert rule.probability == 1.0
        assert rule.match == ""

    @pytest.mark.parametrize(
        "spec",
        [
            "no-equals-sign",
            "cache.get=meteor_strike",  # unknown kind
            "cache.get=io_error:2.0",  # probability out of range
            "cache.get=io_error:0",  # zero probability is meaningless
            "cache.get=io_error:soon",  # non-numeric probability
            "cache.get=io_error:1.0:x:later",  # non-numeric delay
            "cache.get=io_error:1.0:x:0.1:extra",  # too many pieces
        ],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse([spec])

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(site="", kind="crash").validated()
        with pytest.raises(ValueError):
            FaultRule(site="cache.get", kind="crash", delay=-1).validated()
        for kind in FAULT_KINDS:
            FaultRule(site="cache.get", kind=kind).validated()

    def test_draw_is_deterministic_and_occurrence_sensitive(self):
        a = draw(7, "cache.get", "io_error", "deadbeef#1")
        assert a == draw(7, "cache.get", "io_error", "deadbeef#1")
        assert 0.0 <= a < 1.0
        # Different occurrence, seed, or site: an independent draw.
        assert a != draw(7, "cache.get", "io_error", "deadbeef#2")
        assert a != draw(8, "cache.get", "io_error", "deadbeef#1")

    def test_plan_pickles_roundtrip(self):
        plan = FaultPlan.parse(
            ["shard.worker=crash:0.3", "cache.payload=corrupt:1.0:#1"], seed=4
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_describe_reparses_to_the_same_plan(self):
        plan = FaultPlan.parse(["shard.workload=crash:0.5:@0", "cache.get=io_error"])
        assert FaultPlan.parse(plan.describe()) == plan


class TestInjector:
    def test_zero_cost_when_uninstalled(self):
        assert current_fault_plan() is None
        assert fault_fire("cache.get", "any-key") is None
        assert injected_counts() == {}

    def test_occurrence_scoped_match(self):
        install_fault_plan(FaultPlan.parse(["cache.get=io_error:1.0:#1"]))
        assert fault_fire("cache.get", "k1") is not None  # occurrence 1
        assert fault_fire("cache.get", "k1") is None  # occurrence 2
        assert fault_fire("cache.get", "k2") is not None  # fresh key
        assert injected_counts() == {("cache.get", "io_error"): 2}

    def test_unmatched_site_never_fires(self):
        install_fault_plan(FaultPlan.parse(["cache.get=io_error"]))
        assert fault_fire("server.frame", "ping") is None

    def test_fault_scope_restores_the_previous_plan(self):
        ambient = FaultPlan.parse(["cache.get=io_error"])
        install_fault_plan(ambient)
        inner = FaultPlan.parse(["cache.write=io_error"])
        with fault_scope(inner):
            assert current_fault_plan() == inner
        assert current_fault_plan() == ambient
        with fault_scope(None):  # None: leave the ambient plan untouched
            assert current_fault_plan() == ambient


# ---------------------------------------------------------------------------
# shard crash recovery: requeue, bit-identity, honest exhaustion
# ---------------------------------------------------------------------------


class TestShardRecovery:
    def _crash_first_attempts(self, shards):
        plan = FaultPlan.parse(["shard.workload=crash:1.0:@0"])
        runner = ShardedSuiteRunner.from_names(NAMES, shards=shards, faults=plan)
        return runner.run()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_crash_requeue_is_bit_identical(self, baseline, shards):
        report = self._crash_first_attempts(shards)
        assert not report.failures
        assert report.results_digest() == baseline.results_digest()
        # Every workload took exactly two attempts: crash, then success.
        assert report.attempts == {name: 2 for name in NAMES}
        assert report.metrics.counter("suite.workload_retries").value == len(NAMES)
        assert (
            report.metrics.counter(
                "faults.injected_total", site="shard.workload", kind="crash"
            ).value
            > 0
        )
        # The runner's plan never leaks out of the run.
        assert current_fault_plan() is None

    def test_dead_worker_requeues_the_whole_shard(self, baseline):
        plan = FaultPlan.parse(["shard.worker=crash:1.0:@0"])
        report = ShardedSuiteRunner.from_names(NAMES, shards=2, faults=plan).run()
        assert not report.failures
        assert report.results_digest() == baseline.results_digest()
        assert (
            report.metrics.counter("suite.shard_crashes_total", kind="worker").value
            == 2
        )

    def test_exhausted_retries_fail_honestly(self):
        plan = FaultPlan.parse(["shard.workload=crash:1.0"])  # every attempt
        report = ShardedSuiteRunner.from_names(
            NAMES, shards=1, faults=plan, max_attempts=2
        ).run()
        assert not report.ok
        assert set(report.failures) == set(NAMES)
        for message in report.failures.values():
            assert "retries exhausted" in message
        assert (
            report.metrics.counter("suite.workloads_abandoned_total").value
            == len(NAMES)
        )

    def test_single_process_reference_also_recovers(self, baseline):
        plan = FaultPlan.parse(["shard.workload=crash:1.0:@0"])
        runner = ShardedSuiteRunner.from_names(NAMES, shards=2, faults=plan)
        single = runner.run_single_process()
        assert not single.failures
        assert single.results_digest() == baseline.results_digest()

    def test_default_attempt_budget(self):
        assert DEFAULT_MAX_ATTEMPTS == 3
        runner = ShardedSuiteRunner.from_names(NAMES, max_attempts=0)
        assert runner.max_attempts == 1  # clamped: at least the first try


# ---------------------------------------------------------------------------
# cache tier: quarantine, disk retries, circuit breaker
# ---------------------------------------------------------------------------


def _disk_config(tmp_path):
    return CacheConfig(directory=str(tmp_path / "store"))


class TestCorruptPayloadQuarantine:
    def test_disk_rows_hand_corrupted_are_quarantined(self, tmp_path, baseline):
        cache = _disk_config(tmp_path)
        cold = ShardedSuiteRunner.from_names(NAMES, shards=1, cache=cache).run()
        assert cold.results_digest() == baseline.results_digest()

        store_path = Path(cache.directory) / STORE_FILENAME
        with sqlite3.connect(str(store_path)) as connection:
            (total,) = connection.execute("SELECT COUNT(*) FROM entries").fetchone()
            assert total > 0
            connection.execute("UPDATE entries SET payload = 'not json at all'")

        warm = ShardedSuiteRunner.from_names(NAMES, shards=1, cache=cache).run()
        # The run completes, recomputes every poisoned entry, and reports
        # the same results as if the store had been healthy.
        assert not warm.failures
        assert warm.results_digest() == baseline.results_digest()
        quarantined = warm.metrics.counter("cache.quarantined_total").value
        assert quarantined == total
        # discard() really removed the bad rows; the flush re-admitted the
        # recomputed payloads, which must decode cleanly now.
        backend = DiskBackend(cache.directory)
        try:
            assert len(backend) > 0
            stats = backend.stats()
            # Each corrupt lookup was reclassified hit -> miss.
            assert stats["misses"] >= total
        finally:
            backend.close()

    def test_memory_store_corruption_is_quarantined(self, baseline):
        # One store shared by two runs, each with a cold in-memory memo.
        backend = MemoryBackend()
        runner = ShardedSuiteRunner.from_names(NAMES, shards=1)

        def run_over_store():
            return runner.run_warm(
                BatchAnalyzer(transfer_cache=TransferCache(backend=backend))
            )

        cold = run_over_store()
        assert cold.results_digest() == baseline.results_digest()

        keys = [key for key, _ in backend._store.items()]
        assert keys
        for key in keys:
            # put() is touch-only for resident keys: evict, then re-admit
            # the poisoned payload.
            backend._store.remove(key)
            backend._store.put(key, "garbage payload")
        assert backend._store.get(keys[0]) == "garbage payload"

        warm = run_over_store()
        assert not warm.failures
        assert warm.results_digest() == baseline.results_digest()
        assert warm.metrics.counter("cache.quarantined_total").value == len(keys)
        for key in keys:  # the bad entries are gone from the store
            assert backend._store.get(key) != "garbage payload"


class TestDiskRetries:
    def _populated_backend(self, tmp_path):
        backend = DiskBackend(str(tmp_path / "retry-store"))
        backend.write({"k1": "payload-one", "k2": "payload-two"})
        return backend

    def test_transient_read_errors_are_retried(self, tmp_path):
        backend = self._populated_backend(tmp_path)
        try:
            # "#1" scopes the fault to the first try of each key: the
            # bounded in-process retry deterministically succeeds.
            with fault_scope(FaultPlan.parse(["cache.get=io_error:1.0:#1"])):
                assert backend.get("k1") == "payload-one"
                assert backend.get("k2") == "payload-two"
            backend.write({"k3": "payload-three"})  # folds session retries in
            assert backend.stats()["retries"] >= 2
        finally:
            backend.close()

    def test_persistent_read_errors_exhaust_and_raise(self, tmp_path):
        backend = self._populated_backend(tmp_path)
        try:
            with fault_scope(FaultPlan.parse(["cache.get=io_error:1.0"])):
                with pytest.raises(sqlite3.OperationalError):
                    backend.get("k1")
        finally:
            backend.close()


class TestCircuitBreaker:
    def test_unrecoverable_backend_degrades_to_memory_only(self, tmp_path, baseline):
        cache = _disk_config(tmp_path)
        ShardedSuiteRunner.from_names(NAMES, shards=1, cache=cache).run()

        plan = FaultPlan.parse(["cache.get=io_error:1.0"])  # every try, every key
        report = ShardedSuiteRunner.from_names(
            NAMES, shards=1, cache=cache, faults=plan
        ).run()
        assert not report.failures
        assert report.results_digest() == baseline.results_digest()
        assert report.metrics.counter("cache.backend_errors_total").value >= 3
        assert report.metrics.gauge("cache.degraded").value == 1


# ---------------------------------------------------------------------------
# daemon backpressure, drop injection, client backoff
# ---------------------------------------------------------------------------


def _start_server(tmp_path, **config_kwargs):
    path = str(tmp_path / f"chaos-{uuid.uuid4().hex[:8]}.sock")
    server = AnalysisServer(
        ServerConfig(socket_path=path, **config_kwargs)
    ).start_background()
    return server


def _stop_server(server):
    server.request_stop()
    assert server.join(timeout=15)


class TestDaemonBackpressure:
    def test_health_op(self, tmp_path):
        server = _start_server(tmp_path)
        try:
            with AnalysisClient(socket_path=server.config.socket_path) as client:
                assert "health" in client.protocol_version()["ops"]
                health = client.health()
                assert health["status"] == "ok"
                assert health["ready"] is True
                assert health["cache_degraded"] is False
                assert health["shed_total"] == 0
                assert health["max_inflight"] == 64  # the default cap
        finally:
            _stop_server(server)
        assert "health" in KNOWN_OPS

    def test_overload_sheds_with_retryable_error(self, tmp_path):
        # Every workload's first-request analysis sleeps, so one admitted
        # analyze pins the single in-flight slot for a deterministic window.
        slow_plan = FaultPlan.parse(["shard.workload=slow:1.0:#1:0.5"])
        server = _start_server(
            tmp_path, workers=2, max_inflight=1, faults=slow_plan
        )
        try:
            occupant = AnalysisClient(socket_path=server.config.socket_path)
            occupant.connect()
            occupant.send("analyze", workloads=NAMES)
            shed_error = None
            deadline = time.monotonic() + 10
            with AnalysisClient(socket_path=server.config.socket_path) as probe:
                while time.monotonic() < deadline:
                    try:
                        probe.analyze(workloads=[NAMES[0]])
                        time.sleep(0.02)
                    except ServerError as error:
                        shed_error = error
                        break
                assert shed_error is not None, "no request was shed in 10s"
                assert shed_error.code == ERR_OVERLOADED
                assert shed_error.error.get("retryable") is True
                # Fast ops still answer while heavy ops are being shed.
                health = probe.health()
                assert health["shed_total"] >= 1
                assert probe.ping() is True
            assert occupant.recv()["ok"] is True  # the occupant finished
            # A backoff-aware client rides out the load window.
            retry = AnalysisClient(
                socket_path=server.config.socket_path,
                retries=5,
                backoff=0.05,
                deadline=30,
            )
            with retry:
                assert retry.analyze(workloads=[NAMES[0]])["ok"] is True
            occupant.close()
        finally:
            _stop_server(server)

    def test_injected_drop_is_ridden_out_by_retries(self, tmp_path):
        # "#1" = the first frame of each op is dropped, the re-sent one
        # goes through: exactly one retry per op, deterministically.
        plan = FaultPlan.parse(["server.frame=drop:1.0:#1"])
        server = _start_server(tmp_path, faults=plan)
        try:
            client = AnalysisClient(
                socket_path=server.config.socket_path, retries=3, backoff=0.01
            )
            with client:
                response = client.cache_stats()
                assert response["ok"] is True
            assert client.retries_performed == 1
            # "#1" drops the first frame of *every* op, including this
            # metrics read — which therefore also needs a retry budget.
            reader = AnalysisClient(
                socket_path=server.config.socket_path, retries=3, backoff=0.01
            )
            with reader:
                metrics = reader.metrics()["metrics"]["counters"]
                key = "faults.injected_total{kind=drop,site=server.frame}"
                assert metrics[key]["value"] >= 1
        finally:
            _stop_server(server)

    def test_drop_without_retries_raises_connection_closed(self, tmp_path):
        plan = FaultPlan.parse(["server.frame=drop:1.0:ping"])
        server = _start_server(tmp_path, faults=plan)
        try:
            with AnalysisClient(socket_path=server.config.socket_path) as client:
                with pytest.raises(ConnectionClosed):
                    client.ping()
        finally:
            _stop_server(server)

    def test_non_idempotent_ops_are_never_retried(self, tmp_path):
        assert "shutdown" not in IDEMPOTENT_OPS
        assert "reanalyze" not in IDEMPOTENT_OPS
        plan = FaultPlan.parse(["server.frame=drop:1.0:shutdown"])
        server = _start_server(tmp_path, faults=plan)
        try:
            client = AnalysisClient(
                socket_path=server.config.socket_path, retries=5, backoff=0.01
            )
            with client:
                with pytest.raises(ConnectionClosed):
                    client.shutdown()
            assert client.retries_performed == 0
            # The dropped shutdown never reached dispatch: still serving.
            with AnalysisClient(socket_path=server.config.socket_path) as probe:
                assert probe.ping() is True
        finally:
            _stop_server(server)

    def test_deadline_bounds_the_retry_loop(self, tmp_path):
        plan = FaultPlan.parse(["server.frame=drop:1.0:cache_stats"])
        server = _start_server(tmp_path, faults=plan)
        try:
            client = AnalysisClient(
                socket_path=server.config.socket_path,
                retries=50,
                backoff=0.2,
                deadline=0.5,
            )
            started = time.monotonic()
            with client:
                with pytest.raises(ConnectionClosed):
                    client.cache_stats()
            assert time.monotonic() - started < 5.0
            assert client.retries_performed < 50
        finally:
            _stop_server(server)


class TestClientValidation:
    def test_bad_retry_knobs_are_rejected(self):
        with pytest.raises(ValueError):
            AnalysisClient(socket_path="/tmp/x.sock", retries=-1)
        with pytest.raises(ValueError):
            AnalysisClient(socket_path="/tmp/x.sock", backoff=0)
        with pytest.raises(ValueError):
            AnalysisClient(socket_path="/tmp/x.sock", deadline=0)

    def test_connection_closed_is_a_protocol_error(self):
        # Callers that caught ProtocolError before the split still do.
        assert issubclass(ConnectionClosed, ProtocolError)


class TestServerConfigValidation:
    def test_negative_max_inflight_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(socket_path="/tmp/x.sock", max_inflight=-1).validated()

    def test_zero_and_none_disable_shedding(self):
        ServerConfig(socket_path="/tmp/x.sock", max_inflight=0).validated()
        ServerConfig(socket_path="/tmp/x.sock", max_inflight=None).validated()

    def test_fault_plan_is_validated(self):
        bad = FaultPlan(rules=(FaultRule(site="cache.get", kind="nope"),))
        with pytest.raises(ValueError):
            ServerConfig(socket_path="/tmp/x.sock", faults=bad).validated()


class TestChaosCli:
    def test_bad_chaos_spec_exits_two(self, capsys):
        from repro.cli import main

        assert main(["analyze", "list_walk", "--chaos", "bogus"]) == 2
        assert "bad fault spec" in capsys.readouterr().err
