"""Recovery tests: every fault-tolerance path, driven by test doubles.

Nothing in ``src/`` injects faults.  Each test stands in for the failing
part with a small double defined here — a patched function, a store
connection, a backend subclass — and pins what the recovery path promises,
layer by layer:

* **Shard recovery** — a shard whose worker raised has its workloads
  requeued under the bounded attempt budget (``DEFAULT_MAX_ATTEMPTS``), and
  the merged report is *bit-identical* (results digest) to an undisturbed
  run; exhausted retries surface as honest per-workload failures, never
  silent drops.  The double is ``suite._analyze_shard`` patched to raise on
  chosen attempts; the pool forks, so its workers inherit the patch.
* **Cache degradation** — corrupt persistent-store payloads are quarantined
  (discarded + treated as misses) and recomputed; "database is locked"
  reads are retried at the disk tier, and surface once the retries run
  out; a store whose reads keep failing trips the transfer tier's circuit
  breaker, and the run goes on memory-only.  Results never change, only
  the counters.
* **Daemon backpressure & client backoff** — past ``max_inflight`` the
  daemon sheds heavy requests with a retryable ``overloaded`` error while
  ``health`` still answers, and a timed-out request holds its slot until
  its thread returns; the client retries idempotent ops through dropped
  connections with exponential backoff, bounded by its deadline, and never
  retries non-idempotent ops.  A held request is ``service.analyze``
  waiting on an event; a dropped connection is the daemon's ``_dispatch``
  raising ``ConnectionResetError``, which closes the connection before any
  response, as a daemon restart would.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
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
from repro.server import (
    AnalysisClient,
    AnalysisServer,
    ServerConfig,
    ServerError,
)
from repro.server.client import IDEMPOTENT_OPS
from repro.server.daemon import KNOWN_OPS
from repro.server.protocol import (
    ERR_OVERLOADED,
    ERR_TIMEOUT,
    ConnectionClosed,
    ProtocolError,
)
from repro.workloads import suite
from repro.workloads.suite import DEFAULT_MAX_ATTEMPTS, ShardedSuiteRunner

#: A small, fast subset of the named workloads (the full suite is pinned
#: elsewhere; recovery tests re-run these many times).
NAMES = ["list_walk", "tree_add", "swap_children", "cycle_bug"]


@pytest.fixture(scope="module")
def baseline():
    """The undisturbed reference: digest + failures of the NAMES suite."""
    report = ShardedSuiteRunner.from_names(NAMES, shards=1).run()
    assert not report.failures
    return report


def crash_shards(monkeypatch, attempts):
    """Make every shard raise on the given attempts (``None``: on all of them).

    Returns the list of ``(shard, attempt)`` calls this process made; pool
    workers are forked copies, so their calls land in their own lists.
    """
    real = suite._analyze_shard
    calls = []

    def flaky(payload):
        index, attempt = payload[0], payload[4]
        calls.append((index, attempt))
        if attempts is None or attempt in attempts:
            raise RuntimeError(f"worker lost (shard {index}, attempt {attempt})")
        return real(payload)

    monkeypatch.setattr(suite, "_analyze_shard", flaky)
    return calls


# ---------------------------------------------------------------------------
# shard crash recovery: requeue, bit-identity, honest exhaustion
# ---------------------------------------------------------------------------


class TestShardRecovery:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_crash_requeue_is_bit_identical(self, baseline, monkeypatch, shards):
        crash_shards(monkeypatch, {0})
        report = ShardedSuiteRunner.from_names(NAMES, shards=shards).run()
        assert not report.failures
        assert report.results_digest() == baseline.results_digest()
        # Every workload took exactly two attempts: crash, then success.
        assert report.attempts == {name: 2 for name in NAMES}
        assert report.metrics.counter("suite.workload_retries").value == len(NAMES)
        crashes = report.metrics.counter("suite.shard_crashes_total", kind="worker")
        assert crashes.value == shards

    def test_exhausted_retries_fail_honestly(self, monkeypatch):
        crash_shards(monkeypatch, None)
        report = ShardedSuiteRunner.from_names(NAMES, shards=1).run()
        assert not report.ok
        assert set(report.failures) == set(NAMES)
        for message in report.failures.values():
            assert "RuntimeError: worker lost" in message
            assert "retries exhausted" in message
        assert (
            report.metrics.counter("suite.workloads_abandoned_total").value
            == len(NAMES)
        )

    def test_single_process_reference_also_recovers(self, baseline, monkeypatch):
        crash_shards(monkeypatch, {0})
        runner = ShardedSuiteRunner.from_names(NAMES, shards=2)
        single = runner.run_single_process()
        assert not single.failures
        assert single.results_digest() == baseline.results_digest()

    def test_default_attempt_budget(self, monkeypatch):
        assert DEFAULT_MAX_ATTEMPTS == 3
        calls = crash_shards(monkeypatch, None)
        report = ShardedSuiteRunner.from_names(NAMES, shards=1).run()
        # The first try plus two retries, then the workloads are abandoned.
        assert [attempt for _, attempt in calls] == list(range(DEFAULT_MAX_ATTEMPTS))
        assert report.attempts == {name: DEFAULT_MAX_ATTEMPTS for name in NAMES}

    def test_run_warm_propagates_instead_of_requeueing(self):
        class BrokenFlush(BatchAnalyzer):
            def flush(self):
                raise OSError("store vanished")

        runner = ShardedSuiteRunner.from_names(NAMES, shards=1)
        with pytest.raises(OSError, match="store vanished"):
            runner.run_warm(BrokenFlush())


# ---------------------------------------------------------------------------
# cache tier: quarantine, disk retries, circuit breaker
# ---------------------------------------------------------------------------


class LockedConnection:
    """A store connection whose first ``times`` matching statements meet a
    locked database, as they would while a sibling shard holds the write
    lock; everything else goes to the real connection."""

    def __init__(self, connection, prefix, times):
        self._connection = connection
        self.prefix = prefix
        self.times = times

    def execute(self, sql, *args):
        if self.times and sql.startswith(self.prefix):
            self.times -= 1
            raise sqlite3.OperationalError("database is locked")
        return self._connection.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._connection, name)


class FailingReads(MemoryBackend):
    """A store every read of which fails, as an unreadable disk would."""

    def get(self, key):
        raise OSError("cache I/O error")


class TestCorruptPayloadQuarantine:
    def test_disk_rows_hand_corrupted_are_quarantined(self, tmp_path, baseline):
        cache = CacheConfig(directory=str(tmp_path / "store"))
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
    def _backend_with_locked_reads(self, tmp_path, times):
        backend = DiskBackend(str(tmp_path / "retry-store"))
        backend.write({"k1": "payload-one", "k2": "payload-two"})
        backend._connection = LockedConnection(
            backend._connection, "SELECT payload", times
        )
        return backend

    def test_transient_read_errors_are_retried(self, tmp_path):
        # Fewer locked reads than the retry budget: each get succeeds.
        backend = self._backend_with_locked_reads(tmp_path, times=2)
        try:
            assert backend.get("k1") == "payload-one"
            assert backend.get("k2") == "payload-two"
            backend.write({"k3": "payload-three"})  # folds session retries in
            assert backend.stats()["retries"] == 2
        finally:
            backend.close()

    def test_persistent_read_errors_exhaust_and_raise(self, tmp_path):
        backend = self._backend_with_locked_reads(tmp_path, times=1_000)
        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                backend.get("k1")
        finally:
            backend.close()


class TestCircuitBreaker:
    def test_unrecoverable_backend_degrades_to_memory_only(self, baseline):
        cache = TransferCache(backend=FailingReads())
        runner = ShardedSuiteRunner.from_names(NAMES, shards=1)
        report = runner.run_warm(BatchAnalyzer(transfer_cache=cache))
        assert not report.failures
        assert report.results_digest() == baseline.results_digest()
        errors = report.metrics.counter("cache.backend_errors_total").value
        assert errors == cache.breaker_threshold
        assert report.metrics.gauge("cache.degraded").value == 1
        assert cache.degraded and cache.backend is None


# ---------------------------------------------------------------------------
# daemon backpressure, dropped connections, client backoff
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


def hold_analyze(server):
    """Hold every ``analyze`` thread until the returned event is set."""
    release = threading.Event()
    real = server.service.analyze

    def held(params):
        release.wait(timeout=30)
        return real(params)

    server.service.analyze = held
    return release


def drop_connections(monkeypatch, server, op, times=None):
    """Hang up on ``op`` requests before any response: on the first ``times``
    of them, or on all (``None``).  Returns the dropped requests."""
    real = server._dispatch
    dropped = []

    async def dispatch(message):
        if message.get("op") == op and (times is None or len(dropped) < times):
            dropped.append(message)
            raise ConnectionResetError(f"dropped {op}")
        return await real(message)

    monkeypatch.setattr(server, "_dispatch", dispatch)
    return dropped


def wait_for_inflight(client, expected, seconds=10):
    deadline = time.monotonic() + seconds
    while client.health()["inflight"] != expected:
        assert time.monotonic() < deadline, f"in-flight never reached {expected}"
        time.sleep(0.01)


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
        server = _start_server(tmp_path, workers=2, max_inflight=1)
        release = hold_analyze(server)
        try:
            occupant = AnalysisClient(socket_path=server.config.socket_path)
            occupant.connect()
            occupant.send("analyze", workloads=NAMES)
            with AnalysisClient(socket_path=server.config.socket_path) as probe:
                wait_for_inflight(probe, 1)
                with pytest.raises(ServerError) as shed:
                    probe.analyze(workloads=[NAMES[0]])
                assert shed.value.code == ERR_OVERLOADED
                assert shed.value.error.get("retryable") is True
                # Fast ops still answer while heavy ops are being shed.
                assert probe.health()["shed_total"] == 1
                assert probe.ping() is True
            # A backoff-aware client rides out the load window, which ends
            # when its own first attempt has been shed too.
            shed_total = server.metrics.counter("server.shed_total")

            def release_after_the_next_shed():
                deadline = time.monotonic() + 30
                while shed_total.value < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                release.set()

            watcher = threading.Thread(target=release_after_the_next_shed)
            watcher.start()
            retry = AnalysisClient(
                socket_path=server.config.socket_path,
                retries=8,
                backoff=0.05,
                deadline=30,
            )
            with retry:
                assert retry.analyze(workloads=[NAMES[0]])["ok"] is True
            watcher.join(timeout=30)
            assert not watcher.is_alive()
            assert retry.retries_performed >= 1
            assert occupant.recv()["ok"] is True  # the occupant finished
            occupant.close()
        finally:
            release.set()
            _stop_server(server)

    def test_timed_out_request_holds_its_slot_until_its_thread_returns(
        self, tmp_path
    ):
        server = _start_server(tmp_path, max_inflight=1)
        release = hold_analyze(server)
        try:
            with AnalysisClient(socket_path=server.config.socket_path) as client:
                with pytest.raises(ServerError) as timed_out:
                    client.analyze(workloads=[NAMES[0]], timeout=0.2)
                assert timed_out.value.code == ERR_TIMEOUT
                # The thread still runs, so it still counts against the cap.
                assert client.health()["inflight"] == 1
                with pytest.raises(ServerError) as shed:
                    client.analyze(workloads=[NAMES[0]])
                assert shed.value.code == ERR_OVERLOADED
                release.set()
                wait_for_inflight(client, 0)
                assert client.analyze(workloads=[NAMES[0]])["ok"] is True
        finally:
            release.set()
            _stop_server(server)

    def test_injected_drop_is_ridden_out_by_retries(self, tmp_path, monkeypatch):
        server = _start_server(tmp_path)
        dropped = drop_connections(monkeypatch, server, "cache_stats", times=1)
        try:
            client = AnalysisClient(
                socket_path=server.config.socket_path, retries=3, backoff=0.01
            )
            with client:
                response = client.cache_stats()
                assert response["ok"] is True
            assert client.retries_performed == 1
            assert len(dropped) == 1
        finally:
            _stop_server(server)

    def test_drop_without_retries_raises_connection_closed(
        self, tmp_path, monkeypatch
    ):
        server = _start_server(tmp_path)
        drop_connections(monkeypatch, server, "ping")
        try:
            with AnalysisClient(socket_path=server.config.socket_path) as client:
                with pytest.raises(ConnectionClosed):
                    client.ping()
        finally:
            _stop_server(server)

    def test_non_idempotent_ops_are_never_retried(self, tmp_path, monkeypatch):
        assert "shutdown" not in IDEMPOTENT_OPS
        assert "reanalyze" not in IDEMPOTENT_OPS
        server = _start_server(tmp_path)
        drop_connections(monkeypatch, server, "shutdown")
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

    def test_deadline_bounds_the_retry_loop(self, tmp_path, monkeypatch):
        server = _start_server(tmp_path)
        drop_connections(monkeypatch, server, "cache_stats")
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
