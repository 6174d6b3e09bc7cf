"""The daemon's live metrics: per-op accounting and the ``metrics`` op.

A scripted session against a real daemon, then a ``metrics`` scrape whose
per-op request counters must equal exactly the requests the script sent.
Two accounting subtleties are pinned on purpose:

* the request counter increments *before* dispatch, so a ``metrics``
  scrape sees its own request counted;
* the latency histogram is observed *after* the response is built, so
  the scrape's own ``server.request_seconds{op=metrics}`` entry is not
  yet in the snapshot it returns.

Also covered: byte/connection accounting and the slow-request counter
under a sub-microsecond threshold.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.server import AnalysisClient, AnalysisServer, ServerConfig
from repro.server.daemon import KNOWN_OPS


@pytest.fixture
def server(tmp_path):
    daemon = AnalysisServer(
        ServerConfig(socket_path=str(tmp_path / "metrics.sock"))
    ).start_background()
    yield daemon
    daemon.request_stop()
    assert daemon.join(timeout=10)


@pytest.fixture
def client(server):
    with AnalysisClient(socket_path=server.config.socket_path, timeout=30) as handle:
        yield handle


def _counter(metrics: dict, key: str) -> int:
    entry = metrics["counters"].get(key)
    return entry["value"] if entry else 0


class TestMetricsOp:
    def test_metrics_is_a_known_op(self, client):
        assert "metrics" in KNOWN_OPS
        assert "metrics" in client.protocol_version()["ops"]

    def test_scripted_session_counters_match_exactly(self, client):
        # The script: 1 ping, 1 protocol_version, 2 analyzes, 1 cache_stats.
        client.ping()
        client.protocol_version()
        client.analyze(workloads=["tree_add"])
        client.analyze(workloads=["list_walk"])
        client.cache_stats()
        response = client.metrics()
        metrics = response["metrics"]
        assert _counter(metrics, "server.requests_total{op=ping}") == 1
        assert _counter(metrics, "server.requests_total{op=protocol_version}") == 1
        assert _counter(metrics, "server.requests_total{op=analyze}") == 2
        assert _counter(metrics, "server.requests_total{op=cache_stats}") == 1
        # Counted before dispatch: the scrape sees itself.
        assert _counter(metrics, "server.requests_total{op=metrics}") == 1
        assert _counter(metrics, "server.errors_total{op=analyze}") == 0

        # Latency histograms: one entry per *completed* request, so the
        # scrape's own latency is not yet recorded.
        histograms = metrics["histograms"]
        assert histograms["server.request_seconds{op=analyze}"]["count"] == 2
        assert histograms["server.request_seconds{op=ping}"]["count"] == 1
        assert "server.request_seconds{op=metrics}" not in histograms

        # Tail tables are derived from the same buckets.
        tails = response["tails"]["server.request_seconds"]
        assert tails["analyze"]["count"] == 2
        assert tails["_overall"]["count"] >= 5
        # The analyze runs also folded suite metrics into the registry.
        assert _counter(metrics, "suite.workloads_analyzed") == 2

    def test_second_scrape_sees_the_first(self, client):
        client.metrics()
        metrics = client.metrics()["metrics"]
        assert _counter(metrics, "server.requests_total{op=metrics}") == 2
        assert metrics["histograms"]["server.request_seconds{op=metrics}"]["count"] == 1

    def test_unknown_op_counts_as_unknown(self, client):
        response = client.call("definitely_not_an_op")
        assert response["ok"] is False
        metrics = client.metrics()["metrics"]
        assert _counter(metrics, "server.requests_total{op=unknown}") == 1
        assert _counter(metrics, "server.errors_total{op=unknown}") == 1

    def test_connection_and_byte_accounting(self, client):
        client.ping()
        metrics = client.metrics()["metrics"]
        assert _counter(metrics, "server.bytes_received_total") > 0
        assert _counter(metrics, "server.bytes_sent_total") > 0
        assert _counter(metrics, "server.connections_total") >= 1
        gauges = metrics["gauges"]
        assert gauges["server.connections"]["value"] >= 1
        assert gauges["server.inflight"]["value"] == 0
        assert gauges["server.queue_depth"]["value"] == 0

    def test_cache_stats_requests_by_op_includes_metrics(self, client):
        client.metrics()
        by_op = client.cache_stats()["server"]["requests_by_op"]
        assert by_op.get("metrics") == 1


class TestSlowRequestLog:
    def test_slow_requests_counted_under_a_tiny_threshold(self, tmp_path):
        config = ServerConfig(
            socket_path=str(tmp_path / "slow.sock"),
            slow_request_threshold=1e-9,
        )
        daemon = AnalysisServer(config).start_background()
        try:
            with AnalysisClient(socket_path=config.socket_path, timeout=30) as client:
                client.analyze(workloads=["tree_add"])
                metrics = client.metrics()["metrics"]
                assert _counter(metrics, "server.slow_requests_total{op=analyze}") == 1
        finally:
            daemon.request_stop()
            assert daemon.join(timeout=10)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(socket_path="/tmp/x.sock", slow_request_threshold=0).validated()
