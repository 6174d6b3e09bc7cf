"""Warm-state tests: the reason the daemon exists.

A one-shot CLI run starts every call with an empty in-memory transfer
memo.  A daemon keeps one for its whole life, and that memo keys on
statement **content** — so the second request of the same program, freshly
parsed into new statement objects, is answered entirely from memory: no
transfer recomputed, no persistent read, no codec decode.  A daemon
without ``--cache-dir`` keeps no persistent store at all; one with it
reads through wherever the memory layer really is cold: a second daemon
started over the first daemon's store.

Pinned here:

* a default daemon reports no persistent store, and neither request
  touches one;
* the second identical ``analyze`` request shows
  ``transfer_cache_hit_rate == 1.0`` and bit-identical results;
* a fresh daemon over a disk store the first one filled reads through to
  it (``persistent_cache_hit_rate > 0``, nothing recomputed);
* server-lifetime stats reported by ``cache_stats`` are exactly the sum
  of the per-request stats carried in the responses;
* graceful shutdown flushes the persistent store (a disk store survives
  with the first request's transfers in it);
* a follow-on ``reanalyze`` whose old version is the previous request's
  new one continues the daemon's held session (``base_reused``), skipping
  the base solve (see ``test_server_held_session.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.analysis.pathset import intern_table_sizes
from repro.cache import STORE_FILENAME, CacheConfig, DiskBackend
from repro.server import AnalysisClient, AnalysisServer, ServerConfig

NAMES = ["dag_sharing", "add_and_reverse", "tree_mirror"]

#: Derived ratios carried alongside the raw counters in stats payloads —
#: excluded when summing per-request counters into lifetime totals.
DERIVED = ("transfer_cache_hit_rate", "persistent_cache_hit_rate")


@pytest.fixture
def server(tmp_path):
    """A *fresh* daemon per test: warm-state assertions need a cold start."""
    daemon = AnalysisServer(
        ServerConfig(socket_path=str(tmp_path / "analysis.sock"))
    ).start_background()
    yield daemon
    daemon.request_stop()
    assert daemon.join(timeout=10)


@pytest.fixture
def client(server):
    with AnalysisClient(socket_path=server.config.socket_path, timeout=60) as handle:
        yield handle


def assert_no_persistent_traffic(*responses):
    """A default daemon has no persistent store, so no request touches one."""
    for response in responses:
        stats = response["stats"]
        assert stats["persistent_cache_hits"] == 0
        assert stats["persistent_cache_misses"] == 0
        assert stats["persistent_cache_writes"] == 0


def assert_served_from_memory(cold, warm):
    """``warm`` repeated ``cold``'s programs against a warm in-memory memo."""
    assert_no_persistent_traffic(cold, warm)
    stats = warm["stats"]
    assert stats["transfer_cache_hits"] > 0
    assert stats["transfer_cache_misses"] == 0
    assert stats["transfer_cache_hit_rate"] == 1.0
    assert not cold["failures"] and not warm["failures"]


class TestWarmSecondRequest:
    def test_second_request_is_served_from_memory(self, client):
        first = client.analyze(NAMES)
        second = client.analyze(NAMES)
        assert_served_from_memory(first, second)
        assert second["results_digest"] == first["results_digest"]
        assert first["stats"]["transfer_cache_misses"] > 0

    def test_fresh_daemon_reads_through_a_filled_store(self, tmp_path):
        # The in-memory layer dies with its daemon; the disk store does
        # not.  A second daemon over the same --cache-dir starts with a
        # cold memo, so every transfer comes back as a content-addressed
        # read of what the first daemon computed.
        store = CacheConfig(directory=str(tmp_path / "store"))
        responses = []
        for index in range(2):
            daemon = AnalysisServer(
                ServerConfig(socket_path=str(tmp_path / f"d{index}.sock"), cache=store)
            ).start_background()
            with AnalysisClient(socket_path=daemon.config.socket_path, timeout=60) as handle:
                responses.append(handle.analyze(NAMES))
                handle.shutdown()
            assert daemon.join(timeout=10)
        first, second = (response["stats"] for response in responses)
        assert first["persistent_cache_writes"] > 0
        assert second["persistent_cache_hits"] > 0
        assert second["persistent_cache_hit_rate"] > first["persistent_cache_hit_rate"]
        assert second["persistent_cache_misses"] == 0
        assert second["persistent_cache_writes"] == 0
        assert second["transfer_cache_misses"] == 0
        assert responses[0]["results_digest"] == responses[1]["results_digest"]

    def test_warm_results_are_bit_identical(self, client):
        first = client.analyze(NAMES)
        second = client.analyze(NAMES)
        assert first["results_digest"] == second["results_digest"]
        assert first["results"] == second["results"]
        assert not first["failures"] and not second["failures"]

    def test_inline_resubmission_is_warm_too(self, client):
        # The memo keys on program *content*, not workload names or
        # statement objects: the same source resubmitted inline under
        # another name is answered from memory all the same.
        from repro.workloads.suite import source

        text = source("dag_sharing", depth=4)
        cold = client.analyze(workloads=[], programs=[{"name": "one", "source": text}])
        warm = client.analyze(workloads=[], programs=[{"name": "two", "source": text}])
        assert_served_from_memory(cold, warm)
        assert warm["results"]["two"] == cold["results"]["one"]
        again = client.analyze(workloads=[], programs=[{"name": "one", "source": text}])
        assert_served_from_memory(cold, again)
        assert again["results_digest"] == cold["results_digest"]


class TestLifetimeStats:
    def test_lifetime_totals_are_the_sum_of_per_request_stats(self, client):
        responses = [
            client.analyze(NAMES[:1]),
            client.analyze(NAMES[:2]),
            client.analyze(NAMES),
        ]
        lifetime = client.cache_stats()["lifetime_stats"]
        for counter in lifetime:
            if counter in DERIVED:
                continue
            total = sum(r["stats"][counter] for r in responses)
            assert lifetime[counter] == total, counter

    def test_server_section_counts_requests(self, client):
        client.analyze(NAMES[:1])
        client.analyze(NAMES[:1])
        stats = client.cache_stats()
        assert stats["server"]["requests_served"] == 2
        assert stats["server"]["requests_by_op"]["analyze"] == 2
        assert stats["server"]["requests_by_op"]["cache_stats"] >= 1
        assert stats["server"]["uptime_seconds"] >= 0

    def test_cache_stats_reports_warm_state(self, client):
        responses = [client.analyze(NAMES), client.analyze(NAMES)]
        stats = client.cache_stats()
        assert stats["transfer_cache"]["entries"] > 0
        assert stats["transfer_cache"]["capacity"] >= stats["transfer_cache"]["entries"]
        # Without --cache-dir the daemon keeps no persistent store.
        assert stats["persistent"] is None
        assert_no_persistent_traffic(*responses, {"stats": stats["lifetime_stats"]})
        # The intern tables it reports are the process-global ones — the
        # same vocabulary (and, in-process, the same sizes) as a direct
        # read of intern_table_sizes().
        assert set(stats["intern_tables"]) == set(intern_table_sizes())


class TestShutdownFlush:
    def test_graceful_shutdown_flushes_a_disk_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        daemon = AnalysisServer(
            ServerConfig(
                socket_path=str(tmp_path / "analysis.sock"),
                cache=CacheConfig(directory=store_dir),
            )
        ).start_background()
        with AnalysisClient(socket_path=daemon.config.socket_path, timeout=60) as handle:
            response = handle.analyze(NAMES[:1])
            assert response["stats"]["persistent_cache_writes"] > 0
            handle.shutdown()
        assert daemon.join(timeout=10)
        # The daemon is gone; its transfers are not.
        assert (Path(store_dir) / STORE_FILENAME).exists()
        backend = DiskBackend(store_dir)
        try:
            assert backend.stats()["entries"] > 0
        finally:
            backend.close()

    def test_shutdown_unlinks_the_unix_socket(self, tmp_path):
        path = tmp_path / "analysis.sock"
        daemon = AnalysisServer(ServerConfig(socket_path=str(path))).start_background()
        assert path.exists()
        with AnalysisClient(socket_path=str(path), timeout=30) as handle:
            handle.shutdown()
        assert daemon.join(timeout=10)
        assert not path.exists()


class TestReanalyzeOp:
    def _pair(self):
        from repro.workloads import generate_edited_pair, generate_scenario
        from repro.workloads.generators import GeneratorConfig

        scenario = generate_scenario(
            3, GeneratorConfig(family="deep", procedures=2, depth=6)
        )
        return generate_edited_pair(
            scenario.source, 0, edits=1, kinds=("insert",), target_procedure="main"
        )

    def test_reanalyze_verifies_and_reuses(self, client):
        pair = self._pair()
        response = client.reanalyze(
            pair.old_source, pair.new_source, name="deep", verify=True
        )
        assert response["verified"] is True
        assert response["digest"] == response["cold_digest"]
        assert response["summaries_reused"] > 0
        assert len(response["procedures_reanalyzed"]) < response["procedures_total"]
        assert response["program"] == "deep"
        assert response["base_digest"]

    def test_reanalyze_counts_in_lifetime_stats(self, client):
        pair = self._pair()
        response = client.reanalyze(pair.old_source, pair.new_source)
        stats = client.cache_stats()
        assert stats["server"]["requests_by_op"]["reanalyze"] == 1
        assert stats["server"]["requests_served"] == 1
        assert (
            stats["lifetime_stats"]["summaries_reused"]
            == response["request_stats"]["summaries_reused"]
        )

    def test_follow_on_edit_continues_the_held_session(self, client):
        from repro.workloads import (
            apply_edit_script,
            generate_edit_script,
            make_edit_bench_scenario,
        )

        versions = [make_edit_bench_scenario(4).source]
        for seed in (1, 2):
            script = generate_edit_script(versions[-1], seed, edits=1)
            versions.append(apply_edit_script(versions[-1], script))
        first = client.reanalyze(versions[0], versions[1], verify=True)
        second = client.reanalyze(versions[1], versions[2], verify=True)
        assert first["verified"] is True and second["verified"] is True
        assert (first["base_reused"], second["base_reused"]) == (False, True)
        assert second["base_digest"] == first["digest"]
        assert (
            second["request_stats"]["statements_visited"]
            < first["request_stats"]["statements_visited"]
        )
        lifetime = client.cache_stats()["lifetime_stats"]
        for counter, value in lifetime.items():
            if counter not in DERIVED:
                assert value == sum(
                    r["request_stats"][counter] for r in (first, second)
                ), counter

    def test_client_text_prints_what_the_local_command_prints(
        self, server, tmp_path, capsys
    ):
        from repro.cli import main

        pair = self._pair()
        old, new = tmp_path / "old.sil", tmp_path / "edited.sil"
        old.write_text(pair.old_source)
        new.write_text(pair.new_source)
        assert main(["reanalyze", str(old), str(new)]) == 0
        local = capsys.readouterr().out.splitlines()
        socket = ["--socket", server.config.socket_path]
        assert main(["client", "reanalyze", str(old), str(new), *socket]) == 0
        remote = capsys.readouterr().out.splitlines()
        # One printer renders both payloads; only the digest line differs,
        # by its timing and the daemon's base digest.
        assert local[0].startswith("program edited: ")
        assert [line for line in remote if not line.startswith("digest ")] == [
            line for line in local if not line.startswith("digest ")
        ]
        assert " (base " in remote[-2] and " (base " not in local[-2]

    def test_reanalyze_rejects_missing_sources(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.request("reanalyze", old_source="program p procedure main() begin end")
        assert excinfo.value.code == "bad_request"

    def test_reanalyze_rejects_invalid_programs(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError):
            client.reanalyze("not a program", "also not a program")
