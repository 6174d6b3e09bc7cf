"""Targeted invalidation and compaction of the persistent transfer stores.

Both backends must honor the delete-by-statement-label contract that
incremental re-analysis relies on: rows keyed by statements an edit
removed are reclaimed, everything else stays warm, and rows written
without labels (pre-label-tracking stores) are never matched.  A sweep
that fails costs no result: the disk store retries a transient error, and
the transfer layer tolerates the rest.  The disk backend additionally
supports generation-based compaction with VACUUM.
"""

import sqlite3

from repro.analysis.reanalysis import IncrementalSession
from repro.analysis.transfer import TransferCache
from repro.cache import STORE_FILENAME, DiskBackend
from repro.cache.memory import MemoryBackend
from repro.faults import FaultPlan, fault_scope
from repro.sil.normalize import parse_and_normalize


def populate(backend):
    backend.write(
        {"key-a": "payload-a", "key-b": "payload-b", "key-c": "payload-c"},
        labels={"key-a": "Assign|x := nil", "key-b": "Assign|x := nil", "key-c": "Load|y := x.left"},
    )


class TestMemoryInvalidation:
    def test_invalidate_drops_only_matching_labels(self):
        backend = MemoryBackend()
        populate(backend)
        dropped = backend.invalidate({"Assign|x := nil"})
        assert dropped == 2
        assert backend.get("key-a") is None
        assert backend.get("key-b") is None
        assert backend.get("key-c") == "payload-c"
        assert backend.stats()["invalidations"] == 2

    def test_unlabeled_rows_never_match(self):
        backend = MemoryBackend()
        backend.write({"bare": "payload"})
        assert backend.invalidate({"Assign|x := nil"}) == 0
        assert backend.get("bare") == "payload"

    def test_empty_label_set_is_a_noop(self):
        backend = MemoryBackend()
        populate(backend)
        assert backend.invalidate(set()) == 0
        assert len(backend) == 3


class TestDiskInvalidation:
    def test_invalidate_drops_only_matching_labels(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            assert backend.invalidate({"Load|y := x.left"}) == 1
            assert backend.get("key-c") is None
            assert backend.get("key-a") == "payload-a"
            assert backend.stats()["invalidations"] == 1
        finally:
            backend.close()

    def test_invalidations_persist_across_reopens(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        populate(backend)
        backend.invalidate({"Assign|x := nil"})
        backend.close()
        reopened = DiskBackend(str(tmp_path))
        try:
            assert reopened.get("key-a") is None
            assert reopened.get("key-c") == "payload-c"
            assert reopened.stats()["invalidations"] == 2
        finally:
            reopened.close()

    def test_old_schema_store_migrates_in_place(self, tmp_path):
        # A store written before label tracking has no stmt column; opening
        # it adds the column, and its rows simply never match a sweep.
        path = tmp_path / STORE_FILENAME
        connection = sqlite3.connect(str(path))
        connection.executescript(
            """
            CREATE TABLE entries (
                key TEXT PRIMARY KEY,
                payload TEXT NOT NULL,
                created INTEGER NOT NULL,
                last_used INTEGER NOT NULL,
                hits INTEGER NOT NULL DEFAULT 0
            );
            CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL);
            INSERT INTO entries (key, payload, created, last_used)
                VALUES ('legacy', 'old-payload', 1, 1);
            """
        )
        connection.commit()
        connection.close()
        backend = DiskBackend(str(tmp_path))
        try:
            assert backend.get("legacy") == "old-payload"
            assert backend.invalidate({"Assign|x := nil"}) == 0
            assert backend.get("legacy") == "old-payload"
        finally:
            backend.close()


FLIP = """program flip

procedure main()
  a, b, c: handle
begin
  a := new();
  c := new();
  a.left := c;
  b := a.{field}
end
"""


class FailingInvalidateBackend(MemoryBackend):
    def invalidate(self, labels):
        raise OSError("store unavailable")


class TestInvalidationFaults:
    def test_backend_error_during_reanalysis_costs_no_result(self):
        cache = TransferCache(backend=FailingInvalidateBackend())
        session = IncrementalSession(transfer_cache=cache)
        session.analyze(*parse_and_normalize(FLIP.format(field="left")))
        report = session.reanalyze(
            *parse_and_normalize(FLIP.format(field="right")), verify=True
        )
        assert report.delta.stale_statement_labels  # the sweep was attempted
        assert report.verified is True
        assert report.transfers_invalidated > 0  # the pending deltas still swept
        assert cache.backend_errors == 1
        assert not cache.degraded

    def test_transient_disk_error_during_invalidation_is_retried(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            plan = FaultPlan.parse(["cache.write=io_error:1.0:invalidate#1"])
            with fault_scope(plan):
                assert backend.invalidate({"Assign|x := nil"}) == 2
            assert backend.get("key-a") is None and backend.get("key-b") is None
            assert backend.get("key-c") == "payload-c"
            backend.write({})  # folds the session's retry count into the store
            assert backend.stats()["retries"] == 1
        finally:
            backend.close()


class TestDiskCompaction:
    def test_compact_sweeps_only_stale_generations(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            # Age the clock: each write bumps the store's flush generation.
            for generation in range(6):
                backend.write({f"fresh-{generation}": "payload"})
            report = backend.compact(max_age=4)
            assert report["swept"] > 0
            assert report["remaining"] == len(backend)
            # Recently-written entries survive.
            assert backend.get("fresh-5") == "payload"
            stats = backend.stats()
            assert stats["compactions"] == 1
            assert stats["swept"] == report["swept"]
        finally:
            backend.close()

    def test_compact_on_fresh_store_sweeps_nothing(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            report = backend.compact(max_age=8)
            assert report["swept"] == 0
            assert report["remaining"] == 3
        finally:
            backend.close()

    def test_compact_max_age_zero_sweeps_everything_stale(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            backend.write({"later": "payload"})  # bump the clock past 0
            report = backend.compact(max_age=0)
            assert report["remaining"] < 4
        finally:
            backend.close()
