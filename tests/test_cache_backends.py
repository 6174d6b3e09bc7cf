"""The persistent transfer-cache subsystem: codec, LRU map, backends, wiring."""

import json

import pytest

from repro.analysis import AnalysisLimits
from repro.analysis.context import AnalysisStats
from repro.analysis.engine import BatchAnalyzer
from repro.analysis.matrix import PathMatrix
from repro.analysis.pathset import PathSet
from repro.analysis.telemetry import WideningTally, widening_scope
from repro.analysis.transfer import (
    TransferCache,
    apply_basic_statement,
    apply_basic_statement_cached,
)
from repro.cache import (
    CacheConfig,
    CacheDecodeError,
    DiskBackend,
    LRUCache,
    MemoryBackend,
    decode_entry,
    encode_entry,
    open_backend,
    transfer_key,
)
from repro.sil import ast
from repro.sil.delta import statement_identity
from repro.workloads import generate_scenarios, load
from repro.workloads.suite import source


def sample_matrix(limits=None):
    matrix = PathMatrix(["a", "b", "c"], limits=limits or AnalysisLimits())
    matrix.set("a", "b", PathSet.parse("L1"))
    matrix.set("b", "c", PathSet.parse("S?, D+?"))
    return matrix


class TestCodec:
    def test_transfer_key_is_stable_and_content_addressed(self):
        stmt = ast.CopyHandle(target="a", source="b")
        twin = ast.CopyHandle(target="a", source="b")  # distinct object, same content
        limits = AnalysisLimits()
        key = transfer_key(stmt, limits, sample_matrix())
        assert key == transfer_key(stmt, limits, sample_matrix())
        assert key == transfer_key(twin, limits, sample_matrix())
        assert len(key) == 64 and int(key, 16) >= 0

    def test_key_separates_statement_kinds_with_equal_rendering(self):
        # A scalar assign renders exactly like a handle copy but has a
        # different transfer function; the kind must keep them apart.
        copy_stmt = ast.CopyHandle(target="x", source="y")
        scalar_stmt = ast.ScalarAssign(target="x", expr=ast.Name(ident="y"))
        limits = AnalysisLimits()
        matrix = sample_matrix()
        assert transfer_key(copy_stmt, limits, matrix) != transfer_key(
            scalar_stmt, limits, matrix
        )

    def test_key_depends_on_limits_and_matrix(self):
        stmt = ast.AssignNil(target="a")
        matrix = sample_matrix()
        base = transfer_key(stmt, AnalysisLimits(), matrix)
        assert base != transfer_key(stmt, AnalysisLimits(max_segments=8), matrix)
        other = sample_matrix()
        other.set("a", "c", PathSet.parse("R1"))
        assert base != transfer_key(stmt, AnalysisLimits(), other)

    def test_key_ignores_transfer_cache_size(self):
        # The cache size is a memory knob, not a semantics knob: runs with
        # different sizes must share persistent entries.
        from dataclasses import replace

        stmt = ast.AssignNil(target="a")
        limits = AnalysisLimits()
        resized = replace(limits, transfer_cache_size=7)
        assert transfer_key(stmt, limits, sample_matrix(limits)) == transfer_key(
            stmt, resized, sample_matrix(resized)
        )

    def test_round_trip_is_exact(self):
        limits = AnalysisLimits()
        matrix = sample_matrix(limits)
        stmt = ast.StoreField(target="a", field_name=ast.Field.LEFT, source="c")
        computed = apply_basic_statement(matrix, stmt, limits)
        tally = WideningTally(segment_collapses=2, exact_widenings=1)

        decoded, replayed = decode_entry(encode_entry(computed, tally), limits)
        assert decoded.matrix == computed.matrix
        assert decoded.matrix.handles == computed.matrix.handles
        assert decoded.diagnostics == computed.diagnostics
        assert replayed == tally
        # Decoded matrices are shared like cached ones: sealed.
        with pytest.raises(ValueError, match="sealed"):
            decoded.matrix.add_handle("z")

    def test_decode_fires_no_widening_telemetry(self):
        # Paths are rebuilt verbatim, never re-normalized — even under
        # limits far tighter than the ones the entry was computed with.
        wide = AnalysisLimits(max_segments=16, max_exact_count=64)
        matrix = PathMatrix(["a", "b"], limits=wide)
        matrix.set("a", "b", PathSet.parse("L9L9R9L9R9"))
        stmt = ast.AssignNil(target="c")
        computed = apply_basic_statement(matrix, stmt, wide)
        payload = encode_entry(computed, WideningTally())

        observer = WideningTally()
        with widening_scope(observer):
            decoded, _ = decode_entry(payload, wide)
        assert not observer.fired
        assert decoded.matrix == computed.matrix

    def test_malformed_payloads_raise_decode_error(self):
        limits = AnalysisLimits()
        for payload in ("not json", "{}", json.dumps({"v": 999}),
                        json.dumps({"v": 1, "matrix": {"handles": [], "entries": [["a", "b", "L1&"]]},
                                    "diagnostics": [], "widening": {}})):
            with pytest.raises(CacheDecodeError):
                decode_entry(payload, limits)


class TestPolicyCache:
    """The bounded map behind the memos; least-recently-used is its one policy."""

    def test_lru_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the victim
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_put_of_existing_key_is_touch_only(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.put("a", 99) == 0
        assert cache.get("a") == 1  # entries are immutable once admitted

    def test_remove_drops_without_counting_an_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.remove("a") is True
        assert cache.remove("a") is False
        assert "a" not in cache and cache.evictions == 0
        # A removed key leaves no trace in the recency order: b is the
        # least recently used entry when d arrives.
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)
        assert len(cache) == 2 and cache.evictions == 1
        assert "b" not in cache and "c" in cache and "d" in cache


class TestMemoryBackend:
    def test_write_then_get(self):
        backend = MemoryBackend()
        written, evicted = backend.write({"k1": "p1", "k2": "p2"})
        assert (written, evicted) == (2, 0)
        assert backend.get("k1") == "p1"
        assert backend.get("missing") is None
        stats = backend.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["writes"] == 2

    def test_rewrite_of_existing_key_counts_zero(self):
        backend = MemoryBackend()
        backend.write({"k": "p"})
        assert backend.write({"k": "p"}) == (0, 0)

    def test_clear_resets(self):
        backend = MemoryBackend()
        backend.write({"k": "p"})
        assert backend.clear() == 1
        assert len(backend) == 0 and backend.stats()["writes"] == 0


class TestDiskBackend:
    def test_persists_across_reopen(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        assert store.write({"k1": "p1"}) == (1, 0)
        store.close()
        reopened = DiskBackend(str(tmp_path))
        assert reopened.get("k1") == "p1"
        assert len(reopened) == 1
        reopened.close()

    def test_content_addressed_writes_are_idempotent(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        store.write({"k": "p"})
        assert store.write({"k": "p"}) == (0, 0)
        store.close()

    def test_capacity_enforced_by_policy(self, tmp_path):
        store = DiskBackend(str(tmp_path), capacity=2)
        store.write({"a": "1", "b": "2"})
        assert store.get("a") == "1"  # touch a in a later flush epoch
        written, evicted = store.write({"c": "3"})
        assert (written, evicted) == (1, 1)
        assert store.get("b") is None  # b was least recently used
        assert store.get("a") == "1" and store.get("c") == "3"
        store.close()

    def test_discard_reclassifies_the_hit_and_deletes_the_row(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        store.write({"bad": "garbage"})
        assert store.get("bad") == "garbage"
        store.discard("bad")
        assert store.get("bad") is None
        # The failed lookup reads as a miss, not a hit; rewriting works.
        assert store.write({"bad": "repaired"}) == (1, 0)
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert store.get("bad") == "repaired"
        store.close()

    def test_stats_accumulate_across_sessions(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        store.write({"k": "p"})
        store.get("k")
        store.get("absent")
        store.write({})
        store.close()
        reopened = DiskBackend(str(tmp_path))
        stats = reopened.stats()
        assert stats["writes"] == 1 and stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["size_bytes"] > 0
        assert reopened.clear() == 1
        assert reopened.stats()["writes"] == 0
        reopened.close()


#: A store as older versions wrote it: the ranking policy recorded in
#: ``meta`` (text in the INTEGER ``value`` column) and per-row hit counts.
OLDER_STORE = """
CREATE TABLE entries (
    key       TEXT PRIMARY KEY,
    payload   TEXT NOT NULL,
    created   INTEGER NOT NULL,
    last_used INTEGER NOT NULL,
    hits      INTEGER NOT NULL DEFAULT 0,
    stmt      TEXT
);
CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL);
CREATE INDEX entries_stmt ON entries (stmt);
INSERT INTO entries VALUES ('hot', 'payload-hot', 1, 1, 50, 'Assign|x := nil');
INSERT INTO entries VALUES ('cold', 'payload-cold', 2, 2, 0, 'Load|y := x.left');
INSERT INTO meta VALUES ('policy', 'lfu');
INSERT INTO meta VALUES ('clock', 2);
INSERT INTO meta VALUES ('hits', 50);
INSERT INTO meta VALUES ('misses', 3);
INSERT INTO meta VALUES ('writes', 2);
INSERT INTO meta VALUES ('evictions', 1);
"""


class TestStoreWrittenByAnOlderVersion:
    def make_store(self, directory):
        import sqlite3

        from repro.cache import STORE_FILENAME

        connection = sqlite3.connect(str(directory / STORE_FILENAME))
        connection.executescript(OLDER_STORE)
        connection.commit()
        connection.close()

    def test_reads_writes_evicts_and_compacts(self, tmp_path):
        self.make_store(tmp_path)
        store = DiskBackend(str(tmp_path), capacity=2)
        try:
            assert store.get("cold") == "payload-cold"
            # "hot" has the most hits but the oldest use: it is the victim.
            assert store.write({"new": "payload-new"}) == (1, 1)
            assert store.get("hot") is None
            assert store.get("cold") == "payload-cold"
            assert store.get("new") == "payload-new"
            stats = store.stats()
            assert "policy" not in stats
            assert (stats["entries"], stats["hits"], stats["misses"]) == (2, 51, 3)
            assert (stats["writes"], stats["evictions"]) == (3, 2)
            report = store.compact(max_age=8)
            assert report["swept"] == 0 and report["remaining"] == 2
            assert store.stats()["compactions"] == 1
        finally:
            store.close()

    def test_cache_stats_subcommand_reads_it(self, tmp_path, capsys):
        from repro.cli import main

        self.make_store(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "policy" not in stats
        assert (stats["entries"], stats["hits"], stats["evictions"]) == (2, 50, 1)


class TestCacheConfig:
    def test_disk_requires_directory(self):
        with pytest.raises(ValueError, match="requires a directory"):
            CacheConfig(directory=None).validated()

    def test_open_backend_dispatches(self, tmp_path):
        disk = open_backend(CacheConfig(directory=str(tmp_path)))
        assert isinstance(disk, DiskBackend) and disk.kind == "disk"
        disk.close()


class TestTransferCachePersistentTier:
    def make_stmt_and_matrix(self):
        matrix = PathMatrix(["a", "b", "c"])
        matrix.set("b", "c", PathSet.parse("L1"))
        return ast.CopyHandle(target="a", source="b"), matrix

    def test_read_through_promotes_and_replays(self):
        stmt, matrix = self.make_stmt_and_matrix()
        backend = MemoryBackend()

        cold_cache = TransferCache(capacity=64, backend=backend)
        cold = AnalysisStats()
        computed = apply_basic_statement_cached(matrix, stmt, cache=cold_cache, stats=cold)
        cold_cache.flush(cold)
        assert cold.persistent_cache_misses == 1 and cold.persistent_cache_writes == 1

        # A fresh in-memory cache over the same backend: the lookup misses
        # memory, hits the store, decodes and promotes.
        warm_cache = TransferCache(capacity=64, backend=backend)
        warm = AnalysisStats()
        twin = ast.CopyHandle(target="a", source="b")
        served = apply_basic_statement_cached(matrix.copy(), twin, cache=warm_cache, stats=warm)
        assert served.matrix == computed.matrix
        assert warm.persistent_cache_hits == 1 and warm.transfer_cache_misses == 0
        # The promoted entry now answers from memory.
        again = apply_basic_statement_cached(matrix.copy(), twin, cache=warm_cache, stats=warm)
        assert again is served
        assert warm.transfer_cache_hits == 2 and warm.persistent_cache_hits == 1

    def test_pending_buffer_answers_before_flush(self):
        # Same statement content at two distinct objects.  The memory layer
        # is content-keyed, so the twin would hit it directly; evicting the
        # entry from a capacity-1 cache first leaves the unflushed delta
        # buffer as the only tier that can answer it.
        stmt, matrix = self.make_stmt_and_matrix()
        cache = TransferCache(capacity=1, backend=MemoryBackend())
        stats = AnalysisStats()
        apply_basic_statement_cached(matrix, stmt, cache=cache, stats=stats)
        apply_basic_statement_cached(
            matrix, ast.AssignNil(target="c"), cache=cache, stats=stats
        )
        assert stats.transfer_cache_evictions == 1
        twin = ast.CopyHandle(target="a", source="b")
        apply_basic_statement_cached(matrix.copy(), twin, cache=cache, stats=stats)
        assert stats.persistent_cache_hits == 1
        assert stats.transfer_cache_misses == 2
        written, _ = cache.flush(stats)
        assert written == 2  # the dedup never produced a delta for the twin

    def test_corrupt_store_entry_self_heals(self, tmp_path):
        # A payload that fails to decode must be discarded and re-admitted
        # from the recomputation at the next flush — not ignored forever.
        import sqlite3

        from repro.cache import STORE_FILENAME

        stmt, matrix = self.make_stmt_and_matrix()
        config = CacheConfig(directory=str(tmp_path))
        cold = BatchAnalyzer(limits=AnalysisLimits(), cache=config)
        reference = apply_basic_statement_cached(
            matrix, stmt, cache=cold.cache, stats=cold.stats
        )
        cold.close()

        connection = sqlite3.connect(str(tmp_path / STORE_FILENAME))
        (key,) = connection.execute("SELECT key FROM entries").fetchone()
        connection.execute("UPDATE entries SET payload = 'corrupt'")
        connection.commit()
        connection.close()

        warm = BatchAnalyzer(limits=AnalysisLimits(), cache=config)
        healed = apply_basic_statement_cached(
            matrix.copy(), stmt, cache=warm.cache, stats=warm.stats
        )
        assert healed.matrix == reference.matrix
        assert warm.stats.persistent_cache_hits == 0  # corrupt row is a miss
        assert warm.stats.transfer_cache_misses == 1
        warm.close()

        # The store now holds the repaired payload: a third run hits it.
        third = BatchAnalyzer(limits=AnalysisLimits(), cache=config)
        assert apply_basic_statement_cached(
            matrix.copy(), stmt, cache=third.cache, stats=third.stats
        ).matrix == reference.matrix
        assert third.stats.persistent_cache_hits == 1
        store = DiskBackend(str(tmp_path))
        row = store._connection.execute(
            "SELECT payload FROM entries WHERE key = ?", (key,)
        ).fetchone()
        assert row[0] != "corrupt"
        store.close()
        third.close()

    def test_memory_evictions_are_counted_into_stats(self):
        cache = TransferCache(capacity=1)
        stats = AnalysisStats()
        matrix = PathMatrix(["v0", "v1", "v2"])
        for index in range(3):
            apply_basic_statement_cached(
                matrix, ast.AssignNil(target=f"v{index}"), cache=cache, stats=stats
            )
        assert stats.transfer_cache_evictions == 2
        assert cache.evictions == 2


TWIN_WALK = """program {program}

procedure main()
  root, kid: handle
begin
  root := new();
  kid := new();
  root.left := kid;
  {walker}(root)
end

procedure {walker}(h: handle)
  a, b: handle
begin
  a := h.left;
  b := a;
  a := h.right;
  b.right := a
end
"""

FLIP = """program flip

procedure main()
  a, b, c: handle
begin
  a := new();
  c := new();
  a.left := c;
  b := a.left
end
"""

SHARED_COPY = """program shared_copy

procedure main()
  root, kid, a, b: handle
begin
  root := new();
  kid := new();
  root.left := kid;
  first(root);
  a := root.left;
  b := a
end

procedure first(h: handle)
  a, b: handle
begin
  a := h.left;
  {tail}
end
"""

CALLEE_EDIT = """program callee_edit

procedure main()
  a, b: handle
begin
  a := new();
  b := new();
  touch(a, b)
end

procedure touch(h, t: handle)
  x: handle
begin
  x := new();
  h.left := x
end
"""


class TestContentKeyedTransferMemo:
    """The in-memory transfer key is (statement identity, limits, matrix)."""

    def sealed_matrix(self, *handles, entries=()):
        matrix = PathMatrix(list(handles))
        for source_handle, target_handle, paths in entries:
            matrix.set(source_handle, target_handle, PathSet.parse(paths))
        return matrix.seal()

    def test_equal_renderings_of_different_kinds_never_share(self):
        copy_stmt = ast.CopyHandle(target="x", source="y")
        scalar_stmt = ast.ScalarAssign(target="x", expr=ast.Name(ident="y"))
        assert statement_identity(copy_stmt)[1] == statement_identity(scalar_stmt)[1]
        matrix = self.sealed_matrix("x", "y", "z", entries=[("z", "y", "L1")])
        cache, stats = TransferCache(capacity=64), AnalysisStats()
        copied = apply_basic_statement_cached(matrix, copy_stmt, cache=cache, stats=stats)
        scalar = apply_basic_statement_cached(matrix, scalar_stmt, cache=cache, stats=stats)
        assert stats.transfer_cache_misses == 2 and stats.transfer_cache_hits == 0
        assert len(cache) == 2
        assert copied.matrix == apply_basic_statement(matrix, copy_stmt).matrix
        assert scalar.matrix == apply_basic_statement(matrix, scalar_stmt).matrix
        assert copied.matrix != scalar.matrix

    def test_one_statement_under_two_limits_never_shares(self):
        # x -> a gains a fifth segment: collapsed under the default
        # max_segments=4, kept exact under 8.
        stmt = ast.LoadField(target="a", source="b", field_name=ast.Field.LEFT)
        matrix = self.sealed_matrix("x", "b", "a", entries=[("x", "b", "L1R1L1R1")])
        tight, loose = AnalysisLimits(), AnalysisLimits(max_segments=8)
        cache, stats = TransferCache(capacity=64), AnalysisStats()
        first = apply_basic_statement_cached(matrix, stmt, tight, cache=cache, stats=stats)
        second = apply_basic_statement_cached(matrix, stmt, loose, cache=cache, stats=stats)
        assert stats.transfer_cache_misses == 2 and stats.transfer_cache_hits == 0
        assert len(cache) == 2
        assert first.matrix == apply_basic_statement(matrix, stmt, tight).matrix
        assert second.matrix == apply_basic_statement(matrix, stmt, loose).matrix
        assert first.matrix != second.matrix

    def test_content_equal_statements_share_across_programs(self):
        from repro.analysis import analyze_program_reference
        from repro.sil.normalize import parse_and_normalize

        batch = BatchAnalyzer()
        counts = []
        for program_name, walker in (("one", "walk_left"), ("two", "descend")):
            program, info = parse_and_normalize(
                TWIN_WALK.format(program=program_name, walker=walker)
            )
            before = batch.stats.counters()
            entries_before = len(batch.cache)
            result = batch.analyze(program, info)
            counts.append(
                (
                    batch.stats.transfer_cache_hits - before["transfer_cache_hits"],
                    batch.stats.transfer_cache_misses - before["transfer_cache_misses"],
                    len(batch.cache) - entries_before,
                )
            )
            reference = analyze_program_reference(program, info)
            assert result.canonical() == reference.canonical()
        (_, cold_misses, cold_entries), (warm_hits, warm_misses, warm_entries) = counts
        assert cold_misses > 0 and cold_entries > 0
        # Every transfer of the second program, its walker included, is
        # answered by an entry the first program put.
        assert warm_misses == 0 and warm_entries == 0
        assert warm_hits >= cold_misses

    def test_in_place_statement_edit_between_bare_runs_is_not_stale(self):
        from repro.analysis import analyze_program, analyze_program_reference
        from repro.sil.normalize import parse_and_normalize

        program, info = parse_and_normalize(FLIP)
        (load,) = [
            stmt
            for stmt in ast.walk_stmt(program.callable("main").body)
            if isinstance(stmt, ast.LoadField)
        ]
        first = analyze_program(program, info)
        assert first.canonical() == analyze_program_reference(program, info).canonical()
        load.field_name = ast.Field.RIGHT
        second = analyze_program(program, info)
        reference = analyze_program_reference(program, info)
        assert second.canonical() == reference.canonical()
        assert second.canonical() != first.canonical()

    @pytest.mark.parametrize("runner", ["bare", "reused_batch"])
    def test_callee_edit_is_not_stale(self, runner):
        # The caller's call statement is the same object before and after
        # the edit, so only the callee's new summary can tell the runs apart.
        from repro.analysis import analyze_program, analyze_program_reference
        from repro.sil.normalize import parse_and_normalize

        program, info = parse_and_normalize(CALLEE_EDIT)
        (store,) = [
            stmt
            for stmt in ast.walk_stmt(program.callable("touch").body)
            if isinstance(stmt, ast.StoreField)
        ]
        batch = BatchAnalyzer()

        def analyze():
            if runner == "bare":
                return analyze_program(program, info)
            return batch.analyze(program, info)

        first = analyze()
        assert first.canonical() == analyze_program_reference(program, info).canonical()
        store.source = "t"
        second = analyze()
        assert second.canonical() == analyze_program_reference(program, info).canonical()
        assert second.canonical() != first.canonical()

    def test_invalidate_statements_drops_exactly_the_labelled_entries(self):
        from repro.sil.delta import statement_label
        from repro.sil.normalize import parse_and_normalize

        program, info = parse_and_normalize(
            TWIN_WALK.format(program="one", walker="walk_left")
        )
        batch = BatchAnalyzer(transfer_cache=TransferCache(backend=MemoryBackend()))
        cold = batch.analyze(program, info).canonical()
        cache = batch.cache
        walker = list(ast.walk_stmt(program.callable("walk_left").body))
        (copy_stmt,) = [s for s in walker if isinstance(s, ast.CopyHandle)]
        (call,) = [
            s for s in ast.walk_stmt(program.callable("main").body)
            if isinstance(s, ast.ProcCall)
        ]
        identity = statement_identity(copy_stmt)
        entries = set(cache._entries)
        pending_labels = dict(cache._pending_labels)
        pending = len(cache._pending)

        dropped = cache.invalidate_statements(
            {statement_label(copy_stmt), statement_label(call)}
        )
        # The in-memory entries are keyed on content, so none can be stale:
        # the copy's entries stay, for this program and any other.
        assert set(cache._entries) == entries
        assert any(key[0] == identity for key in cache._entries)
        # A call puts no memo entry, so nothing carrying its label is dropped.
        gone_pending = pending_labels.keys() - cache._pending_labels.keys()
        assert {pending_labels[key] for key in gone_pending} == {statement_label(copy_stmt)}
        assert dropped == pending - len(cache._pending) == len(gone_pending) > 0
        # Nothing recomputes; results do not move.
        before = batch.stats.transfer_cache_misses
        assert batch.analyze(program, info).canonical() == cold
        assert batch.stats.transfer_cache_misses == before

    def test_removing_one_copy_of_a_statement_keeps_the_others_memoized(self):
        # The edit removes first's ``b := a``.  main's own ``b := a`` (same
        # text, another input matrix) is re-solved because main calls first,
        # and its transfer must still hit: only the new ``a := a`` computes.
        from repro.analysis import analyze_program_reference
        from repro.analysis.reanalysis import IncrementalSession
        from repro.sil.normalize import parse_and_normalize

        session = IncrementalSession()
        session.analyze(*parse_and_normalize(SHARED_COPY.format(tail="b := a")))
        program, info = parse_and_normalize(SHARED_COPY.format(tail="a := a"))
        report = session.reanalyze(program, info)
        assert "CopyHandle|b := a" in report.delta.stale_statement_labels
        assert report.procedures_reanalyzed == ("first", "main")
        assert report.stats_delta["transfer_cache_misses"] == 1
        assert report.stats_delta["transfer_cache_hits"] == 6
        reference = analyze_program_reference(program, info)
        assert report.result.canonical() == reference.canonical()

    def test_in_place_statement_edit_with_a_reused_context_is_not_stale(self):
        # A context handed back to analyze_program renders its statement
        # identities afresh for each run.
        from repro.analysis import analyze_program, analyze_program_reference
        from repro.analysis.context import AnalysisContext
        from repro.sil.normalize import parse_and_normalize

        program, info = parse_and_normalize(FLIP)
        (load,) = [
            stmt
            for stmt in ast.walk_stmt(program.callable("main").body)
            if isinstance(stmt, ast.LoadField)
        ]
        context = AnalysisContext(program=program, info=info)
        analyze_program(program, info, context=context)
        load.field_name = ast.Field.RIGHT
        again = analyze_program(program, info, context=context)
        assert again.canonical() == analyze_program_reference(program, info).canonical()


class TestWarmBatchAnalyzer:
    """Satellite: persistent hits must replay widening counters exactly."""

    def deep_program(self):
        scenario = generate_scenarios(1, base_seed=7, families=["deep"])[0]
        from repro.sil.normalize import parse_and_normalize

        return parse_and_normalize(scenario.source)

    def test_warm_run_replays_widening_telemetry_exactly(self, tmp_path):
        program, info = self.deep_program()
        config = CacheConfig(directory=str(tmp_path))

        cold = BatchAnalyzer(cache=config)
        cold_result = cold.analyze(program, info)
        cold.close()
        assert cold.stats.widening_fired()  # deep scenarios widen at defaults

        warm = BatchAnalyzer(cache=config)
        warm_result = warm.analyze(program, info)
        warm.close()

        assert warm.stats.widening_counters() == cold.stats.widening_counters()
        assert warm.stats.persistent_cache_hits > 0
        assert warm.stats.transfer_cache_misses == 0  # nothing recomputed
        assert warm_result.canonical() == cold_result.canonical()

    def test_warm_run_under_higher_cache_pressure_still_bit_identical(self, tmp_path):
        # A tiny in-memory layer forces constant eviction and re-reading
        # through the persistent tier; outcomes must not change.
        from dataclasses import replace

        program, info = load("add_and_reverse", depth=3)
        config = CacheConfig(directory=str(tmp_path))
        cold = BatchAnalyzer(cache=config)
        reference = cold.analyze(program, info).canonical()
        cold.close()

        tiny = replace(AnalysisLimits(), transfer_cache_size=2)
        warm = BatchAnalyzer(limits=tiny, cache=config)
        assert warm.analyze(program, info).canonical() == reference
        assert warm.stats.transfer_cache_evictions > 0
        assert warm.stats.transfer_cache_misses == 0
        warm.close()

class TestStatsRoundTrip:
    def test_new_counters_merge_and_round_trip(self):
        stats = AnalysisStats(
            persistent_cache_hits=3,
            persistent_cache_misses=2,
            persistent_cache_writes=2,
            persistent_cache_evictions=1,
            transfer_cache_evictions=4,
        )
        assert AnalysisStats.from_dict(stats.as_dict()) == stats
        merged = stats.merge(stats)
        assert merged.persistent_cache_hits == 6
        assert merged.persistent_cache_hit_rate == pytest.approx(6 / 10)
        assert stats.persistent_cache_hit_rate == pytest.approx(3 / 5)
