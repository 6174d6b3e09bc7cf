"""Invariants of the hash-consed path domain.

The analysis relies on interning for both speed (identity equality,
precomputed hashes, memoized operations) and correctness (the memo caches
key on object identity, which is only sound if equal values are always the
same object).  These tests pin down those laws.
"""

import itertools

import pytest

from repro.analysis.limits import AnalysisLimits
from repro.analysis.matrix import PathMatrix
from repro.analysis.paths import (
    Direction,
    Path,
    PathSegment,
    MAYBE_SAME,
    SAME,
    format_path,
    parse_path,
    paths_may_intersect,
    subsumes,
)
from repro.analysis.pathset import PathSet, intern_table_sizes
from repro.analysis.transfer import (
    TransferCache,
    apply_basic_statement_cached,
)
from repro.sil import ast


SAMPLE_SETS = [
    "S",
    "S?",
    "L1",
    "R+",
    "S, L1",
    "S?, D+?",
    "L1, R1",
    "L+, R+?",
    "L1L+, R2",
    "D2+?",
    "L1R1, L2?",
    "",
]


def sets():
    return [PathSet.parse(text) for text in SAMPLE_SETS]


def uninterned_path_texts(count):
    """``count`` four-segment paths absent from the path intern table.

    The domain is finite, so any path a test names may already have been
    interned by an earlier test in the same process; these are checked
    against the table first.
    """
    interned = {format_path(path) for path in list(Path._intern.values())}
    candidates = (
        f"L{a}R{b}L{c}R{d}" for a, b, c, d in itertools.product(range(1, 9), repeat=4)
    )
    fresh = (text for text in candidates if text not in interned)
    return list(itertools.islice(fresh, count))


class TestSegmentInterning:
    def test_identity(self):
        a = PathSegment(Direction.LEFT, 2, True)
        b = PathSegment(Direction.LEFT, 2, True)
        assert a is b

    def test_distinct(self):
        assert PathSegment(Direction.LEFT, 2, True) is not PathSegment(
            Direction.LEFT, 2, False
        )

    def test_equality_hash_law(self):
        a = PathSegment(Direction.DOWN, 3, False)
        b = PathSegment(Direction.DOWN, 3, False)
        assert a == b and hash(a) == hash(b)

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            PathSegment(Direction.LEFT, 0, True)

    def test_immutable(self):
        segment = PathSegment(Direction.LEFT, 1, True)
        with pytest.raises(AttributeError):
            segment.count = 5


class TestPathInterning:
    def test_identity(self):
        assert parse_path("L1R+") is parse_path("L1R+")

    def test_definiteness_distinguishes(self):
        assert parse_path("L1") is not parse_path("L1?")

    def test_module_constants_are_the_interned_instances(self):
        assert Path((), True) is SAME
        assert Path((), False) is MAYBE_SAME

    def test_equality_hash_law(self):
        a = parse_path("L1L+")
        b = Path(a.segments, a.definite)
        assert a is b and a == b and hash(a) == hash(b)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            parse_path("L1").definite = False

    def test_predicates_are_consistent_with_memoization(self):
        first, second = parse_path("L+"), parse_path("L2")
        # Memoized and repeated calls agree (and self-intersection holds).
        assert paths_may_intersect(first, second) is paths_may_intersect(first, second)
        assert paths_may_intersect(first, first)
        assert subsumes(first, second) is subsumes(first, second)
        assert subsumes(first, second)


class TestPathSetInterning:
    def test_identity_is_content_based(self):
        assert PathSet.parse("S?, D+?") is PathSet.parse("D+?, S?")

    def test_equality_hash_law(self):
        for a in sets():
            b = PathSet(list(a))
            assert a is b
            assert a == b and hash(a) == hash(b)

    def test_empty_singleton(self):
        assert PathSet.empty() is PathSet.parse("")

    def test_union_commutative_and_interned(self):
        for a in sets():
            for b in sets():
                assert a.union(b) is b.union(a)

    def test_union_idempotent(self):
        for a in sets():
            assert a.union(a) is a

    def test_union_associative(self):
        pool = sets()
        for a in pool:
            for b in pool:
                for c in pool:
                    assert a.union(b).union(c) is a.union(b.union(c))

    def test_merge_commutative_and_interned(self):
        for a in sets():
            for b in sets():
                assert a.merge(b) is b.merge(a)

    def test_merge_idempotent(self):
        for a in sets():
            assert a.merge(a) is a

    def test_merge_associative(self):
        pool = sets()
        for a in pool:
            for b in pool:
                for c in pool:
                    assert a.merge(b).merge(c) is a.merge(b.merge(c))

    def test_weakened_stable(self):
        for a in sets():
            weak = a.weakened()
            assert weak.weakened() is weak

    def test_collapse_memoized(self):
        limits = AnalysisLimits(max_paths_per_entry=1)
        big = PathSet.parse("L1, L2, R1")
        assert big.collapse(limits) is big.collapse(limits)

    def test_intern_tables_reported(self, intern_tables):
        # The paths are new to the process, so the parse must intern fresh
        # entries; the held reference keeps the weak table rows alive
        # across the growth read.
        # (>= 1, not an exact count: the tables are weak, so unrelated
        # entries may be collected between the snapshot and this read.)
        texts = uninterned_path_texts(3)
        assert len(texts) == 3
        held = PathSet.parse(", ".join(texts))  # noqa: F841
        growth = intern_tables.growth()
        assert growth["paths_interned"] >= 1
        assert growth["pathsets_interned"] >= 1
        tables = intern_tables.current()
        assert tables["paths_interned"] > 0
        assert tables["pathsets_interned"] > 0


class TestMatrixFingerprint:
    def test_fingerprint_tracks_mutation(self):
        matrix = PathMatrix(["a", "b"])
        before = matrix.fingerprint()
        assert matrix.fingerprint() is before  # cached between mutations
        matrix.set("a", "b", PathSet.parse("L1"))
        assert matrix.fingerprint() != before

    def test_equal_contents_equal_fingerprints(self):
        first = PathMatrix(["a", "b"])
        first.set("a", "b", PathSet.parse("L1"))
        second = PathMatrix(["a", "b"])
        second.set("a", "b", PathSet.parse("L1"))
        assert first.fingerprint() == second.fingerprint()

    def test_copy_shares_fingerprint_value(self):
        matrix = PathMatrix(["a", "b"])
        matrix.set("a", "b", PathSet.parse("L+?"))
        assert matrix.copy().fingerprint() == matrix.fingerprint()


class TestTransferMemoization:
    def test_hit_returns_identical_result(self):
        cache = TransferCache(capacity=64)
        stmt = ast.CopyHandle(target="a", source="b")
        matrix = PathMatrix(["a", "b", "c"])
        matrix.set("b", "c", PathSet.parse("L1"))

        class Stats:
            transfer_cache_hits = 0
            transfer_cache_misses = 0

        stats = Stats()
        first = apply_basic_statement_cached(matrix, stmt, cache=cache, stats=stats)
        second = apply_basic_statement_cached(
            matrix.copy(), stmt, cache=cache, stats=stats
        )
        assert second is first  # identical TransferResult object
        assert stats.transfer_cache_hits == 1 and stats.transfer_cache_misses == 1

    def test_lru_bound_respected(self):
        cache = TransferCache(capacity=2)
        stmts = [ast.AssignNil(target=f"v{i}") for i in range(4)]
        matrix = PathMatrix([f"v{i}" for i in range(4)])
        for stmt in stmts:
            apply_basic_statement_cached(matrix, stmt, cache=cache)
        assert len(cache) == 2
