"""Packed representations and the scratch/sealed matrix forms.

Covers the invariants the packed kernels and the two matrix forms must hold:

* the packed segment encoding round-trips over its *whole* domain —
  direction × count × exact, including the limit-boundary counts the
  widening logic produces (property-based, hypothesis);
* scratch (mutable) and sealed matrices with equal contents produce
  **byte-identical** cache-codec keys and canonical forms — the form must
  be invisible to the persistent store and the sharded digests;
* codec keys are ``PYTHONHASHSEED``-independent (fresh subprocesses with
  different seeds agree byte for byte);
* the interning-table report covers the packed-segment and matrix-row
  tables, so table growth stays observable.
"""

import os
import subprocess
import sys
from pathlib import Path as FilePath

from hypothesis import given, settings, strategies as st

from repro.analysis.limits import DEFAULT_LIMITS
from repro.analysis.matrix import PathMatrix
from repro.analysis.paths import (
    Direction,
    PathSegment,
    pack_segment,
    unpack_segment,
)
from repro.analysis.pathset import PathSet
from repro.cache.codec import transfer_key
from repro.sil import ast

SRC = str(FilePath(__file__).resolve().parent.parent / "src")

#: Counts the widening logic actually produces: zero (open-ended ``*``),
#: everything up to the default bounds, the exact boundary values where
#: ``max_exact_count`` / ``max_open_count`` widen, and far beyond.
BOUNDARY_COUNTS = sorted(
    {
        0,
        1,
        2,
        DEFAULT_LIMITS.max_exact_count - 1,
        DEFAULT_LIMITS.max_exact_count,
        DEFAULT_LIMITS.max_exact_count + 1,
        DEFAULT_LIMITS.max_open_count,
        DEFAULT_LIMITS.max_open_count + 1,
        63,
        64,
        1 << 20,
    }
)

directions = st.sampled_from(list(Direction))
counts = st.one_of(st.sampled_from(BOUNDARY_COUNTS), st.integers(min_value=0, max_value=1 << 24))
exacts = st.booleans()


class TestPackedSegmentEncoding:
    @given(direction=directions, count=counts, exact=exacts)
    @settings(max_examples=300)
    def test_pack_unpack_round_trips_over_the_full_domain(self, direction, count, exact):
        packed = pack_segment(direction, count, exact)
        assert unpack_segment(packed) == (direction, count, exact)

    @given(direction=directions, count=counts.filter(lambda n: n >= 1), exact=exacts)
    @settings(max_examples=200)
    def test_packed_value_matches_the_interned_segment(self, direction, count, exact):
        # Segment *objects* require at least one edge; only the raw packed
        # encoding spans count zero (open-ended repetitions).
        segment = PathSegment(direction, count, exact)
        assert segment.packed == pack_segment(direction, count, exact)
        assert (segment.direction, segment.count, segment.exact) == unpack_segment(
            segment.packed
        )

    def test_encoding_is_injective_across_the_boundary_grid(self):
        grid = {
            pack_segment(direction, count, exact)
            for direction in Direction
            for count in BOUNDARY_COUNTS
            for exact in (False, True)
        }
        assert len(grid) == len(Direction) * len(BOUNDARY_COUNTS) * 2


def _scratch_matrix() -> PathMatrix:
    """A matrix built through the mutable (scratch-row) write path."""
    matrix = PathMatrix(["a", "b", "c"])
    matrix.set("a", "b", PathSet.parse("L1"))
    matrix.set("a", "c", PathSet.parse("R1, L1 R1"))
    matrix.set("b", "c", PathSet.parse("D+?"))
    return matrix


class TestScratchSealedCodecIdentity:
    def test_scratch_and_sealed_codec_keys_are_byte_identical(self):
        stmt = ast.CopyHandle(target="a", source="b")
        scratch = _scratch_matrix()
        scratch_key = transfer_key(stmt, DEFAULT_LIMITS, scratch)

        sealed = _scratch_matrix().seal()
        assert transfer_key(stmt, DEFAULT_LIMITS, sealed) == scratch_key

    def test_scratch_and_sealed_canonical_forms_agree(self):
        scratch = _scratch_matrix()
        sealed = _scratch_matrix().seal()
        assert scratch.canonical_form() == sealed.canonical_form()
        # Sealed matrices cache the form; scratch ones recompute it.
        assert sealed.canonical_form() is sealed.canonical_form()
        assert scratch == sealed

    def test_sealed_matrices_hash_by_content(self):
        first = _scratch_matrix().seal()
        second = _scratch_matrix().seal()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        # Mutable matrices stay unhashable: a key that could change under
        # a memo dict would silently corrupt every later probe.
        import pytest

        with pytest.raises(TypeError):
            hash(_scratch_matrix())


#: Prints the codec key of a fixed transfer application; run under
#: controlled ``PYTHONHASHSEED`` values to prove hash-seed independence.
_KEY_WORKER = """
import sys
sys.path.insert(0, {src!r})
from repro.analysis.limits import DEFAULT_LIMITS
from repro.analysis.matrix import PathMatrix
from repro.analysis.pathset import PathSet
from repro.cache.codec import transfer_key
from repro.sil import ast

matrix = PathMatrix(["a", "b", "c"])
matrix.set("a", "b", PathSet.parse("L1"))
matrix.set("a", "c", PathSet.parse("R1, L1 R1"))
matrix.set("b", "c", PathSet.parse("D+?"))
print(transfer_key(ast.CopyHandle(target="a", source="b"), DEFAULT_LIMITS, matrix))
"""


class TestHashSeedIndependence:
    def test_codec_keys_identical_across_hash_seeds(self):
        keys = []
        for seed in ("0", "4242"):
            completed = subprocess.run(
                [sys.executable, "-c", _KEY_WORKER.format(src=SRC)],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
                check=True,
            )
            keys.append(completed.stdout.strip())
        assert keys[0] == keys[1] and len(keys[0]) == 64


class TestLazyInterningCounters:
    """The intern-table report."""

    def test_intern_table_report_covers_the_new_tables(self, intern_tables):
        sizes = intern_tables.current()
        for table in (
            "segments_interned",
            "matrix_rows_interned",
        ):
            assert table in sizes and sizes[table] >= 0, table
        # The snapshot fixture sees the same vocabulary — the report is
        # stable within a process, wherever in the run it is read.
        assert set(intern_tables.before) == set(sizes)
        # A segment count this large appears nowhere else in the suite:
        # fresh interning work is visible as growth even on a cold start.
        held = PathSet.parse("D6779")  # noqa: F841
        assert intern_tables.growth()["segments_interned"] >= 1
