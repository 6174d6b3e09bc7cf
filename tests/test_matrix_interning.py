"""Invariants of the path-matrix layer: interned rows, sealed matrices.

The incremental solver relies on two laws:

* **rows** — equal row contents are always the same :class:`MatrixRow`
  object, so "did this row change?" is a pointer check and unchanged rows
  survive copies/transfers/joins by reference;
* **matrices** — a sealed :class:`PathMatrix` is immutable and hashable,
  and ``==`` compares exactly what its hash and canonical form hold
  (handle order and limits included), so entry matrices, projections and
  transfer inputs can key memos and sets by value.

These tests pin the laws down, including the round trips through the
persistent cache codec and through pickle (both return a sealed matrix
equal to the input) and a subprocess check that canonical encodings of
sealed matrices are ``PYTHONHASHSEED``-independent, mirroring
``test_cache_determinism.py``.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from repro.analysis.matrix import MatrixRow, PathMatrix, row_delta
from repro.analysis.pathset import PathSet
from repro.analysis.telemetry import WideningTally
from repro.analysis.transfer import TransferResult, apply_basic_statement
from repro.cache.codec import decode_entry, encode_entry
from repro.sil import ast

SRC = str(Path(__file__).resolve().parent.parent / "src")

SAMPLE_SETS = ["S", "S?", "L1", "R+", "S, L1", "S?, D+?", "L1R1, L2?", "D2+?"]
HANDLE_POOL = ["a", "b", "c", "h", "h*", "h**"]


def sample_matrix(entries, handles=HANDLE_POOL, limits=DEFAULT_LIMITS):
    matrix = PathMatrix(handles, limits)
    for source, target, text in entries:
        matrix.set(source, target, PathSet.parse(text))
    return matrix


class TestRowInterning:
    def test_identity_is_content_based(self):
        first = MatrixRow({"b": PathSet.parse("L1"), "c": PathSet.parse("R+")})
        second = MatrixRow({"c": PathSet.parse("R+"), "b": PathSet.parse("L1")})
        assert first is second
        assert hash(first) == hash(second)

    def test_empty_cells_dropped(self):
        assert MatrixRow({"b": PathSet.empty()}) is MatrixRow({})

    def test_with_cell_and_without_reintern(self):
        row = MatrixRow({"b": PathSet.parse("L1")})
        grown = row.with_cell("c", PathSet.parse("R1"))
        assert grown is MatrixRow({"b": PathSet.parse("L1"), "c": PathSet.parse("R1")})
        assert grown.without("c") is row
        assert row.with_cell("b", PathSet.parse("L1")) is row

    def test_matrix_mutation_shares_unchanged_rows(self):
        matrix = sample_matrix([("a", "b", "L1"), ("b", "c", "R1")])
        clone = matrix.copy()
        clone.set("b", "c", PathSet.parse("R2"))
        assert clone.row("a") is matrix.row("a")  # untouched row: same object
        assert clone.row("b") is not matrix.row("b")


class TestMatrixInterning:
    """Sealed matrices: equality, hashing and what ``merge_delta`` reports."""

    def test_limits_distinguish(self):
        tight = AnalysisLimits(max_paths_per_entry=3)
        a = sample_matrix([("a", "b", "L1")]).seal()
        b = sample_matrix([("a", "b", "L1")], limits=tight).seal()
        assert a != b and hash(a) != hash(b)

    def test_interned_is_sealed_and_hashable(self):
        matrix = sample_matrix([("a", "b", "L1")])
        with pytest.raises(TypeError):
            hash(matrix)  # mutable matrices stay unhashable
        sealed = matrix.seal()
        assert sealed is matrix and sealed.is_sealed
        assert hash(sealed) == hash(sample_matrix([("a", "b", "L1")]).seal())
        with pytest.raises(ValueError):
            sealed.set("a", "c", PathSet.parse("R1"))
        # ...and a copy is freely mutable.
        copy = sealed.copy()
        assert copy == sealed and not copy.is_sealed
        copy.set("a", "c", PathSet.parse("R1"))
        assert copy != sealed

    def test_handle_order_distinguishes(self):
        first = PathMatrix(["a", "b"]).seal()
        second = PathMatrix(["b", "a"]).seal()
        # Fingerprints are order-exact, and so are equality and the hash.
        assert first != second and hash(first) != hash(second)

    def test_equality_is_what_the_hash_and_canonical_form_hold(self):
        # Two equal copies of each content, over both handle orders and
        # two limits: == must agree with the canonical form plus limits,
        # and equal matrices must hash alike.
        tight = AnalysisLimits(max_paths_per_entry=3)
        population = [
            sample_matrix(entries, handles=handles, limits=limits).seal()
            for handles in (["x", "y"], ["y", "x"])
            for limits in (DEFAULT_LIMITS, tight)
            for entries in ([], [("x", "y", "L1")])
            for _ in range(2)
        ]
        for a in population:
            for b in population:
                same = a.canonical_form() == b.canonical_form() and a.limits == b.limits
                assert (a == b) is same, (a.canonical_form(), b.canonical_form())
                if same:
                    assert hash(a) == hash(b)

    def test_canonical_form_cached_on_interned(self):
        matrix = sample_matrix([("a", "b", "L1, R1")]).seal()
        assert matrix.canonical_form() is matrix.canonical_form()
        handles, entries = matrix.canonical_form()
        assert handles == tuple(HANDLE_POOL)
        assert entries == (("a", "b", "L1, R1"),)

    def test_from_entries_returns_the_interned_instance(self):
        entries = [("a", "b", PathSet.parse("L1"))]
        built = sample_matrix([("a", "b", "L1")], handles=["a", "b"]).seal()
        rebuilt = PathMatrix.from_entries(["a", "b"], entries)
        assert rebuilt.is_sealed
        assert rebuilt == built and hash(rebuilt) == hash(built)
        assert rebuilt.canonical_form() == built.canonical_form()
        assert rebuilt.row("a") is built.row("a")  # rows stay interned

    def test_merge_delta_reports_changed_rows(self):
        base = sample_matrix([("a", "b", "L1")], handles=["a", "b"])
        other = sample_matrix([("a", "b", "L1"), ("b", "a", "S?")], handles=["a", "b"])
        merged, changed = base.merge_delta(other)
        assert merged == base.merge(other)
        assert changed == ("b",)
        assert merged.row("a") is base.row("a")  # unchanged row reused
        # Absorbing the same contents again changes nothing.
        again, rechanged = merged.merge_delta(other)
        assert rechanged == ()
        assert again == merged

    def test_merge_delta_counts_new_handles(self):
        base = PathMatrix(["a"])
        other = sample_matrix([("a", "b", "L1")], handles=["a", "b"])
        _, changed = base.merge_delta(other)
        assert set(changed) == {"a", "b"}

    def test_row_delta_pointer_diff(self):
        before = sample_matrix([("a", "b", "L1"), ("b", "c", "R1")])
        after = before.copy()
        assert row_delta(before, after) == (0, len(HANDLE_POOL))
        after.set("b", "c", PathSet.parse("R2"))
        assert row_delta(before, after) == (1, len(HANDLE_POOL))
        after.remove_handle("c")
        changed, full = row_delta(before, after)
        assert full == len(HANDLE_POOL) - 1 and changed >= 2

    def test_transfer_results_share_unchanged_rows(self):
        matrix = sample_matrix([("a", "b", "L1"), ("c", "b", "R1")]).seal()
        result = apply_basic_statement(matrix, ast.AssignNil(target="a"))
        assert result.matrix.row("c") is matrix.row("c")
        assert result.matrix.row("a") is None


class TestCodecRoundTripsToSameObject:
    """Codec and pickle round trips give back a sealed, equal matrix."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(HANDLE_POOL),
                st.sampled_from(HANDLE_POOL),
                st.sampled_from(SAMPLE_SETS),
            ),
            max_size=8,
        )
    )
    def test_from_entries_round_trips_through_the_codec(self, raw_entries):
        entries = [
            (source, target, PathSet.parse(text))
            for source, target, text in raw_entries
            if source != target
        ]
        matrix = PathMatrix.from_entries(HANDLE_POOL, entries)
        payload = encode_entry(TransferResult(matrix=matrix), WideningTally())
        # The codec (twice, to show decoding is stable) and pickle each
        # return a sealed matrix equal to the input.
        for copy in (
            decode_entry(payload, DEFAULT_LIMITS)[0].matrix,
            decode_entry(payload, DEFAULT_LIMITS)[0].matrix,
            pickle.loads(pickle.dumps(matrix)),
        ):
            assert copy.is_sealed
            assert copy == matrix and hash(copy) == hash(matrix)
            assert copy.canonical_form() == matrix.canonical_form()
        # An unsealed matrix unpickles unsealed, and stays mutable.
        scratch = pickle.loads(pickle.dumps(matrix.copy()))
        assert not scratch.is_sealed and scratch == matrix
        scratch.add_handle("z")
        assert scratch != matrix

    def test_intern_tables_reported(self, intern_tables):
        # A path count this large appears nowhere else in the suite, so
        # sealing this matrix must grow the row table; the held reference
        # keeps the weak entries alive across the growth read.
        held = sample_matrix([("a", "b", "L7901")]).seal()  # noqa: F841
        assert intern_tables.growth()["matrix_rows_interned"] >= 1
        assert intern_tables.current()["matrix_rows_interned"] > 0


#: Builds a deterministic population of sealed matrices and prints a digest
#: of every canonical encoding and persistent transfer key.  Runs in a
#: subprocess under a controlled PYTHONHASHSEED.
_WORKER = """
import hashlib, json, sys
sys.path.insert(0, {src!r})

from repro.analysis.limits import DEFAULT_LIMITS
from repro.analysis.matrix import PathMatrix
from repro.analysis.pathset import PathSet
from repro.cache.codec import canonical_matrix, transfer_key
from repro.sil import ast

POOL = ["a", "b", "c", "h", "h*", "h**"]
SETS = ["S", "S?", "L1", "R+", "S, L1", "S?, D+?", "L1R1, L2?", "D2+?"]

documents = []
for spread in range(1, 5):
    matrix = PathMatrix(POOL, DEFAULT_LIMITS)
    for index, text in enumerate(SETS):
        source = POOL[index % len(POOL)]
        target = POOL[(index + spread) % len(POOL)]
        if source != target:
            matrix.set(source, target, PathSet.parse(text))
    sealed = matrix.seal()
    documents.append(canonical_matrix(sealed))
    stmt = ast.CopyHandle(target="a", source="b")
    documents.append(transfer_key(stmt, DEFAULT_LIMITS, sealed))

digest = hashlib.sha256(
    json.dumps(documents, sort_keys=True, separators=(",", ":")).encode()
).hexdigest()
print(json.dumps({{"digest": digest, "documents": len(documents)}}))
"""


class TestHashSeedIndependence:
    def _run(self, hash_seed: str) -> dict:
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
        completed = subprocess.run(
            [sys.executable, "-c", _WORKER.format(src=SRC)],
            capture_output=True,
            text=True,
            env=environment,
            check=True,
        )
        return json.loads(completed.stdout)

    def test_interned_encodings_are_hash_seed_independent(self):
        first = self._run("0")
        second = self._run("24862")
        assert first["documents"] > 0
        assert first == second
