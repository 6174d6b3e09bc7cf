"""The path matrix: pairwise relationships among the live handles at a point.

``matrix[a, b]`` is a :class:`~repro.analysis.pathset.PathSet` describing
every possible directed path from the node named by handle ``a`` down to the
node named by handle ``b`` (including ``S`` when they may name the same
node).  The diagonal is implicitly ``{S}``.  An empty entry means the two
handles are known to be unrelated.

Handles are identified by name (strings).  Besides program variables, the
interprocedural analysis introduces *symbolic* handles — ``h*`` (the
calling procedure's argument bound to formal ``h``) and ``h**`` (the
arguments of all stacked recursive invocations); see
:mod:`repro.analysis.interproc`.

**Representation.**  A matrix stores its non-empty entries *row-wise*, in
one of two forms per row, both keyed by target handle *name* as the paper
indexes the matrix:

* a **sealed** :class:`MatrixRow` — immutable and hash-consed, the form
  every canonical encoding, codec key and pickle is built from;
* a **scratch** :class:`ScratchRow` — the private copy-on-write form a
  matrix mutates.  Freezing one adopts its cell dict as the interned
  row's table, with no conversion.

Rows are interned exactly like :class:`~repro.analysis.pathset.PathSet` —
identical row contents always yield the same object — so an unchanged row
survives any number of copies, transfers and control-flow joins *by
reference*, and "did this row change?" is a pointer comparison.  Whole
matrices are compared by value: a **sealed** matrix
(:meth:`PathMatrix.seal`) is immutable and caches its fingerprint, hash and
canonical form, so transfer-cache keys and memo probes hash in O(1) and an
equality test compares handles and row pointers.  The incremental solver
(:mod:`repro.analysis.pipeline`) reads "did an entry matrix change?" from
the changed rows of :meth:`PathMatrix.merge_delta`.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .limits import DEFAULT_LIMITS, AnalysisLimits
from .pathset import PathSet


def caller_symbol(formal: str) -> str:
    """The symbolic handle for the original caller's argument bound to ``formal``."""
    return f"{formal}*"


def stacked_symbol(formal: str) -> str:
    """The symbolic handle collecting the stacked recursive invocations' arguments."""
    return f"{formal}**"


def is_symbolic(handle: str) -> bool:
    """True for ``h*`` / ``h**`` style symbolic handles."""
    return handle.endswith("*")


class MatrixRow:
    """One immutable, hash-consed row of a path matrix.

    A row holds the non-empty entries out of one source handle:
    ``{target: PathSet}``.  Like path sets, rows are interned in a weak
    table — constructing the same contents twice yields the **same**
    object — so row equality is an identity check with a precomputed hash,
    and any operation that rebuilds a row without changing its contents
    (a transfer copying a matrix, a join reusing one side) automatically
    recovers the original object.  Empty cells are dropped at construction.
    """

    __slots__ = ("_cells", "_hash", "__weakref__")

    _intern: "weakref.WeakValueDictionary[frozenset, MatrixRow]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, cells: Mapping[str, PathSet] = {}) -> "MatrixRow":
        table = {target: paths for target, paths in cells.items() if not paths.is_empty}
        return cls._of(table)

    @classmethod
    def _of(cls, table: Dict[str, PathSet]) -> "MatrixRow":
        """Intern a table already known to contain no empty cells.

        The fast path the matrix's copy-on-write freeze uses: scratch rows
        are mutated privately and interned exactly once here.  The table is
        adopted as-is — callers hand over ownership.
        """
        key = frozenset(table.items())
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self._cells = table
        self._hash = hash(key)
        cls._intern[key] = self
        return self

    def __reduce__(self):
        return (_row_from_items, (tuple(self._cells.items()),))

    def get(self, target: str) -> Optional[PathSet]:
        """The cell for ``target``, or ``None`` when the row has no entry."""
        return self._cells.get(target)

    def cells(self) -> Iterator[Tuple[str, PathSet]]:
        return iter(self._cells.items())

    def with_cell(self, target: str, paths: PathSet) -> "MatrixRow":
        """A row with the ``target`` cell replaced (``paths`` must be non-empty)."""
        if self._cells.get(target) is paths:
            return self
        cells = dict(self._cells)
        cells[target] = paths
        return MatrixRow(cells)

    def without(self, target: str) -> "MatrixRow":
        """A row with the ``target`` cell dropped (self when absent)."""
        if target not in self._cells:
            return self
        cells = dict(self._cells)
        del cells[target]
        return MatrixRow(cells)

    def __contains__(self, target: str) -> bool:
        return target in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __bool__(self) -> bool:
        return bool(self._cells)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MatrixRow):
            return NotImplemented
        # Interned: distinct live instances have distinct contents; this
        # fallback covers exotic copies only (mirrors PathSegment).
        return self._cells == other._cells

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MatrixRow({ {t: ps.format() for t, ps in self._cells.items()} !r})"


def _row_from_items(items: Tuple[Tuple[str, PathSet], ...]) -> MatrixRow:
    """Pickle support: rebuild (and re-intern) a row from its cells."""
    return MatrixRow(dict(items))


class ScratchRow:
    """The private, mutable form of a row while its matrix is writing it.

    ``_cells`` maps target names to path sets, exactly like a
    :class:`MatrixRow`'s, so reads need not ask which form a row is in.
    Scratch rows never leave their matrix: :meth:`PathMatrix._freeze`
    interns them as :class:`MatrixRow` objects at every sharing or
    comparison point.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: Dict[str, PathSet]) -> None:
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells)


#: Either row form, as stored in ``PathMatrix._rows``.
Row = Union[MatrixRow, ScratchRow]


class PathMatrix:
    """A square matrix of :class:`PathSet` entries keyed by handle name.

    Handles are stored as an insertion-ordered set (a dict whose values
    are unused), so membership tests, additions and removals are one O(1)
    dict probe.  Entries live row-wise, **copy-on-write**: a row is either
    an interned :class:`MatrixRow` (immutable, possibly shared with other
    matrices) or a private :class:`ScratchRow` while this matrix is
    mutating it — the first mutation of a shared row unshares it into a
    scratch copy, later mutations are plain dict stores, and
    :meth:`_freeze` interns every scratch row exactly once at the points
    where rows are shared or compared (:meth:`copy`, :meth:`fingerprint`,
    :meth:`merge`, :meth:`seal`).  A matrix produced by copying therefore
    shares every unchanged row of its original by reference, and row
    change detection is a pointer check.  The matrix maintains a cheap
    mutation ``version`` from which an exact :meth:`fingerprint` is
    derived lazily; equality and the hash of a sealed matrix are both
    taken from it.
    """

    __slots__ = (
        "_handles",
        "_rows",
        "limits",
        "_version",
        "_fingerprint",
        "_fingerprint_version",
        "_sealed",
        "_thawed",
        "_hash",
        "_canonical",
        "__weakref__",
    )

    #: Total number of matrices constructed (snapshot-diffed by AnalysisStats).
    allocations: int = 0

    def __init__(
        self,
        handles: Iterable[str] = (),
        limits: AnalysisLimits = DEFAULT_LIMITS,
    ):
        # Dict insertion dedups while keeping first-occurrence order.
        self._handles: Dict[str, None] = dict.fromkeys(handles)
        self._rows: Dict[str, Row] = {}
        self.limits = limits
        self._version = 0
        self._fingerprint: Optional[Tuple] = None
        self._fingerprint_version = -1
        self._sealed = False
        self._thawed = False  # True while any row is a private ScratchRow
        self._hash: Optional[int] = None
        self._canonical: Optional[Tuple] = None
        PathMatrix.allocations += 1

    def __reduce__(self):
        return (
            _matrix_from_state,
            (
                tuple(self._handles),
                tuple((s, t, ps) for s, t, ps in self.entries()),
                self.limits,
                self._sealed,
            ),
        )

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------

    @property
    def handles(self) -> List[str]:
        """The handles tracked by this matrix, in insertion order (a copy)."""
        return list(self._handles)

    def iter_handles(self) -> Iterable[str]:
        """Iterate the tracked handles in insertion order without copying."""
        return self._handles.keys()

    def __contains__(self, handle: str) -> bool:
        return handle in self._handles

    def seal(self) -> "PathMatrix":
        """Mark this matrix immutable; further mutation raises.

        Matrices entering the memoized transfer cache are sealed because
        they are shared across program points, results and future runs —
        a silent mutation would poison every later cache hit.  ``copy()``
        returns an unsealed clone.
        """
        if self._thawed:
            self._freeze()
        self._sealed = True
        return self

    def _freeze(self) -> None:
        """Intern every copy-on-write (scratch) row.

        Idempotent and content-preserving: after freezing, all rows are
        interned :class:`MatrixRow` objects, so they can be
        shared across matrices and compared by pointer.  Called wherever
        rows escape this matrix or feed an identity comparison.
        """
        for source, row in self._rows.items():
            if type(row) is ScratchRow:
                self._rows[source] = MatrixRow._of(row._cells)
        self._thawed = False

    def _unshare(self, source: str, row: MatrixRow) -> ScratchRow:
        """Convert a shared interned row into this matrix's private scratch form."""
        scratch = ScratchRow(dict(row._cells))
        self._rows[source] = scratch
        self._thawed = True
        return scratch

    @property
    def is_sealed(self) -> bool:
        """True once the matrix is immutable (and therefore hashable)."""
        return self._sealed

    def _mutating(self) -> None:
        if self._sealed:
            raise ValueError(
                "this PathMatrix is sealed (shared via the transfer cache / "
                "analysis results); call copy() and mutate the copy"
            )

    def add_handle(self, handle: str) -> None:
        """Add a handle unrelated to everything already tracked (idempotent)."""
        if handle not in self._handles:
            self._mutating()
            self._handles[handle] = None
            self._version += 1

    def remove_handle(self, handle: str) -> None:
        """Drop a handle and every entry mentioning it (idempotent)."""
        if handle in self._handles:
            self._mutating()
            del self._handles[handle]
            self._version += 1
        self._drop_entries_of(handle)

    def clear_handle(self, handle: str) -> None:
        """Make ``handle`` unrelated to every other handle (it stays tracked)."""
        self._drop_entries_of(handle)

    def _drop_entries_of(self, handle: str) -> None:
        changed = False
        if handle in self._rows:
            self._mutating()
            del self._rows[handle]
            changed = True
        for source, row in list(self._rows.items()):
            if handle not in row._cells:
                continue
            self._mutating()
            if type(row) is MatrixRow:
                row = self._unshare(source, row)
            del row._cells[handle]
            if not row._cells:
                del self._rows[source]
            changed = True
        if changed:
            self._version += 1

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------

    def get(self, source: str, target: str) -> PathSet:
        """The entry ``p[source, target]`` (diagonal is implicitly ``{S}``)."""
        if source == target:
            if source in self._handles:
                return PathSet.same()
            return PathSet.empty()
        row = self._rows.get(source)
        if row is None:
            return PathSet.empty()
        paths = row._cells.get(target)
        return paths if paths is not None else PathSet.empty()

    def __getitem__(self, key: Tuple[str, str]) -> PathSet:
        return self.get(*key)

    def set(self, source: str, target: str, paths: PathSet) -> None:
        """Set ``p[source, target]``; empty sets erase the entry."""
        if source == target:
            return
        handles = self._handles
        if source not in handles:
            self.add_handle(source)
        if target not in handles:
            self.add_handle(target)
        paths = paths.collapse(self.limits)
        row = self._rows.get(source)
        if paths.is_empty:
            if row is not None and target in row._cells:
                self._mutating()
                if type(row) is MatrixRow:
                    row = self._unshare(source, row)
                del row._cells[target]
                if not row._cells:
                    del self._rows[source]
                self._version += 1
        elif row is None:
            self._mutating()
            self._rows[source] = ScratchRow({target: paths})
            self._thawed = True
            self._version += 1
        elif row._cells.get(target) is not paths:
            self._mutating()
            if type(row) is MatrixRow:
                row = self._unshare(source, row)
            row._cells[target] = paths
            self._version += 1

    def __setitem__(self, key: Tuple[str, str], paths: PathSet) -> None:
        self.set(key[0], key[1], paths)

    def add_paths(self, source: str, target: str, paths: PathSet) -> None:
        """Union additional paths into ``p[source, target]``."""
        if paths.is_empty or source == target:
            return
        self.set(source, target, self.get(source, target).union(paths))

    def entries(self) -> Iterator[Tuple[str, str, PathSet]]:
        """Iterate over the non-empty off-diagonal entries, row by row.

        Enumerating every entry is a sharing/encoding point, so scratch
        rows are interned first — the iteration then reads name-keyed
        cells only.
        """
        if self._thawed:
            self._freeze()
        for source, row in self._rows.items():
            for target, paths in row._cells.items():
                yield source, target, paths

    def row(self, source: str) -> Optional[MatrixRow]:
        """The interned row of ``source`` (``None`` when it has no entries)."""
        if self._thawed:
            self._freeze()
        return self._rows.get(source)

    def related(self, first: str, second: str) -> bool:
        """True if the two handles may be related in either direction (§5.2).

        The procedure-call parallelization test: two calls whose handle
        arguments are pairwise *unrelated* cannot interfere.
        """
        if first == second:
            return first in self._handles
        return not self.get(first, second).is_empty or not self.get(second, first).is_empty

    def unrelated(self, first: str, second: str) -> bool:
        return not self.related(first, second)

    def may_alias(self, first: str, second: str) -> bool:
        """True if the two handles may name the same node (S or S? present)."""
        if first == second:
            return first in self._handles
        return self.get(first, second).has_same or self.get(second, first).has_same

    def must_alias(self, first: str, second: str) -> bool:
        """True if the two handles definitely name the same node."""
        if first == second:
            return first in self._handles
        return self.get(first, second).has_definite_same or self.get(second, first).has_definite_same

    def descendants_of(self, handle: str) -> List[str]:
        """Handles possibly located at or below ``handle`` (including aliases)."""
        result = []
        for other in self._handles:
            if other == handle:
                continue
            if not self.get(handle, other).is_empty:
                result.append(other)
        return result

    @classmethod
    def from_entries(
        cls,
        handles: Iterable[str],
        entries: Iterable[Tuple[str, str, PathSet]],
        limits: AnalysisLimits = DEFAULT_LIMITS,
    ) -> "PathMatrix":
        """Rebuild a sealed matrix from already-canonical entries.

        The decode path of the persistent transfer cache
        (:mod:`repro.cache.codec`): entries are installed exactly as given —
        no :meth:`set`-style re-collapse, so no widening telemetry can fire
        from inside a decode and the rebuilt matrix equals the one that was
        encoded.  Callers must pass path sets that are already canonical
        under ``limits`` (anything produced by the analysis is).  The rows
        are interned, so the result shares them with every live matrix of
        the same rows.
        """
        matrix = cls(handles, limits)
        grouped: Dict[str, Dict[str, PathSet]] = {}
        for source, target, paths in entries:
            if source == target or paths.is_empty:
                continue
            grouped.setdefault(source, {})[target] = paths
        matrix._rows = {source: MatrixRow._of(cells) for source, cells in grouped.items()}
        matrix._version += 1
        return matrix.seal()

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------

    def fingerprint(self) -> Tuple:
        """An exact, hashable snapshot of this matrix's contents.

        Two matrices with equal fingerprints have the same handles (in the
        same insertion order), the same entries and the same limits, so a
        transfer function applied to either produces equal results; it is
        what ``==`` compares and what the hash of a sealed matrix hashes.
        With interned rows the frozenset hashes from precomputed per-row
        hashes, and the result is cached against a mutation counter so
        repeated lookups are cheap (and free for sealed matrices, whose
        contents can never change).
        """
        if self._fingerprint_version != self._version:
            if self._thawed:
                self._freeze()
            self._fingerprint = (
                tuple(self._handles),
                frozenset(self._rows.items()),
                self.limits,
            )
            self._fingerprint_version = self._version
        return self._fingerprint

    def canonical_form(self) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str, str], ...]]:
        """``(handles, sorted (source, target, rendered-path-set) triples)``.

        The process-independent textual identity shared by the sharded
        suite runner and the persistent cache codec.  Sealed matrices
        compute it once and cache it — the codec fast path — while mutable
        matrices recompute per call.
        """
        if self._canonical is not None:
            return self._canonical
        form = (
            tuple(self._handles),
            tuple(sorted((s, t, ps.format()) for s, t, ps in self.entries())),
        )
        if self._sealed:
            self._canonical = form
        return form

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------

    def copy(self) -> "PathMatrix":
        if self._thawed:
            self._freeze()
        clone = PathMatrix(self._handles, self.limits)
        clone._rows = dict(self._rows)  # frozen rows are immutable: shared
        return clone

    def restricted(self, handles: Sequence[str]) -> "PathMatrix":
        """A copy keeping only the given handles (project away the rest).

        Rows whose targets all survive carry over (frozen rows by
        reference); rebuilt subsets stay copy-on-write (projections are
        usually consumed once, so eagerly interning their rows would be
        wasted work).
        """
        keep_set = set(handles)
        keep = {handle: None for handle in self._handles if handle in keep_set}
        clone = PathMatrix(keep, self.limits)
        for source, row in self._rows.items():
            if source not in keep:
                continue
            cells = row._cells
            if cells.keys() <= keep.keys():
                # Every target cell survives the projection: share.
                if type(row) is MatrixRow:
                    clone._rows[source] = row
                else:
                    clone._rows[source] = ScratchRow(dict(cells))
                    clone._thawed = True
                continue
            kept = {target: paths for target, paths in cells.items() if target in keep}
            if kept:
                clone._rows[source] = ScratchRow(kept)
                clone._thawed = True
        return clone

    def renamed(self, mapping: Mapping[str, str]) -> "PathMatrix":
        """A copy with handles renamed via ``mapping`` (absent names unchanged).

        If two old handles map to the same new name their relationships are
        unioned (used when folding the current handle into ``h**``).
        Collision-free renames — the common case, e.g. rebinding the
        placeholder handle of a field load — relabel rows in place: cell
        values are already canonical, and a row whose source and targets
        are all unmapped carries over by reference.
        """
        new_names = [mapping.get(handle, handle) for handle in self._handles]
        if len(set(new_names)) == len(new_names):
            clone = PathMatrix(new_names, self.limits)
            mapped = mapping.keys()
            for source, row in self._rows.items():
                cells = row._cells
                if source in mapping or not mapped.isdisjoint(cells):
                    clone._rows[mapping.get(source, source)] = ScratchRow(
                        {mapping.get(target, target): paths for target, paths in cells.items()}
                    )
                    clone._thawed = True
                elif type(row) is MatrixRow:
                    clone._rows[source] = row
                else:
                    clone._rows[source] = ScratchRow(dict(cells))
                    clone._thawed = True
            clone._version += 1
            return clone
        clone = PathMatrix(limits=self.limits)
        for handle in self._handles:
            clone.add_handle(mapping.get(handle, handle))
        for source, target, paths in self.entries():
            new_source = mapping.get(source, source)
            new_target = mapping.get(target, target)
            if new_source == new_target:
                continue
            clone.add_paths(new_source, new_target, paths)
        return clone

    def merge(self, other: "PathMatrix") -> "PathMatrix":
        """Control-flow join of two matrices (see :meth:`PathSet.merge`).

        Entries tracked on both sides are merged path-set-wise (definite only
        where definite on both).  Handles tracked by only one side are kept
        with their relationships unchanged — the other control path does not
        know the handle at all, which only happens for dead or out-of-scope
        names.  A row that is *identical* on both sides (the common case on
        loop re-iterations) is reused by reference without any path-set work.
        """
        return self._merge_rows(other)[0]

    def merge_delta(self, other: "PathMatrix") -> Tuple["PathMatrix", Tuple[str, ...]]:
        """:meth:`merge`, plus the source handles whose rows changed vs ``self``.

        The delta names every handle that is newly tracked or whose row
        object differs from ``self``'s — exactly the rows an incremental
        consumer must re-propagate.  An empty delta means the merged
        matrix has the same contents as ``self``.
        """
        return self._merge_rows(other)

    def _merge_rows(self, other: "PathMatrix") -> Tuple["PathMatrix", Tuple[str, ...]]:
        if self._thawed:
            self._freeze()
        if other._thawed:
            other._freeze()
        result = PathMatrix(self._handles, self.limits)
        result._handles.update(other._handles)
        empty = PathSet.empty()
        for source in result._handles:
            mine_row = self._rows.get(source)
            their_row = other._rows.get(source)
            if mine_row is their_row:
                # Identical rows merge to themselves (pathset merge is
                # idempotent), so the join is a pointer copy.
                if mine_row is not None:
                    result._rows[source] = mine_row
                continue
            targets: Dict[str, None] = {}
            if mine_row is not None:
                for target in mine_row._cells:
                    targets[target] = None
            if their_row is not None:
                for target in their_row._cells:
                    targets.setdefault(target, None)
            cells: Dict[str, PathSet] = {}
            for target in targets:
                in_self = source in self._handles and target in self._handles
                in_other = source in other._handles and target in other._handles
                mine = (
                    ((mine_row.get(target) if mine_row is not None else None) or empty)
                    if in_self
                    else None
                )
                theirs = (
                    ((their_row.get(target) if their_row is not None else None) or empty)
                    if in_other
                    else None
                )
                if mine is not None and theirs is not None:
                    merged = mine.merge(theirs)
                elif mine is not None:
                    merged = mine
                elif theirs is not None:
                    merged = theirs
                else:  # pragma: no cover - unreachable (targets come from a row)
                    merged = empty
                merged = merged.collapse(self.limits)
                if not merged.is_empty:
                    cells[target] = merged
            if cells:
                result._rows[source] = MatrixRow._of(cells)
        result._version += 1
        changed = tuple(
            handle
            for handle in result._handles
            if handle not in self._handles
            or result._rows.get(handle) is not self._rows.get(handle)
        )
        return result, changed

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PathMatrix):
            return NotImplemented
        # Exactly what the hash covers, handle order and limits included,
        # so equal matrices always hash alike.  Per row the compare is an
        # identity check thanks to the interned rows.
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            if not self._sealed:
                raise TypeError("PathMatrix is not hashable (seal it first)")
            # Sealed contents can never change, so the fingerprint hash is
            # computed once and cached — memo probes keyed on the matrix
            # object then hash in O(1) instead of re-hashing the snapshot
            # tuple on every lookup.
            cached = self._hash = hash(self.fingerprint())
        return cached

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def format(self, handles: Optional[Sequence[str]] = None) -> str:
        """Render the matrix as an aligned text table (paper-figure style)."""
        order = list(handles) if handles is not None else list(self._handles)
        header = [""] + order
        rows: List[List[str]] = [header]
        for source in order:
            row = [source]
            for target in order:
                if source == target:
                    row.append("S" if source in self._handles else "")
                else:
                    row.append(self.get(source, target).format())
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for index, row in enumerate(rows):
            line = " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            lines.append(line.rstrip())
            if index == 0:
                lines.append("-+-".join("-" * width for width in widths))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.format()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        entry_count = sum(len(row) for row in self._rows.values())
        return f"PathMatrix(handles={list(self._handles)!r}, entries={entry_count})"


def _matrix_from_state(
    handles: Tuple[str, ...],
    entries: Tuple[Tuple[str, str, PathSet], ...],
    limits: AnalysisLimits,
    sealed: bool,
) -> PathMatrix:
    """Pickle support: rebuild a matrix, sealed when the original was."""
    matrix = PathMatrix(handles, limits)
    grouped: Dict[str, Dict[str, PathSet]] = {}
    for source, target, paths in entries:
        grouped.setdefault(source, {})[target] = paths
    matrix._rows = {source: MatrixRow(cells) for source, cells in grouped.items()}
    matrix._version += 1
    if sealed:
        matrix.seal()
    return matrix


def row_delta(before: PathMatrix, after: PathMatrix) -> Tuple[int, int]:
    """``(changed_rows, full_rows)`` between two matrices of one operation.

    ``full_rows`` is the matrix dimension a non-incremental engine rewrites
    for the operation (every handle row of the result); ``changed_rows``
    counts only the rows whose contents actually differ — handles added or
    removed, or rows whose interned object changed.  Because rows are
    hash-consed, the comparison is a pointer check per handle, and
    ``changed_rows <= full_rows + removed-handles`` always holds.
    """
    full = len(after._handles)
    if before is after:
        return 0, full
    if before._thawed:
        before._freeze()
    if after._thawed:
        after._freeze()
    changed = 0
    for handle in after._handles:
        if handle not in before._handles or after._rows.get(handle) is not before._rows.get(handle):
            changed += 1
    for handle in before._handles:
        if handle not in after._handles:
            changed += 1
    return changed, full


def canonical_document(matrix: PathMatrix) -> Dict[str, object]:
    """The ``{"handles": [...], "entries": [[s, t, paths], ...]}`` JSON shape.

    The **single** source of the canonical matrix layout: the sharded
    bit-identity encodings (:func:`repro.analysis.engine.canonical_matrix`)
    and the persistent cache keys/payloads (:mod:`repro.cache.codec`) are
    thin wrappers over this, so the byte layouts cannot drift apart.
    Sealed matrices serve the underlying form from their per-object cache.
    """
    handles, entries = matrix.canonical_form()
    return {"handles": list(handles), "entries": [list(entry) for entry in entries]}
