"""Path sets — the entries of a path matrix.

``p[a, b]`` is a *set of paths* describing every way node ``b`` may be
reached from node ``a`` (plus ``S`` when they may be the same node).  An
empty set means the two handles are known to be unrelated — the fact the
parallelizer exploits.

Two different combination operations are needed:

* :meth:`PathSet.union` — accumulate paths discovered along the *same*
  control path (e.g. the new edges added by ``a.f := b``); a path definite
  in either argument stays definite.
* :meth:`PathSet.merge` — join information from *different* control paths
  (the two arms of an ``if``, successive loop iterations); a path is
  definite only if it is definite in **both** arguments, otherwise it is
  demoted to possible.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from . import telemetry
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .paths import (
    _SUBSUMES_CACHE,
    MAYBE_SAME,
    OP_MEMO_CAP,
    SAME,
    Path,
    PathSegment,
    format_path,
    generalize_pair,
    parse_path,
    subsumes,
)


class PathSet:
    """An immutable set of paths keyed by their segment sequence.

    Internally a mapping from the *definite form* of each member path to its
    definiteness flag; two paths with the same segments but different
    definiteness collapse into one entry.  Keying by interned :class:`Path`
    objects (rather than raw segment tuples) means every table probe and the
    intern-key frozenset hash below run on precomputed integer hashes — the
    cold-path cost of building a set is dict stores over already-hashed
    keys.  Paths that are subsumed by a more general member of the set
    (e.g. ``L1`` in the presence of ``L+``) are dropped unless they carry a
    *definiteness* guarantee the subsumer lacks — this keeps the sets small
    and makes the iterative loop/recursion approximation converge.

    Path sets are *hash-consed*: after canonicalization, identical contents
    always yield the **same** instance, so equality is an identity check,
    the hash is precomputed, and the merge and union operations used on
    every control-flow join are memoized over object pairs.
    """

    __slots__ = ("_paths", "_hash", "_format", "_elems", "__weakref__")

    # Unlike the (small, finite) Path/PathSegment tables, distinct path-set
    # contents are combinatorial, so the intern table holds its values
    # weakly: a set no longer referenced anywhere is collected and its slot
    # reclaimed.  The identity law still holds for all *live* sets.
    _intern: "weakref.WeakValueDictionary[FrozenSet[Tuple[Path, bool]], PathSet]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, paths: Iterable[Path] = ()) -> "PathSet":
        table: Dict[Path, bool] = {}
        for path in paths:
            key = path if path.definite else path.as_definite()
            existing = table.get(key)
            if existing is None:
                table[key] = path.definite
            else:
                # Same-derivation accumulation: definite dominates.
                table[key] = existing or path.definite
        return cls._of_table(table)

    @classmethod
    def _of_table(cls, table: Dict[Path, bool]) -> "PathSet":
        """Intern a set from an accumulated ``{definite-form: definite}`` table.

        The fast path the combination operations use: they build the table
        directly from their operands' tables (whose keys are already in
        definite form), skipping the per-path accumulation loop.
        """
        table = _drop_subsumed(table)
        key = frozenset(table.items())
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self._paths = table
        self._hash = hash(key)
        self._format: Optional[str] = None
        self._elems: Optional[Tuple[Path, ...]] = None
        cls._intern[key] = self
        return self

    def __reduce__(self):
        return (
            _pathset_from_items,
            (tuple((key.segments, definite) for key, definite in self._paths.items()),),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def empty() -> "PathSet":
        return _EMPTY

    @staticmethod
    def same(definite: bool = True) -> "PathSet":
        """The singleton set {S} (or {S?})."""
        return _SAME_SET if definite else _MAYBE_SAME_SET

    @staticmethod
    def of(*paths: Path) -> "PathSet":
        return PathSet(paths)

    @staticmethod
    def parse(text: str) -> "PathSet":
        """Parse a comma-separated list of path expressions, e.g. ``"S?, D+?"``.

        An empty / ``"-"`` / ``"{}"`` string gives the empty set.
        """
        cleaned = text.strip()
        if cleaned in ("", "-", "{}"):
            return PathSet.empty()
        return PathSet(parse_path(part) for part in cleaned.split(",") if part.strip())

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[Path]:
        # Interned sets are iterated many times (transfer loops, renders);
        # materialize the member paths once per set.
        elems = self._elems
        if elems is None:
            elems = self._elems = tuple(
                key if definite else key.as_possible()
                for key, definite in self._paths.items()
            )
        return iter(elems)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PathSet):
            return NotImplemented
        # Interned: distinct instances have distinct canonical contents.
        return self._paths == other._paths

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PathSet({self.format()!r})"

    @property
    def is_empty(self) -> bool:
        """True when the two handles are known to be unrelated."""
        return not self._paths

    @property
    def has_same(self) -> bool:
        """True if the set contains ``S`` or ``S?`` (possible aliasing)."""
        return SAME in self._paths

    @property
    def has_definite_same(self) -> bool:
        """True if the set contains a definite ``S`` (guaranteed aliasing)."""
        return self._paths.get(SAME, False) is True

    @property
    def has_possible_same(self) -> bool:
        """True if the set contains ``S?`` but not definite ``S``."""
        return self._paths.get(SAME, None) is False

    @property
    def has_proper_path(self) -> bool:
        """True if the set contains a non-``S`` (descendant) path."""
        return any(not key.is_same for key in self._paths)

    def definiteness_of_same(self) -> Optional[bool]:
        """None if no S path, else its definiteness."""
        return self._paths.get(SAME)

    def paths(self) -> List[Path]:
        return list(self)

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------

    def union(self, other: "PathSet") -> "PathSet":
        """Accumulate paths along the same control path (definite dominates)."""
        if not other or self is other:
            return self
        if not self:
            return other
        key = (self, other)
        cached = _UNION_CACHE.get(key)
        if cached is not None:
            return cached
        table = dict(self._paths)
        for path, definite in other._paths.items():
            if definite:
                table[path] = True
            elif path not in table:
                table[path] = False
        result = PathSet._of_table(table)
        _cache_put(_UNION_CACHE, key, result)
        return result

    def merge(self, other: "PathSet") -> "PathSet":
        """Control-flow join: definite only where definite on both sides.

        Paths present on only one side are kept but demoted to possible —
        on the other control path they might not exist.
        """
        if self is other:
            return self
        key = (self, other)
        cached = _MERGE_CACHE.get(key)
        if cached is not None:
            return cached
        table: Dict[Path, bool] = {}
        for path, definite in self._paths.items():
            other_definite = other._paths.get(path)
            if other_definite is None:
                table[path] = False
            else:
                table[path] = definite and other_definite
        for path in other._paths:
            if path not in self._paths:
                table[path] = False
        result = PathSet._of_table(table)
        _cache_put(_MERGE_CACHE, key, result)
        return result

    def weakened(self) -> "PathSet":
        """Every path demoted to possible (used by destructive updates)."""
        return PathSet._of_table(dict.fromkeys(self._paths, False))

    def map(self, transform) -> "PathSet":
        """Apply ``transform: Path -> Iterable[Path]`` and collect the results."""
        collected: List[Path] = []
        for path in self:
            collected.extend(transform(path))
        return PathSet(collected)

    # ------------------------------------------------------------------
    # Widening
    # ------------------------------------------------------------------

    def collapse(self, limits: AnalysisLimits = DEFAULT_LIMITS) -> "PathSet":
        """Widen an oversized entry down to at most a handful of paths.

        All non-``S`` paths are generalized pairwise into a single
        open-ended path; an ``S`` member is kept separately.  The result is
        a sound over-approximation of the original set.
        """
        if len(self._paths) <= limits.max_paths_per_entry:
            return self
        telemetry.note_path_set_collapse()
        same_definite = self._paths.get(SAME)
        collapsed: Optional[Path] = None
        for path, definite in self._paths.items():
            if path.is_same:
                continue
            member = path.with_definite(definite)
            if collapsed is None:
                collapsed = member
            else:
                collapsed = generalize_pair(collapsed, member, limits)
        result_paths: List[Path] = []
        if same_definite is not None:
            result_paths.append(SAME.with_definite(same_definite))
        if collapsed is not None:
            result_paths.append(collapsed)
        return PathSet(result_paths)

    def is_subset_of(self, other: "PathSet") -> bool:
        """Partial order used by fixed-point tests: self ⊑ other.

        Every path of ``self`` must appear in ``other`` with equal-or-weaker
        definiteness (a definite path is covered by the same definite path;
        a possible path is covered by either form).
        """
        for path, definite in self._paths.items():
            other_definite = other._paths.get(path)
            if other_definite is None:
                return False
            if definite and not other_definite:
                # other only has the possible form; the definite claim of
                # self is *stronger*, so self is not below other.
                continue
        return True

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def format(self) -> str:
        """Comma-separated rendering, e.g. ``"S?, D+?"``; empty set is ``""``.

        Interned sets are immutable, so the rendering is computed once and
        cached — it is the textual identity the canonical matrix encodings
        (sharded bit-identity checks, persistent cache keys) are built from.
        """
        if self._format is None:
            ordered = sorted(self, key=lambda p: (p.min_length, format_path(p)))
            self._format = ", ".join(format_path(path) for path in ordered)
        return self._format

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.format() or "{}"


def _drop_subsumed(table: Dict[Path, bool]) -> Dict[Path, bool]:
    """Remove paths covered by a more general member of the same set.

    A path is dropped only if some *other* path subsumes it and the subsumer
    is at least as definite (so no definiteness guarantee is lost).
    """
    if len(table) <= 1:
        return table
    keys = list(table)
    kept: Dict[Path, bool] = {}
    for path in keys:
        definite = table[path]
        dropped = False
        for other in keys:
            if other is path:
                continue
            if subsumes(other, path) and (table[other] or not definite):
                dropped = True
                break
        if not dropped:
            kept[path] = definite
    # Degenerate safety net: never drop everything.
    if not kept:
        return table
    return kept


def _pathset_from_items(items: Tuple[Tuple[Tuple[PathSegment, ...], bool], ...]) -> PathSet:
    """Pickle support: rebuild (and re-intern) a path set from its items."""
    return PathSet(Path(segments, definite) for segments, definite in items)


#: Memo tables for the two binary operations.  Keys hold strong references
#: to interned path sets, so entries can never go stale; the caches are
#: cleared wholesale if they ever reach the (generous) cap.
_UNION_CACHE: Dict[Tuple["PathSet", "PathSet"], "PathSet"] = {}
_MERGE_CACHE: Dict[Tuple["PathSet", "PathSet"], "PathSet"] = {}


def _cache_put(cache: Dict, key, value) -> None:
    if len(cache) >= OP_MEMO_CAP:  # pragma: no cover - safety bound
        cache.clear()
    cache[key] = value


def intern_table_sizes() -> Dict[str, int]:
    """Sizes of the global hash-consing and memo tables (stats and docs).

    Covers every representation layer: the packed-segment and path tables,
    path sets, matrix rows, and the three operation memos.
    """
    from .matrix import MatrixRow  # matrix imports this module

    return {
        "segments_interned": len(PathSegment._intern),
        "paths_interned": len(Path._intern),
        "pathsets_interned": len(PathSet._intern),
        "matrix_rows_interned": len(MatrixRow._intern),
        "union_memo": len(_UNION_CACHE),
        "merge_memo": len(_MERGE_CACHE),
        "subsumes_memo": len(_SUBSUMES_CACHE),
    }


_EMPTY = PathSet()
_SAME_SET = PathSet((SAME,))
_MAYBE_SAME_SET = PathSet((MAYBE_SAME,))
