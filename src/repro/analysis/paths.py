"""Path expressions — the atoms of the path-matrix abstract domain.

Section 4 of the paper: the relationship between two handles ``a`` and ``b``
is a set of *paths*.  A path is either ``S`` (the two handles refer to the
same node) or a *path expression*, a non-empty sequence of links:

* ``L^i`` — exactly *i* left edges,   ``L+`` — one or more left edges,
* ``R^i`` — exactly *i* right edges,  ``R+`` — one or more right edges,
* ``D^i`` — exactly *i* down edges (left or right), ``D+`` — one or more.

Each path is *definite* (guaranteed to exist) or *possible* (may exist),
written with a trailing ``?`` in the paper (``S?``, ``D+?``).

This module represents paths in a canonical, finite form
(:class:`PathSegment` sequences bounded by :class:`~repro.analysis.limits.
AnalysisLimits`) and implements the algebra the transfer functions need:

* :func:`concat` — path composition (x→b composed with b→y gives x→y);
* :func:`append_link` — extend a path by one explicit ``left``/``right`` edge
  (used for ``a := b.f``: every path x→b extends to a path x→a);
* :func:`cancel_first` — remove one leading ``left``/``right`` edge from a
  path (used for ``a := b.f``: a path b→x whose first edge *is* the ``f``
  edge leaves a remainder a→x; uncertain first edges yield possible paths);
* :func:`generalize_pair` — the widening used when path sets grow.

**Packed representation.**  Every segment also carries a *packed* integer
encoding — direction code in bits 0–1, the exact flag in bit 2, the edge
count from bit 3 up (:func:`pack_segment` / :func:`unpack_segment`) — and
every path carries the tuple of its segments' packed values plus the
definite flag folded into a precomputed intern tag.  The hot-loop kernels
(normalization, :func:`concat`, :func:`append_link`, :func:`cancel_first`,
:func:`subsumes`) run entirely on those integers: merging two adjacent
segments, clamping a count or comparing directions are shifts and masks,
interning probes hash machine ints instead of enum/tuple objects, and no
intermediate :class:`PathSegment` objects are allocated.  The segment
objects themselves are materialized lazily, only for paths that actually
get interned.
"""

from __future__ import annotations

import enum
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sil.ast import Field
from . import telemetry
from .limits import DEFAULT_LIMITS, AnalysisLimits


class Direction(enum.Enum):
    """The direction of a path segment: left, right, or down (either)."""

    LEFT = "L"
    RIGHT = "R"
    DOWN = "D"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @staticmethod
    def of_field(field: Field) -> "Direction":
        if field is Field.LEFT:
            return Direction.LEFT
        if field is Field.RIGHT:
            return Direction.RIGHT
        raise ValueError(f"{field} is not a link field")

    def could_match(self, field: Field) -> bool:
        """Can an edge in this direction be the given concrete link field?"""
        if self is Direction.DOWN:
            return True
        return self is Direction.of_field(field)

    def certainly_matches(self, field: Field) -> bool:
        """Is an edge in this direction *guaranteed* to be the given field?"""
        return self is not Direction.DOWN and self is Direction.of_field(field)

    def join(self, other: "Direction") -> "Direction":
        """The least direction covering both (L join R = D)."""
        if self is other:
            return self
        return Direction.DOWN


# ---------------------------------------------------------------------------
# Packed segment encoding
# ---------------------------------------------------------------------------

#: Direction codes for the packed encoding (bits 0–1 of a packed segment).
DIR_CODES: Dict[Direction, int] = {Direction.LEFT: 0, Direction.RIGHT: 1, Direction.DOWN: 2}
#: Inverse of :data:`DIR_CODES`, indexed by code.
DIR_BY_CODE: Tuple[Direction, ...] = (Direction.LEFT, Direction.RIGHT, Direction.DOWN)

_DIR_MASK = 0b11
_DOWN_CODE = 2
_EXACT = 0b100
_COUNT_SHIFT = 3

#: Packed codes for the concrete link fields (used by the transfer kernels).
_FIELD_CODE: Dict[Field, int] = {Field.LEFT: 0, Field.RIGHT: 1}

#: Count of packed-segment kernel operations performed process-wide
#: (normalizations count one op per segment handled; ``cancel_first`` counts
#: one per invocation).  Snapshot-diffed into ``AnalysisStats.
#: packed_segment_ops`` by the pipeline, mirroring ``PathMatrix.allocations``.
#: Work a path-set op memo hit skips is never counted, so the count reads
#: lower in a process whose memos are already warm.
_PACKED_OPS = 0


def packed_segment_ops() -> int:
    """The process-wide packed-kernel operation counter (monotone)."""
    return _PACKED_OPS


def pack_segment(direction: Direction, count: int, exact: bool) -> int:
    """Encode ``(direction, count, exact)`` as one integer.

    Layout: bits 0–1 the direction code (L=0, R=1, D=2), bit 2 the exact
    flag, bits 3+ the count.  Every valid segment (``count >= 1``) packs to
    an integer ``>= 8``, so packed values can double as collision-free
    intern keys and hashes.
    """
    return DIR_CODES[direction] | (_EXACT if exact else 0) | (count << _COUNT_SHIFT)


def unpack_segment(packed: int) -> Tuple[Direction, int, bool]:
    """Decode a packed segment back to ``(direction, count, exact)``."""
    return DIR_BY_CODE[packed & _DIR_MASK], packed >> _COUNT_SHIFT, bool(packed & _EXACT)


class PathSegment:
    """``count`` edges in ``direction``; exactly ``count`` if ``exact`` else at least.

    Instances are *hash-consed*: constructing the same (direction, count,
    exact) triple twice yields the **same** object, so equality is an identity
    check and the hash is precomputed.  The intern table is keyed by the
    packed integer encoding (:func:`pack_segment`), which is also the
    object's hash — probing the table hashes one machine int rather than an
    ``(enum, int, bool)`` tuple.  Interned instances are immutable and live
    for the lifetime of the process; the whole abstract domain is finite
    (see :mod:`repro.analysis.limits`), so the table stays small.
    """

    __slots__ = ("direction", "count", "exact", "packed")

    _intern: Dict[int, "PathSegment"] = {}

    def __new__(cls, direction: Direction, count: int, exact: bool) -> "PathSegment":
        packed = DIR_CODES[direction] | (_EXACT if exact else 0) | (count << _COUNT_SHIFT)
        cached = cls._intern.get(packed)
        if cached is not None:
            return cached
        if count < 1:
            raise ValueError("a path segment must contain at least one edge")
        self = object.__new__(cls)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "exact", bool(exact))
        object.__setattr__(self, "packed", packed)
        cls._intern[packed] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PathSegment is immutable (interned)")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("PathSegment is immutable (interned)")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PathSegment):
            return NotImplemented
        # Interning makes distinct instances unequal by construction; this
        # fallback only matters for exotic cases (e.g. unpickled copies from
        # another process image, which __reduce__ re-interns anyway).
        return self.packed == other.packed

    def __hash__(self) -> int:
        return self.packed

    def __reduce__(self):
        return (PathSegment, (self.direction, self.count, self.exact))

    @property
    def min_length(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PathSegment({self.direction!r}, {self.count!r}, {self.exact!r})"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return format_segment(self)


def _segment_of_packed(packed: int) -> PathSegment:
    """The interned segment for a packed encoding (decoding on first sight)."""
    cached = PathSegment._intern.get(packed)
    if cached is not None:
        return cached
    return PathSegment(
        DIR_BY_CODE[packed & _DIR_MASK], packed >> _COUNT_SHIFT, bool(packed & _EXACT)
    )


def format_segment(segment: PathSegment) -> str:
    """``L1``, ``R+``, ``D2+`` (the paper's ``L^1``, ``R+``, superscripts flattened)."""
    base = segment.direction.value
    if segment.exact:
        return f"{base}{segment.count}"
    if segment.count == 1:
        return f"{base}+"
    return f"{base}{segment.count}+"


class Path:
    """A single path: ``S`` (empty segment tuple) or a path expression.

    ``definite`` is True for paths guaranteed to exist, False for paths that
    may exist (displayed with a trailing ``?``).

    Like :class:`PathSegment`, paths are hash-consed: the same (segments,
    definite) pair always yields the same object, equality is identity, and
    the hash is precomputed.  The intern key is the tuple of the segments'
    *packed* integers with the definite flag folded in as a trailing tag —
    an all-int tuple that hashes from machine ints, never touching the
    segment objects.  ``min_length`` is precomputed at construction, and the
    opposite-definiteness variant of every path is cached after first use,
    so flipping definiteness (the single most common path operation in
    joins) is a slot load.
    """

    __slots__ = ("segments", "packed", "definite", "min_length", "_hash", "_alt")

    _intern: Dict[Tuple[int, ...], "Path"] = {}

    def __new__(
        cls, segments: Iterable["PathSegment"] = (), definite: bool = True
    ) -> "Path":
        segments = tuple(segments)
        return cls._of_packed(
            tuple(segment.packed for segment in segments), bool(definite), segments
        )

    @classmethod
    def _of_packed(
        cls,
        packed: Tuple[int, ...],
        definite: bool,
        segments: Optional[Tuple["PathSegment", ...]] = None,
    ) -> "Path":
        """Intern a path from its packed encoding (the kernel fast path).

        ``segments`` may be supplied when the caller already holds the
        segment objects; otherwise they are materialized from the packed
        values only on an intern miss.
        """
        key = packed + (1,) if definite else packed + (0,)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        if segments is None:
            segments = tuple(_segment_of_packed(value) for value in packed)
        self = object.__new__(cls)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "definite", definite)
        object.__setattr__(
            self, "min_length", sum(value >> _COUNT_SHIFT for value in packed)
        )
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_alt", None)
        cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Path is immutable (interned)")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Path is immutable (interned)")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Path):
            return NotImplemented
        return self.packed == other.packed and self.definite == other.definite

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Path, (self.segments, self.definite))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Path({self.segments!r}, definite={self.definite!r})"

    @property
    def is_same(self) -> bool:
        """True for the ``S`` path ("the two handles name the same node")."""
        return not self.packed

    @property
    def is_exact_length(self) -> bool:
        """True if every segment has an exact count."""
        return all(value & _EXACT for value in self.packed)

    def as_definite(self) -> "Path":
        return self if self.definite else self._variant()

    def as_possible(self) -> "Path":
        return self._variant() if self.definite else self

    def with_definite(self, definite: bool) -> "Path":
        return self if bool(definite) == self.definite else self._variant()

    def _variant(self) -> "Path":
        """The same segments with flipped definiteness (cached both ways)."""
        alt = self._alt
        if alt is None:
            alt = Path._of_packed(self.packed, not self.definite, self.segments)
            object.__setattr__(self, "_alt", alt)
            object.__setattr__(alt, "_alt", self)
        return alt

    def __str__(self) -> str:  # pragma: no cover - trivial
        return format_path(self)


#: The definite ``S`` path.
SAME = Path((), True)
#: The possible ``S?`` path.
MAYBE_SAME = Path((), False)


def format_path(path: Path) -> str:
    """Render a path in the paper's notation, e.g. ``L1L+``, ``S?``, ``D+?``."""
    if path.is_same:
        text = "S"
    else:
        text = "".join(format_segment(segment) for segment in path.segments)
    return text if path.definite else text + "?"


_SEGMENT_RE = re.compile(r"([LRDS])(\d*)(\+?)")


def parse_path(text: str) -> Path:
    """Parse the notation produced by :func:`format_path` (used in tests).

    Examples: ``"S"``, ``"S?"``, ``"L1"``, ``"R+"``, ``"L1L+L1"``, ``"R1D+?"``,
    ``"D2+"``.  Whitespace and ``.`` separators are ignored.
    """
    cleaned = text.strip().replace(" ", "").replace(".", "")
    definite = True
    if cleaned.endswith("?"):
        definite = False
        cleaned = cleaned[:-1]
    if cleaned == "S":
        return Path((), definite)
    segments: List[PathSegment] = []
    position = 0
    while position < len(cleaned):
        match = _SEGMENT_RE.match(cleaned, position)
        if not match or match.group(1) == "S":
            raise ValueError(f"cannot parse path expression {text!r} at {cleaned[position:]!r}")
        letter, digits, plus = match.groups()
        direction = Direction(letter)
        count = int(digits) if digits else 1
        exact = plus == ""
        if digits == "" and plus == "":
            # A bare letter such as "L" means one exact edge (same as "L1").
            count, exact = 1, True
        segments.append(PathSegment(direction, count, exact))
        position = match.end()
    return make_path(segments, definite)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def make_path(
    segments: Iterable[PathSegment],
    definite: bool = True,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> Path:
    """Build a canonical path from raw segments, applying the domain limits."""
    packed = _normalize_packed([segment.packed for segment in segments], limits)
    return Path._of_packed(tuple(packed), bool(definite))


def _normalize_packed(packed: Sequence[int], limits: AnalysisLimits) -> List[int]:
    """Canonicalize a packed segment sequence under the domain limits.

    The integer mirror of the three normalization steps the segment-object
    implementation used: merge adjacent same-direction segments, clamp
    counts (firing the widening telemetry), bound the segment count by
    collapsing the tail into one generalized segment.
    """
    global _PACKED_OPS
    _PACKED_OPS += len(packed)

    # 1. Merge adjacent segments with the same direction: counts add, the
    #    merged segment is exact only when both halves are.
    merged: List[int] = []
    for segment in packed:
        if merged:
            previous = merged[-1]
            if not ((previous ^ segment) & _DIR_MASK):
                merged[-1] = (
                    (segment & _DIR_MASK)
                    | (previous & segment & _EXACT)
                    | (((previous >> _COUNT_SHIFT) + (segment >> _COUNT_SHIFT)) << _COUNT_SHIFT)
                )
                continue
        merged.append(segment)

    # 2. Clamp counts.
    max_exact = limits.max_exact_count
    max_open = limits.max_open_count
    clamped: List[int] = []
    for segment in merged:
        count = segment >> _COUNT_SHIFT
        exact = segment & _EXACT
        if exact and count > max_exact:
            count, exact = max_exact, 0
            telemetry.note_exact_widening()
        if not exact and count > max_open:
            count = max_open
        clamped.append((segment & _DIR_MASK) | exact | (count << _COUNT_SHIFT))

    # 3. Bound the number of segments by collapsing the tail into one
    #    open-or-exact DOWN segment (a strictly more general description).
    if len(clamped) > limits.max_segments:
        telemetry.note_segment_collapse()
        keep = limits.max_segments - 1
        head, tail = clamped[:keep], clamped[keep:]
        total = sum(segment >> _COUNT_SHIFT for segment in tail)
        all_exact = all(segment & _EXACT for segment in tail)
        direction = tail[0] & _DIR_MASK
        for segment in tail[1:]:
            if (segment & _DIR_MASK) != direction:
                direction = _DOWN_CODE
        collapsed = (
            direction
            | (_EXACT if (all_exact and total <= max_exact) else 0)
            | (min(total, max_open) << _COUNT_SHIFT)
        )
        head.append(collapsed)
        # Re-merge in case the collapsed segment matches its neighbour.
        return _normalize_packed(head, limits)
    return clamped


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


def concat(first: Path, second: Path, limits: AnalysisLimits = DEFAULT_LIMITS) -> Path:
    """Compose a path x→b with a path b→y into a path x→y."""
    definite = first.definite and second.definite
    if not first.packed:
        return second.with_definite(definite)
    if not second.packed:
        return first.with_definite(definite)
    normalized = _normalize_packed(first.packed + second.packed, limits)
    return Path._of_packed(tuple(normalized), definite)


def _link_code(field: Field) -> int:
    code = _FIELD_CODE.get(field)
    if code is None:
        raise ValueError(f"{field} is not a link field")
    return code


#: Memo for :func:`append_link` — the load-field transfer extends the same
#: interned paths by the same edge at every re-analysis, and path/limits
#: keys hash from precomputed ints.  Each entry stores the widening tally
#: captured while the call computed (``None`` when nothing fired) so memo
#: hits replay the exact telemetry of a fresh computation.
_APPEND_CACHE: Dict[Tuple[Path, Field, AnalysisLimits], Tuple[Path, object]] = {}


def append_link(path: Path, field: Field, limits: AnalysisLimits = DEFAULT_LIMITS) -> Path:
    """Extend a path x→b by one explicit edge ``b.field`` giving x→(b.field)."""
    # Count the kernel op *before* the memo probe (like cancel_first), so a
    # hit in this memo counts the same as a computation.  The path-set op
    # memos above this one still skip normalizations uncounted, so
    # ``packed_segment_ops`` depends on process history (see
    # ``AnalysisStats.packed_segment_ops``).
    global _PACKED_OPS
    _PACKED_OPS += 1
    key = (path, field, limits)
    cached = _APPEND_CACHE.get(key)
    if cached is not None:
        result, tally = cached
        if tally is not None:
            telemetry.replay(tally)
        return result
    link = _link_code(field) | _EXACT | (1 << _COUNT_SHIFT)
    with telemetry.widening_scope(telemetry.WideningTally()) as tally:
        normalized = _normalize_packed(path.packed + (link,), limits)
        result = Path._of_packed(tuple(normalized), path.definite)
    if len(_APPEND_CACHE) >= _PREDICATE_CACHE_CAP:  # pragma: no cover - bound
        _APPEND_CACHE.clear()
    if tally.fired:
        _APPEND_CACHE[key] = (result, tally)
        telemetry.replay(tally)
    else:
        _APPEND_CACHE[key] = (result, None)
    return result


def link_path(field: Field, definite: bool = True) -> Path:
    """The one-edge path ``L1`` or ``R1``."""
    return Path((PathSegment(Direction.of_field(field), 1, True),), definite)


#: Memo for :func:`cancel_first` (same traffic shape and tally-replay
#: discipline as ``_APPEND_CACHE``).
_CANCEL_CACHE: Dict[Tuple[Path, Field, AnalysisLimits], Tuple[Tuple[Path, ...], object]] = {}


def cancel_first(
    field: Field, path: Path, limits: AnalysisLimits = DEFAULT_LIMITS
) -> List[Path]:
    """Remove one leading ``field`` edge from ``path``.

    Given ``a := b.f`` and a path ``b →p→ x``, the possible paths ``a → x``
    are exactly the remainders of ``p`` after its first edge, *when that
    first edge can be the ``f`` edge out of ``b``*.  Returns the (possibly
    empty) list of remainder paths; an empty list means ``a`` and ``x``
    cannot be related through ``p``.

    Definiteness: the remainder is definite only when the original path was
    definite *and* the first edge is certainly the ``f`` edge *and* there is
    no length uncertainty about whether the first segment is consumed.
    """
    if path.is_same:
        # b and x are the same node; the child a=b.f has no *downward* path
        # back to x (paths in the matrix are directed down the structure).
        return []
    global _PACKED_OPS
    _PACKED_OPS += 1
    key = (path, field, limits)
    cached = _CANCEL_CACHE.get(key)
    if cached is not None:
        results, tally = cached
        if tally is not None:
            telemetry.replay(tally)
        return list(results)

    first, rest = path.packed[0], path.packed[1:]
    direction = first & _DIR_MASK
    if direction != _DOWN_CODE and direction != _link_code(field):
        _CANCEL_CACHE[key] = ((), None)
        return []
    direction_certain = direction != _DOWN_CODE and direction == _link_code(field)
    base_definite = path.definite and direction_certain
    count = first >> _COUNT_SHIFT

    results: List[Path] = []
    with telemetry.widening_scope(telemetry.WideningTally()) as tally:
        if first & _EXACT:
            if count == 1:
                shortened = rest
            else:
                shortened = (direction | _EXACT | ((count - 1) << _COUNT_SHIFT),) + rest
            results.append(
                Path._of_packed(tuple(_normalize_packed(shortened, limits)), base_definite)
            )
        else:
            if count == 1:
                # "one or more" edges: after removing one, either zero remain
                # (remainder is `rest`, i.e. S if rest is empty) or one-or-more
                # remain.  Each alternative is only possible.
                results.append(
                    Path._of_packed(tuple(_normalize_packed(rest, limits)), False)
                )
                reopened = (direction | (1 << _COUNT_SHIFT),) + rest
                results.append(
                    Path._of_packed(tuple(_normalize_packed(reopened, limits)), False)
                )
            else:
                shortened = (direction | ((count - 1) << _COUNT_SHIFT),) + rest
                results.append(
                    Path._of_packed(
                        tuple(_normalize_packed(shortened, limits)), base_definite
                    )
                )
    if len(_CANCEL_CACHE) >= _PREDICATE_CACHE_CAP:  # pragma: no cover - bound
        _CANCEL_CACHE.clear()
    if tally.fired:
        _CANCEL_CACHE[key] = (tuple(results), tally)
        telemetry.replay(tally)
    else:
        _CANCEL_CACHE[key] = (tuple(results), None)
    return results


def starts_with_field(path: Path, field: Field) -> bool:
    """Could the first edge of ``path`` be the concrete ``field`` edge?

    Used by the destructive-update transfer function (``a.f := b``) to
    decide which existing relationships might be severed by overwriting the
    ``f`` field of ``a``.
    """
    if path.is_same:
        return False
    direction = path.packed[0] & _DIR_MASK
    return direction == _DOWN_CODE or direction == _link_code(field)


def generalize_pair(first: Path, second: Path, limits: AnalysisLimits = DEFAULT_LIMITS) -> Path:
    """Widen two paths into one path describing both (used to collapse sets).

    The result is possible (not definite) unless the two paths are equal,
    and uses open-ended counts / joined directions so that both inputs are
    instances of it.
    """
    if first is second:
        return first
    if first.packed == second.packed:
        return first.with_definite(first.definite and second.definite)
    if not first.packed or not second.packed:
        # S cannot be generalized with a non-empty path into a single path
        # expression; callers keep them separate (e.g. {S?, D+?}).
        raise ValueError("cannot generalize S with a non-S path into one path")

    min_length = min(first.min_length, second.min_length)
    direction = first.packed[0] & _DIR_MASK
    for segment in first.packed[1:] + second.packed:
        if (segment & _DIR_MASK) != direction:
            direction = _DOWN_CODE
            break
    count = max(1, min(min_length, limits.max_open_count))
    return Path._of_packed((direction | (count << _COUNT_SHIFT),), False)


def paths_equivalent(first: Path, second: Path) -> bool:
    """Equality ignoring the definite/possible attribute."""
    return first.packed == second.packed


def _segment_covers(general: PathSegment, specific: PathSegment) -> bool:
    """Does every edge sequence matching ``specific`` also match ``general``?"""
    return _packed_covers(general.packed, specific.packed)


def _packed_covers(general: int, specific: int) -> bool:
    direction = general & _DIR_MASK
    if direction != _DOWN_CODE and direction != (specific & _DIR_MASK):
        return False
    if general & _EXACT:
        return bool(specific & _EXACT) and (specific >> _COUNT_SHIFT) == (
            general >> _COUNT_SHIFT
        )
    # general means "at least general.count edges"; specific must guarantee
    # at least that many edges.
    return (specific >> _COUNT_SHIFT) >= (general >> _COUNT_SHIFT)


def _path_nfa(path: Path) -> Tuple[List[dict], int]:
    """Compile a path expression into a tiny NFA over the alphabet {'L', 'R'}.

    Returns ``(transitions, accepting_state)`` where ``transitions[state]``
    maps each symbol to a list of successor states.  ``D`` edges accept both
    symbols; an open-ended segment adds a self-loop on its last state.
    """
    transitions: List[dict] = [{"L": [], "R": []}]
    current = 0
    for segment in path.segments:
        symbols = (
            ["L", "R"]
            if segment.direction is Direction.DOWN
            else [segment.direction.value]
        )
        for _ in range(segment.count):
            transitions.append({"L": [], "R": []})
            new_state = len(transitions) - 1
            for symbol in symbols:
                transitions[current][symbol].append(new_state)
            current = new_state
        if not segment.exact:
            for symbol in symbols:
                transitions[current][symbol].append(current)
    return transitions, current


#: Memo tables for the two quadratic path predicates.  Keys hold strong
#: references to interned paths (which live forever anyway), so entries can
#: never go stale; the domain is finite, so the tables are bounded.
_INTERSECT_CACHE: Dict[Tuple[Path, Path], bool] = {}
_SUBSUMES_CACHE: Dict[Tuple[Path, Path], bool] = {}
_PREDICATE_CACHE_CAP = 1 << 16


def paths_may_intersect(first: Path, second: Path) -> bool:
    """Could the two path expressions (from a common origin) describe the same path?

    In a TREE a node is reached from a given origin by exactly one edge
    sequence, so two accesses anchored at the same handle can touch the same
    node only if the *languages* of their path expressions intersect.  This
    is decided exactly with a product construction over the two (tiny) NFAs.
    Definiteness is ignored (a possible path still describes a possibility).
    The result is memoized over the interned path pair.
    """
    if first.is_same or second.is_same:
        return first.is_same and second.is_same
    if first is second:
        # A path expression's language is never empty, so it intersects itself.
        return True
    key = (first, second)
    cached = _INTERSECT_CACHE.get(key)
    if cached is not None:
        return cached
    result = _paths_may_intersect(first, second)
    if len(_INTERSECT_CACHE) >= _PREDICATE_CACHE_CAP:  # pragma: no cover - bound
        _INTERSECT_CACHE.clear()
    _INTERSECT_CACHE[key] = result
    _INTERSECT_CACHE[(second, first)] = result
    return result


def _paths_may_intersect(first: Path, second: Path) -> bool:

    first_nfa, first_accept = _path_nfa(first)
    second_nfa, second_accept = _path_nfa(second)

    start = (0, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        state_a, state_b = frontier.pop()
        if state_a == first_accept and state_b == second_accept:
            return True
        for symbol in ("L", "R"):
            for next_a in first_nfa[state_a][symbol]:
                for next_b in second_nfa[state_b][symbol]:
                    pair = (next_a, next_b)
                    if pair not in seen:
                        seen.add(pair)
                        frontier.append(pair)
    # The start state pair is accepting only if both paths are S, handled above.
    return False


def subsumes(general: Path, specific: Path) -> bool:
    """Sound (sufficient) test that ``general`` describes every path ``specific`` does.

    Used to keep path sets small: a path subsumed by a more general member
    of the same set adds no new possibilities.  ``S`` is only subsumed by
    ``S``.  Two sufficient cases are recognised:

    * ``general`` is a single open-ended segment whose direction covers all
      of ``specific``'s directions and whose minimum length is not larger;
    * the two paths have the same number of segments and each of
      ``general``'s segments covers the corresponding one of ``specific``.

    Definiteness is ignored; the result is memoized over the interned pair.
    """
    key = (general, specific)
    cached = _SUBSUMES_CACHE.get(key)
    if cached is not None:
        return cached
    result = _subsumes(general, specific)
    if len(_SUBSUMES_CACHE) >= _PREDICATE_CACHE_CAP:  # pragma: no cover - bound
        _SUBSUMES_CACHE.clear()
    _SUBSUMES_CACHE[key] = result
    return result


def _subsumes(general: Path, specific: Path) -> bool:
    general_packed, specific_packed = general.packed, specific.packed
    if not specific_packed or not general_packed:
        return not specific_packed and not general_packed

    if len(general_packed) == 1 and not (general_packed[0] & _EXACT):
        segment = general_packed[0]
        direction = segment & _DIR_MASK
        if direction != _DOWN_CODE:
            for value in specific_packed:
                if (value & _DIR_MASK) != direction:
                    return False
        return specific.min_length >= (segment >> _COUNT_SHIFT)

    if len(general_packed) == len(specific_packed):
        for general_value, specific_value in zip(general_packed, specific_packed):
            if not _packed_covers(general_value, specific_value):
                return False
        return True
    return False
