"""Transfer functions: the effect of one basic handle statement on a path matrix.

This is the heart of Section 4 of the paper.  For every basic handle
statement an analysis function maps the path matrix ``p`` holding *before*
the statement to the matrix ``p'`` holding *after* it:

==============================  ==============================================
statement                        effect on the path matrix
==============================  ==============================================
``a := nil``, ``a := new()``     ``a`` becomes unrelated to every other handle
``a := b``                       ``a`` takes ``b``'s relationships; ``p'[a,b] = p'[b,a] = {S}``
``a := b.f``                     paths *to* ``a``: every ``x→b`` path extended by the
                                 ``f`` edge; paths *from* ``a``: every ``b→x`` path with
                                 its leading ``f`` edge cancelled (possible paths arise
                                 from direction/length uncertainty — Figure 2(c))
``a.f := b``                     structure check (cycle / sharing); existing paths that
                                 may traverse the old ``a.f`` edge are demoted to
                                 possible; new composite paths ``x→a · f · b→y`` added
``a.f := nil``                   only the demotion step
``x := a.value``, ``a.value:=e`` no effect on the matrix
==============================  ==============================================

All functions are pure: they return a fresh matrix (plus structure
diagnostics for updates) and never modify their argument.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs.trace import span
from ..sil import ast
from ..sil.delta import StatementIdentity, identity_label, statement_identity
from ..sil.printer import _format_inline as format_statement_inline
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .matrix import PathMatrix, row_delta
from .paths import append_link, cancel_first, concat, starts_with_field
from .pathset import PathSet
from .structure import StructureDiagnostic, cycle_diagnostic, sharing_diagnostic
from .telemetry import WideningTally, widening_scope

# Imported after the sibling analysis modules above: repro.cache's package
# init pulls in the codec, which reads those modules back.
from ..cache.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.backend import CacheBackend


logger = logging.getLogger("repro.analysis.transfer")

#: Consecutive backend errors tolerated before the circuit breaker trips
#: and the cache drops to memory-only mode for the rest of the run.
DEFAULT_BREAKER_THRESHOLD = 3


@dataclass
class TransferResult:
    """The matrix after a statement plus any structure diagnostics raised."""

    matrix: PathMatrix
    diagnostics: List[StructureDiagnostic] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Individual statement kinds
# ---------------------------------------------------------------------------


def apply_assign_nil(matrix: PathMatrix, target: str) -> PathMatrix:
    """``a := nil`` — ``a`` holds no node, so it is unrelated to everything."""
    result = matrix.copy()
    result.remove_handle(target)
    result.add_handle(target)
    return result


def apply_assign_new(matrix: PathMatrix, target: str) -> PathMatrix:
    """``a := new()`` — a freshly allocated node shares nothing with the rest."""
    result = matrix.copy()
    result.remove_handle(target)
    result.add_handle(target)
    return result


def apply_copy(matrix: PathMatrix, target: str, source: str) -> PathMatrix:
    """``a := b`` — ``a`` names the same node as ``b``."""
    if target == source:
        return matrix.copy()
    result = matrix.copy()
    result.add_handle(source)
    result.remove_handle(target)
    result.add_handle(target)
    for other in result.handles:
        if other in (target, source):
            continue
        to_source = result.get(other, source)
        if not to_source.is_empty:
            result.set(other, target, to_source)
        from_source = result.get(source, other)
        if not from_source.is_empty:
            result.set(target, other, from_source)
    result.set(target, source, PathSet.same())
    result.set(source, target, PathSet.same())
    return result


def apply_load_field(
    matrix: PathMatrix,
    target: str,
    source: str,
    field_name: ast.Field,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> PathMatrix:
    """``a := b.f`` — the Figure 2 transfer function.

    * For every handle ``x`` (including ``b`` itself): each path ``x→b``
      extends by one ``f`` edge into a path ``x→a``.
    * For every handle ``x``: each path ``b→x`` whose leading edge may be the
      ``f`` edge leaves a remainder path ``a→x`` (definite only when the
      leading edge certainly is the ``f`` edge and no length uncertainty is
      introduced).

    The old binding of ``a`` is discarded; ``a := a.f`` is handled correctly
    by computing the new relationships against the *old* matrix first,
    setting them aside, and only writing them once the old binding is gone
    — the old target's own relations die with the rebinding, so they are
    never computed at all.
    """
    work = matrix.copy()
    work.add_handle(source)

    # Paths into the new node (x -> a) and out of it (a -> x), computed
    # from the pre-statement relations of ``source``.
    into: List[Tuple[str, PathSet]] = []
    out_of: List[Tuple[str, PathSet, Optional[bool]]] = []
    for other in work.handles:
        if other == target:
            continue
        base = PathSet.same() if other == source else work.get(other, source)
        if not base.is_empty:
            into.append(
                (other, PathSet(append_link(path, field_name, limits) for path in base))
            )
        if other == source:
            continue
        base = work.get(source, other)
        if base.is_empty:
            continue
        remainders = base.map(lambda path: cancel_first(field_name, path, limits))
        if not remainders.is_empty:
            # Aliasing is symmetric: if cancelling the edge shows that the
            # loaded node may be the very node `other` names (an S path),
            # the S relationship is recorded in the other direction too.
            out_of.append((other, remainders, remainders.definiteness_of_same()))

    work.remove_handle(target)
    work.add_handle(target)
    for other, extended in into:
        work.set(other, target, extended)
    for other, remainders, same_definiteness in out_of:
        work.set(target, other, remainders)
        if same_definiteness is not None:
            work.add_paths(other, target, PathSet.same(definite=same_definiteness))
    return work


def apply_store_field(
    matrix: PathMatrix,
    target: str,
    field_name: ast.Field,
    source: Optional[str],
    statement_text: str = "",
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> TransferResult:
    """``a.f := b`` / ``a.f := nil`` — destructive update of a link field."""
    result = matrix.copy()
    result.add_handle(target)
    if source is not None:
        result.add_handle(source)
    diagnostics: List[StructureDiagnostic] = []

    # ---- structure verification (performed against the *pre* matrix) -----
    if source is not None:
        down = matrix.get(source, target)
        if source == target:
            diagnostics.append(
                cycle_diagnostic(
                    statement_text,
                    f"{target}.{field_name.value} := {source} makes the node its own descendant",
                    definite=True,
                )
            )
        elif not down.is_empty:
            definite = any(path.definite for path in down)
            diagnostics.append(
                cycle_diagnostic(
                    statement_text,
                    f"{source} may be an ancestor of {target} "
                    f"(p[{source},{target}] = {{{down.format()}}}); linking it below "
                    f"{target} creates a cycle",
                    definite=definite,
                )
            )
        parents = [
            other
            for other in matrix.iter_handles()
            if other != source and matrix.get(other, source).has_proper_path
        ]
        if parents:
            definite = any(
                any(path.definite for path in matrix.get(other, source) if not path.is_same)
                for other in parents
            )
            diagnostics.append(
                sharing_diagnostic(
                    statement_text,
                    f"{source} is already reachable from {{{', '.join(sorted(parents))}}}; "
                    f"the structure may become a DAG",
                    definite=definite,
                )
            )

    # ---- demote relationships that may have used the old a.f edge --------
    f_targets = [
        other
        for other in matrix.iter_handles()
        if other != target
        and any(starts_with_field(path, field_name) for path in matrix.get(target, other))
    ]
    above = [
        other
        for other in matrix.iter_handles()
        if other == target or not matrix.get(other, target).is_empty
    ]
    for upper in above:
        for lower in f_targets:
            if upper == lower:
                continue
            entry = result.get(upper, lower)
            if not entry.is_empty:
                result.set(upper, lower, entry.weakened())

    # ---- add the composite paths through the new edge --------------------
    if source is not None:
        link = ast.Field.LEFT if field_name is ast.Field.LEFT else ast.Field.RIGHT
        for upper in matrix.handles + [target]:
            into_target = PathSet.same() if upper == target else matrix.get(upper, target)
            if into_target.is_empty:
                continue
            for lower in matrix.handles + [source]:
                if upper == lower:
                    continue
                out_of_source = PathSet.same() if lower == source else matrix.get(source, lower)
                if out_of_source.is_empty:
                    continue
                new_paths = PathSet(
                    concat(append_link(up, link, limits), down, limits)
                    for up in into_target
                    for down in out_of_source
                )
                result.add_paths(upper, lower, new_paths)

    return TransferResult(matrix=result, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Statement dispatcher
# ---------------------------------------------------------------------------


def _dispatch_assign_nil(matrix, stmt, limits):
    return TransferResult(apply_assign_nil(matrix, stmt.target))


def _dispatch_assign_new(matrix, stmt, limits):
    return TransferResult(apply_assign_new(matrix, stmt.target))


def _dispatch_copy(matrix, stmt, limits):
    return TransferResult(apply_copy(matrix, stmt.target, stmt.source))


def _dispatch_load_field(matrix, stmt, limits):
    return TransferResult(
        apply_load_field(matrix, stmt.target, stmt.source, stmt.field_name, limits)
    )


def _dispatch_store_field(matrix, stmt, limits):
    return apply_store_field(
        matrix,
        stmt.target,
        stmt.field_name,
        stmt.source,
        statement_text=format_statement_inline(stmt),
        limits=limits,
    )


def _dispatch_no_effect(matrix, stmt, limits):
    return TransferResult(matrix.copy())


#: Transfer-function dispatch keyed by exact statement type (the AST node
#: classes are final dataclasses) — one dict probe instead of an
#: isinstance chain per application.
_BASIC_DISPATCH = {
    ast.AssignNil: _dispatch_assign_nil,
    ast.AssignNew: _dispatch_assign_new,
    ast.CopyHandle: _dispatch_copy,
    ast.LoadField: _dispatch_load_field,
    ast.StoreField: _dispatch_store_field,
    ast.LoadValue: _dispatch_no_effect,
    ast.StoreValue: _dispatch_no_effect,
    ast.ScalarAssign: _dispatch_no_effect,
}


def apply_basic_statement(
    matrix: PathMatrix,
    stmt: ast.BasicStmt,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> TransferResult:
    """Apply the transfer function for any basic statement.

    Value/scalar statements (``x := a.value``, ``a.value := e``,
    ``x := e``) do not change the path matrix.
    """
    handler = _BASIC_DISPATCH.get(type(stmt))
    if handler is not None:
        return handler(matrix, stmt, limits)
    # Subclasses of the node types fall back to the isinstance chain.
    for kind, fallback in _BASIC_DISPATCH.items():
        if isinstance(stmt, kind):
            return fallback(matrix, stmt, limits)
    raise TypeError(f"not a basic statement: {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Memoized transfer application
# ---------------------------------------------------------------------------


class TransferCache:
    """A size-bounded, least-recently-used memo of transfer results.

    **In-memory layer.**  Keys are ``(statement identity, limits, input
    matrix)``: the statement's :func:`~repro.sil.delta.statement_identity`
    (its node kind and exact inline rendering), the
    :class:`AnalysisLimits` the transfer runs under, and the input matrix
    itself when sealed (its exact :meth:`~repro.analysis.matrix.PathMatrix.
    fingerprint` otherwise).  A transfer function is a pure function of
    exactly these, so a hit returns what recomputation would produce — for
    any statement object with that content, in any procedure of any
    program, parsed at any time.  The layer holds ``capacity`` entries,
    4,096 unless a test asks for fewer; eviction is least-recently-used (see
    :mod:`repro.cache.lru`); evictions are counted and surfaced through
    :class:`~repro.analysis.context.AnalysisStats`.  This is the only
    in-memory analysis memo: control-flow joins and call-site effects are
    recomputed at every visit (see :mod:`repro.analysis.intraproc`).

    Each entry also stores the :class:`~repro.analysis.telemetry.
    WideningTally` captured while the transfer was computed, so a hit can
    *replay* the widening counts into the caller's stats — the counters
    then read exactly as if every application had been computed, which is
    what makes them additive across shard processes.

    **Persistent tier.**  With a ``backend`` attached (see
    :mod:`repro.cache.backend`; runs open the disk store under
    ``--cache-dir``), in-memory misses read through to the
    content-addressed store under the canonical, process-independent form
    of the same key (:func:`repro.cache.codec.transfer_key`); a persistent
    hit is decoded, sealed and promoted into the in-memory layer.  Computed
    results are buffered as encoded deltas and written back in one batch by
    :meth:`flush` — call it when a run or shard completes.

    **Degradation.**  A persistent backend may rot or fail without taking
    the analysis down: payloads that no longer decode are *quarantined*
    (discarded from the store, counted, treated as misses and recomputed),
    backend I/O errors (the :data:`repro.cache.backend.BACKEND_ERRORS`
    surface) are tolerated per-operation, and once ``breaker_threshold``
    of them accumulate the circuit breaker closes and drops the backend —
    ``degraded`` pins true and the cache runs memory-only from then on.
    Faults cost recomputation, never results.
    """

    __slots__ = (
        "backend",
        "_entries",
        "_pending",
        "_pending_labels",
        "quarantined",
        "backend_errors",
        "degraded",
        "breaker_threshold",
    )

    def __init__(
        self,
        capacity: int = 4096,
        backend: Optional["CacheBackend"] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
    ):
        self._entries = LRUCache(capacity)
        self.backend = backend
        #: Encoded (key -> payload) deltas computed since the last flush.
        self._pending: Dict[str, str] = {}
        #: Statement label of each pending key (see :func:`repro.sil.delta.
        #: statement_label`) — flushed alongside the payloads so persistent
        #: backends can invalidate by edited statement.
        self._pending_labels: Dict[str, str] = {}
        #: Corrupt payloads quarantined (discarded + treated as misses).
        self.quarantined = 0
        #: Backend I/O errors tolerated so far (get/write/discard/invalidate).
        self.backend_errors = 0
        #: ``True`` once the circuit breaker dropped the backend; the cache
        #: then runs memory-only for the rest of its life.
        self.degraded = False
        self.breaker_threshold = max(1, int(breaker_threshold))

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def evictions(self) -> int:
        """In-memory entries evicted over this cache's lifetime."""
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[Tuple[TransferResult, "WideningTally"]]:
        return self._entries.get(key)

    def put(self, key: Tuple, result: TransferResult, widening: "WideningTally") -> int:
        """Admit an entry; returns the number of in-memory evictions."""
        return self._entries.put(key, (result, widening))

    # ------------------------------------------------------------------
    # Persistent tier
    # ------------------------------------------------------------------

    def _note_backend_error(self, operation: str, error: BaseException) -> None:
        """Count a tolerated backend failure; trip the breaker past threshold.

        Tripping closes and drops the backend — every later persistent
        lookup/flush short-circuits on ``backend is None`` — so one bad
        store costs at most ``breaker_threshold`` failed calls, after which
        the run proceeds memory-only.
        """
        self.backend_errors += 1
        logger.warning(
            "persistent cache %s failed (%s: %s) [error %d/%d before breaker]",
            operation,
            type(error).__name__,
            error,
            self.backend_errors,
            self.breaker_threshold,
        )
        if self.backend_errors >= self.breaker_threshold and self.backend is not None:
            logger.warning(
                "persistent-cache circuit breaker tripped after %d backend errors; "
                "dropping to memory-only mode for the rest of this run",
                self.backend_errors,
            )
            self.degraded = True
            try:
                self.backend.close()
            except Exception:  # noqa: BLE001 - the backend is already failing
                logger.debug("backend close failed while degrading", exc_info=True)
            self.backend = None

    def load_persistent(
        self, persistent_key: str, matrix_limits: AnalysisLimits
    ) -> Optional[Tuple[TransferResult, "WideningTally"]]:
        """Read-through lookup of a canonical key; ``None`` without a backend.

        Unflushed deltas computed earlier in this run are consulted first —
        an entry evicted from the memory layer mid-run is recovered without
        touching the store.  A stored payload that fails to decode is
        discarded from the backend (reclassifying the lookup as a miss) and
        treated as a miss here, so the recomputed result re-admits the key
        at the next flush instead of the corrupt row surviving forever.
        """
        if self.backend is None:
            return None
        from ..cache.backend import BACKEND_ERRORS
        from ..cache.codec import CacheDecodeError, decode_entry

        pending_payload = self._pending.get(persistent_key)
        if pending_payload is not None:
            payload = pending_payload
        else:
            try:
                payload = self.backend.get(persistent_key)
            except BACKEND_ERRORS as error:
                self._note_backend_error("get", error)
                return None
        if payload is None:
            return None
        try:
            # Shield the decode behind a throwaway tally: reconstructing a
            # result must never advance the caller's widening telemetry —
            # only the *stored* tally is replayed, exactly once.
            with widening_scope(WideningTally()):
                return decode_entry(payload, matrix_limits)
        except CacheDecodeError:
            self.quarantined += 1
            if pending_payload is None:
                logger.warning(
                    "quarantined corrupt cache entry %s (discarded; treated as a miss)",
                    persistent_key,
                )
                try:
                    self.backend.discard(persistent_key)
                except BACKEND_ERRORS as error:
                    self._note_backend_error("discard", error)
            else:  # pragma: no cover - pending entries are self-encoded
                del self._pending[persistent_key]
            return None

    def record_persistent(
        self,
        persistent_key: str,
        result: TransferResult,
        widening: "WideningTally",
        label: str,
    ) -> None:
        """Buffer a computed transfer (and its statement label) for :meth:`flush`."""
        if self.backend is None or persistent_key in self._pending:
            return
        from ..cache.codec import encode_entry

        self._pending[persistent_key] = encode_entry(result, widening)
        self._pending_labels[persistent_key] = label

    def flush(self, stats=None) -> Tuple[int, int]:
        """Write buffered deltas (and read touches) to the backend.

        Returns ``(written, evicted)`` and, when ``stats`` is given, folds
        them into ``persistent_cache_writes`` / ``persistent_cache_evictions``.

        A backend error here is tolerated like any other: counted toward
        the breaker, and the pending deltas are *kept* for the next flush —
        unless the breaker trips, in which case they are dropped along with
        the backend (nothing will ever accept them).
        """
        with span("cache.flush", {"pending": len(self._pending)}):
            if self.backend is None:
                if self.degraded:
                    self._pending.clear()
                    self._pending_labels.clear()
                return 0, 0
            from ..cache.backend import BACKEND_ERRORS

            try:
                written, evicted = self.backend.write(
                    self._pending, labels=self._pending_labels
                )
            except BACKEND_ERRORS as error:
                self._note_backend_error("write", error)
                if self.backend is None:
                    self._pending.clear()
                    self._pending_labels.clear()
                return 0, 0
        self._pending.clear()
        self._pending_labels.clear()
        if stats is not None:
            _bump(stats, "persistent_cache_writes", written)
            _bump(stats, "persistent_cache_evictions", evicted)
        return written, evicted

    # ------------------------------------------------------------------
    # Targeted invalidation
    # ------------------------------------------------------------------

    def invalidate_statements(self, labels) -> int:
        """Drop the stored transfers of the given statement labels.

        ``labels`` is a set of :func:`repro.sil.delta.statement_label`
        strings — the statements an edit removed or rewrote.  The unflushed
        pending deltas and the persistent backend (statement labels are
        stored with each row) are swept.  The in-memory entries are kept:
        they are keyed on statement content, so they cannot go stale, and
        the same statement text elsewhere in the program — or in the next
        version — still hits them.  Returns the number of entries dropped.
        """
        doomed = set(labels)
        if not doomed:
            return 0

        stale_pending = [
            key
            for key, label in self._pending_labels.items()
            if label in doomed
        ]
        for key in stale_pending:
            self._pending.pop(key, None)
            del self._pending_labels[key]
        dropped = len(stale_pending)

        if self.backend is not None:
            from ..cache.backend import BACKEND_ERRORS

            try:
                dropped += self.backend.invalidate(doomed)
            except BACKEND_ERRORS as error:
                # Skipping the sweep is safe: the store is content-addressed,
                # so a stale row can never be looked up again.
                self._note_backend_error("invalidate", error)
        return dropped


#: Process-wide default cache shared by every analysis that does not supply
#: its own (so repeated analyses of the same program — benchmark reruns,
#: oracle re-preparation — hit across calls).  No persistent backend: the
#: cross-run tier is opt-in per batch (see ``BatchAnalyzer``).
GLOBAL_TRANSFER_CACHE = TransferCache()


def _bump(stats, name: str, amount: int = 1) -> None:
    """Add to a stats counter if the (possibly minimal) object carries it."""
    current = getattr(stats, name, None)
    if current is not None:
        setattr(stats, name, current + amount)


def apply_basic_statement_cached(
    matrix: PathMatrix,
    stmt: ast.BasicStmt,
    limits: AnalysisLimits = DEFAULT_LIMITS,
    cache: Optional[TransferCache] = None,
    stats=None,
    identity: Optional[StatementIdentity] = None,
) -> TransferResult:
    """Memoizing wrapper around :func:`apply_basic_statement`.

    ``stats`` may be an :class:`~repro.analysis.context.AnalysisStats` (or
    any object with ``transfer_cache_hits``/``transfer_cache_misses`` and
    the widening counters); pass ``None`` to skip counting.

    ``identity`` is ``stmt``'s :func:`~repro.sil.delta.statement_identity`.
    The pipeline computes it once per statement per analysis run (see
    :attr:`~repro.analysis.context.AnalysisContext.statement_identities`)
    and passes it in; when omitted it is rendered here.  It is never cached
    on the statement itself, because callers may mutate AST nodes between
    runs.

    The in-memory cache key is ``(identity, limits, input matrix)`` — pure
    content, so every statement object with this rendering, in any
    procedure or program, shares the entry, and a warm re-submission of a
    freshly parsed program is answered by one dict probe.  On a miss the
    same identity keys the persistent tier
    (:func:`repro.cache.codec.transfer_key`), so the statement is rendered
    at most once.  The matrix component is the input itself when it is
    sealed (its hash is cached) and otherwise its fingerprint, an exact
    content snapshot built from the input's interned *rows* (so hashing
    uses precomputed per-row hashes); two inputs of the same form share
    an entry exactly when they are equal.  Computed result matrices are
    *sealed*, so they can be shared through the cache safely.

    Widening accounting: the events of a computed transfer are captured in
    a :class:`~repro.analysis.telemetry.WideningTally` (shadowing any
    enclosing run-level scope) and folded into ``stats`` exactly once —
    on a miss from the fresh capture, on a hit by replaying the tally
    stored with the entry.  Either way the counters read as if the
    transfer had been computed, so they are deterministic per application
    and exactly additive across processes.

    Row accounting: every application — hit or miss — adds the number of
    rows the statement actually changed to ``delta_rows_propagated`` and
    the full result dimension to ``full_rows_propagated``.  Because rows
    are interned, the changed-row count is a pointer scan, and it is what
    a row-incremental engine must write no matter how the result was
    obtained; the ``full`` column is what a non-incremental engine
    rewrites.  The incremental bench asserts ``delta < full``.
    """
    if cache is None:
        cache = GLOBAL_TRANSFER_CACHE
    # The fingerprint embeds matrix.limits, but the transfer is computed with
    # the separate ``limits`` argument — key on it too so a caller passing
    # mismatched limits can never be served another configuration's result.
    # Sealed inputs (every matrix flowing through the pipeline) key on the
    # matrix object itself: its content hash is cached, so the warm-path
    # probe costs O(1) instead of re-hashing the fingerprint snapshot.
    if identity is None:
        identity = statement_identity(stmt)
    key = (identity, limits, matrix if matrix.is_sealed else matrix.fingerprint())
    cached = cache.get(key)
    if cached is not None:
        result, widening = cached
        if stats is not None:
            stats.transfer_cache_hits += 1
            widening.add_into(stats)
            _count_rows(stats, matrix, result.matrix)
        return result

    # In-memory miss: consult the persistent tier under the canonical key.
    persistent_key: Optional[str] = None
    if cache.backend is not None:
        from ..cache.codec import transfer_key

        persistent_key = transfer_key(stmt, limits, matrix, identity=identity)
        loaded = cache.load_persistent(persistent_key, matrix.limits)
        if loaded is not None:
            result, widening = loaded
            evicted = cache.put(key, result, widening)
            if stats is not None:
                stats.transfer_cache_hits += 1
                _bump(stats, "persistent_cache_hits")
                _bump(stats, "transfer_cache_evictions", evicted)
                # Replay the tally captured when the entry was computed —
                # possibly in another process or another run — so the
                # telemetry reads exactly as if this application computed.
                widening.add_into(stats)
                _count_rows(stats, matrix, result.matrix)
            return result

    with widening_scope(WideningTally()) as widening:
        result = apply_basic_statement(matrix, stmt, limits)
    # Entering the cache makes the result shared across program points and
    # future runs; sealing makes a caller mutation fail loudly instead of
    # silently poisoning every later hit.
    result.matrix = result.matrix.seal()
    evicted = cache.put(key, result, widening)
    if persistent_key is not None:
        cache.record_persistent(persistent_key, result, widening, identity_label(identity))
    if stats is not None:
        stats.transfer_cache_misses += 1
        _bump(stats, "transfer_cache_evictions", evicted)
        if persistent_key is not None:
            _bump(stats, "persistent_cache_misses")
        widening.add_into(stats)
        _count_rows(stats, matrix, result.matrix)
    return result


def _count_rows(stats, before: PathMatrix, after: PathMatrix) -> None:
    """Fold one application's (changed, full) row counts into ``stats``."""
    changed, full = row_delta(before, after)
    _bump(stats, "delta_rows_propagated", changed)
    _bump(stats, "full_rows_propagated", full)
