"""The disk-backed persistent transfer-cache store (SQLite).

One SQLite file per cache directory, holding content-addressed canonical
payloads (see :mod:`repro.cache.codec`) plus the recency metadata eviction
ranks by and a cumulative-counter table the ``repro cache stats``
subcommand reads:

* ``entries(key, payload, created, last_used, hits, stmt)`` — ``key`` is
  the SHA-256 transfer key; ``created``/``last_used`` are ticks of a
  store-wide logical clock (one tick per flush), so recency survives
  across runs without wall-clock dependence; ``stmt`` is the statement
  label targeted invalidation sweeps by.  ``hits`` is unused; it stays
  in the schema so that stores written by older versions, which counted
  per-row hits, open unchanged;
* ``meta(key, value)`` — the logical clock and lifetime ``hits`` /
  ``misses`` / ``writes`` / ``evictions`` totals.

Write discipline: reads during analysis are plain ``SELECT``s (hit/miss
and touch bookkeeping is buffered in memory); all mutation happens in one
``BEGIN IMMEDIATE`` transaction per :meth:`DiskBackend.write` call — the
end-of-run/shard flush.  Shard workers therefore share a store with at
most one short write transaction per shard, and WAL mode keeps concurrent
readers unblocked while one writes.  ``INSERT OR IGNORE`` makes concurrent
flushes of the same computed transfer idempotent: the store is
content-addressed, so equal keys always carry equal payloads and the race
winner is irrelevant.

Capacity is enforced inside the same transaction: when the entry count
exceeds the configured cap, the least recently used rows (smallest
``last_used`` tick, ties by key) are evicted.
"""

from __future__ import annotations

import logging
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from .backend import DEFAULT_STORE_CAPACITY

logger = logging.getLogger("repro.cache.disk")

#: File name inside the cache directory.
STORE_FILENAME = "transfer-cache.sqlite"

#: Bounded in-process retry budget for transient ``sqlite3.OperationalError``
#: failures ("database is locked", "disk I/O error") — total attempts, so 3
#: means the original try plus two retries before the error surfaces.
DEFAULT_IO_RETRIES = 3

#: First retry backoff; doubles per retry.  Tiny on purpose: the common
#: transient cause is a sibling shard holding the write lock for one short
#: flush transaction.
_RETRY_BACKOFF_SECONDS = 0.005

_T = TypeVar("_T")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key       TEXT PRIMARY KEY,
    payload   TEXT NOT NULL,
    created   INTEGER NOT NULL,
    last_used INTEGER NOT NULL,
    hits      INTEGER NOT NULL DEFAULT 0,
    stmt      TEXT
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

_COUNTERS = (
    "hits",
    "misses",
    "writes",
    "evictions",
    "invalidations",
    "compactions",
    "swept",
    "retries",
)


class DiskBackend:
    """A content-addressed SQLite store shared by shards and by runs."""

    kind = "disk"

    def __init__(
        self,
        directory: str,
        capacity: int = DEFAULT_STORE_CAPACITY,
        timeout: float = 60.0,
        io_retries: int = DEFAULT_IO_RETRIES,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / STORE_FILENAME
        self.capacity = max(1, int(capacity))
        # Autocommit connection: transactions are managed explicitly with
        # BEGIN IMMEDIATE, so pysqlite's implicit-transaction machinery can
        # never collide with ours.
        # check_same_thread=False + an internal lock: the long-lived
        # analysis daemon drives one backend from its worker threads *and*
        # its event loop (stats, shutdown flush), so thread affinity is the
        # backend's problem, not every caller's.  The lock serializes all
        # connection use — SQLite objects are safe to share but not to use
        # concurrently.
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            str(self.path),
            timeout=timeout,
            isolation_level=None,
            check_same_thread=False,
        )
        self._connection.executescript(_SCHEMA)
        # Stores created before statement-label tracking lack the ``stmt``
        # column; add it in place (NULL for old rows — they simply never
        # match an invalidation sweep, which is safe for a content-addressed
        # store).  The index keeps delete-by-label a range scan.
        columns = {
            row[1]
            for row in self._connection.execute("PRAGMA table_info(entries)")
        }
        if "stmt" not in columns:
            self._connection.execute("ALTER TABLE entries ADD COLUMN stmt TEXT")
        self._connection.execute(
            "CREATE INDEX IF NOT EXISTS entries_stmt ON entries (stmt)"
        )
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.commit()
        # Session-local bookkeeping, folded into the store at write() time.
        self.io_retries = max(1, int(io_retries))
        self._session_hits = 0
        self._session_misses = 0
        self._session_retries = 0
        self._touched: Dict[str, int] = {}

    def _with_retry(self, site: str, operation: Callable[[], _T]) -> _T:
        """Run ``operation`` with a bounded retry on transient SQLite errors.

        ``sqlite3.OperationalError`` covers the two recoverable operational
        faults a shared store actually sees — "database is locked" (a
        sibling shard mid-flush) and transient "disk I/O error" — so those
        get ``io_retries`` total attempts with a small doubling backoff
        before surfacing to the caller (where the transfer layer's circuit
        breaker takes over).  Retries are counted session-locally and folded
        into the lifetime ``retries`` meta counter at flush, like
        hits/misses.  ``site`` names the operation in the retry log line.
        """
        backoff = _RETRY_BACKOFF_SECONDS
        for attempt in range(self.io_retries):
            try:
                return operation()
            except sqlite3.OperationalError as error:
                if attempt + 1 >= self.io_retries:
                    raise
                self._session_retries += 1
                logger.warning(
                    "transient sqlite error on %s (%s); retry %d/%d in %.0f ms",
                    site,
                    error,
                    attempt + 1,
                    self.io_retries - 1,
                    backoff * 1000,
                )
                time.sleep(backoff)
                backoff *= 2
        raise AssertionError("unreachable: retry loop returns or raises")

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            row = self._connection.execute("SELECT COUNT(*) FROM entries").fetchone()
        return int(row[0])

    def get(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._with_retry(
                "cache.get",
                lambda: self._connection.execute(
                    "SELECT payload FROM entries WHERE key = ?", (key,)
                ).fetchone(),
            )
            if row is None:
                self._session_misses += 1
                return None
            self._session_hits += 1
            self._touched[key] = self._touched.get(key, 0) + 1
            return row[0]

    def write(
        self, pending: Mapping[str, str], labels: Optional[Mapping[str, str]] = None
    ) -> Tuple[int, int]:
        with self._lock:
            # The whole flush transaction is the retry unit: _write_locked
            # rolls back on any failure, so a retry starts clean.
            return self._with_retry(
                "cache.write", lambda: self._write_locked(pending, labels)
            )

    def _write_locked(
        self, pending: Mapping[str, str], labels: Optional[Mapping[str, str]] = None
    ) -> Tuple[int, int]:
        connection = self._connection
        connection.execute("BEGIN IMMEDIATE")
        try:
            clock = self._bump_meta_locked("clock", 1)
            written = 0
            for key, payload in pending.items():
                label = labels.get(key) if labels is not None else None
                cursor = connection.execute(
                    "INSERT OR IGNORE INTO entries (key, payload, created, last_used, stmt) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, payload, clock, clock, label),
                )
                written += cursor.rowcount
            connection.executemany(
                "UPDATE entries SET last_used = ? WHERE key = ?",
                ((clock, key) for key in self._touched),
            )
            evicted = self._enforce_capacity_locked()
            self._bump_meta_locked("hits", self._session_hits)
            self._bump_meta_locked("misses", self._session_misses)
            self._bump_meta_locked("writes", written)
            self._bump_meta_locked("evictions", evicted)
            self._bump_meta_locked("retries", self._session_retries)
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        self._session_hits = 0
        self._session_misses = 0
        self._session_retries = 0
        self._touched.clear()
        return written, evicted

    def discard(self, key: str) -> None:
        """Delete an entry whose payload proved unusable (self-healing).

        Performed immediately (single autocommit statement, not deferred to
        flush) so the recomputed replacement — which ``write`` only admits
        for keys absent from the store — actually lands.  The touch and hit
        recorded by the failed ``get`` are reclassified as a miss so the
        bad row neither inflates the store's hit totals nor gets its
        recency refreshed on the way out.
        """
        with self._lock:
            self._connection.execute("DELETE FROM entries WHERE key = ?", (key,))
            touches = self._touched.pop(key, 0)
            if touches:
                self._session_hits -= touches
                self._session_misses += touches

    def invalidate(self, labels) -> int:
        """Delete every row stored under the given statement labels.

        The targeted-invalidation contract of incremental re-analysis:
        rows keyed by statements an edit removed or rewrote can never be
        looked up again (the store is content-addressed), so they are
        reclaimed; every other row stays warm.  Rows from stores written
        before label tracking carry ``NULL`` labels and never match.
        """
        doomed = sorted(set(labels))
        if not doomed:
            return 0
        with self._lock:
            # Like write(), the whole transaction is the retry unit.
            return self._with_retry(
                "cache.invalidate", lambda: self._invalidate_locked(doomed)
            )

    def _invalidate_locked(self, doomed: List[str]) -> int:
        connection = self._connection
        connection.execute("BEGIN IMMEDIATE")
        try:
            placeholders = ",".join("?" for _ in doomed)
            cursor = connection.execute(
                f"DELETE FROM entries WHERE stmt IN ({placeholders})", doomed
            )
            dropped = cursor.rowcount
            self._bump_meta_locked("invalidations", dropped)
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        return dropped

    def compact(self, max_age: int = 8) -> Dict[str, int]:
        """Sweep stale generations and reclaim file space (``VACUUM``).

        An entry is stale when it has not been read or written for more
        than ``max_age`` flush generations of the store's logical clock —
        the populations old runs left behind and nothing warm touches
        anymore.  The sweep and its counter updates run in one
        ``BEGIN IMMEDIATE`` transaction; the ``VACUUM`` (which must run
        outside any transaction) then returns the freed pages to the
        filesystem.  Lifetime ``compactions``/``swept`` totals are
        surfaced by :meth:`stats` (the ``repro cache compact``/``stats``
        subcommands).
        """
        with self._lock:
            connection = self._connection
            size_before = os.path.getsize(self.path)
            connection.execute("BEGIN IMMEDIATE")
            try:
                clock = self._read_meta("clock")
                cutoff = clock - max(0, int(max_age))
                cursor = connection.execute(
                    "DELETE FROM entries WHERE last_used < ?", (cutoff,)
                )
                swept = cursor.rowcount
                self._bump_meta_locked("compactions", 1)
                self._bump_meta_locked("swept", swept)
                connection.commit()
            except BaseException:
                connection.rollback()
                raise
            connection.execute("VACUUM")
            try:
                size_after = os.path.getsize(self.path)
            except OSError:  # pragma: no cover - racing deletion
                size_after = 0
        return {
            "swept": swept,
            "remaining": len(self),
            "size_bytes_before": size_before,
            "size_bytes_after": size_after,
            "reclaimed_bytes": max(0, size_before - size_after),
        }

    # ------------------------------------------------------------------
    # Management surface
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, object]:
        counters = {name: self._read_meta(name) for name in _COUNTERS}
        requests = counters["hits"] + counters["misses"]
        try:
            size_bytes = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - racing deletion
            size_bytes = 0
        return {
            "backend": self.kind,
            "path": str(self.path),
            "entries": len(self),
            "capacity": self.capacity,
            "size_bytes": size_bytes,
            "hit_rate": round(counters["hits"] / requests, 4) if requests else 0.0,
            **counters,
        }

    def clear(self) -> int:
        with self._lock:
            return self._clear_locked()

    def _clear_locked(self) -> int:
        connection = self._connection
        connection.execute("BEGIN IMMEDIATE")
        try:
            dropped = int(connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
            connection.execute("DELETE FROM entries")
            connection.execute("DELETE FROM meta")
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        self._session_hits = 0
        self._session_misses = 0
        self._session_retries = 0
        self._touched.clear()
        return dropped

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------

    def _read_meta(self, key: str) -> int:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def _bump_meta_locked(self, key: str, amount: int) -> int:
        """Add ``amount`` to a meta counter inside the open transaction."""
        self._connection.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = value + excluded.value",
            (key, amount),
        )
        return self._read_meta(key)

    def _enforce_capacity_locked(self) -> int:
        count = int(self._connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
        excess = count - self.capacity
        if excess <= 0:
            return 0
        self._connection.execute(
            "DELETE FROM entries WHERE key IN "
            "(SELECT key FROM entries ORDER BY last_used ASC, key ASC LIMIT ?)",
            (excess,),
        )
        return excess
