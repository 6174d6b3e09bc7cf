"""The in-process cache backend: the test double of the backend protocol.

Wraps the same bounded :class:`~repro.cache.lru.LRUCache` the in-memory
transfer memo uses, but stores *canonical payload strings* (see
:mod:`repro.cache.codec`) instead of live objects — so every lookup served
from it exercises the exact encode/decode path the disk store uses.  That
makes it a cheap stand-in for :class:`~repro.cache.disk.DiskBackend`
wherever a test needs a persistent tier without a file: attach one to a
:class:`~repro.analysis.transfer.TransferCache` (``backend=...``), or
share one instance between several caches to warm them from each other.
Nothing outside the tests opens it; the store a run configures is always
the disk store.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .backend import DEFAULT_STORE_CAPACITY
from .lru import LRUCache


class MemoryBackend:
    """A process-local, LRU-bounded store of canonical payloads."""

    kind = "memory"

    def __init__(self):
        self._store = LRUCache(DEFAULT_STORE_CAPACITY)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0
        #: key -> statement label, for :meth:`invalidate` (keys evicted from
        #: the store keep a dangling label here; the sweep drops both).
        self._labels: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> Optional[str]:
        payload = self._store.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload  # type: ignore[return-value]

    def write(
        self, pending: Mapping[str, str], labels: Optional[Mapping[str, str]] = None
    ) -> Tuple[int, int]:
        written = 0
        evictions_before = self._store.evictions
        for key, payload in pending.items():
            if key not in self._store:
                written += 1
            self._store.put(key, payload)
            if labels is not None:
                label = labels.get(key)
                if label is not None:
                    self._labels[key] = label
        self.writes += written
        return written, self._store.evictions - evictions_before

    def invalidate(self, labels) -> int:
        doomed = set(labels)
        if not doomed:
            return 0
        stale = [key for key, label in self._labels.items() if label in doomed]
        dropped = 0
        for key in stale:
            del self._labels[key]
            if self._store.remove(key):
                dropped += 1
        self.invalidations += dropped
        return dropped

    def discard(self, key: str) -> None:
        if self._store.remove(key):
            # The lookup that surfaced the bad payload counted as a hit
            # and refreshed the entry; reclassify it as a miss.
            self.hits -= 1
            self.misses += 1

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.kind,
            "entries": len(self._store),
            "capacity": self._store.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self._store.evictions,
            "invalidations": self.invalidations,
        }

    def clear(self) -> int:
        dropped = len(self._store)
        self._store.clear()
        self._labels.clear()
        self.hits = self.misses = self.writes = self.invalidations = 0
        self._store.evictions = 0
        return dropped

    def close(self) -> None:
        """Nothing to release."""
