"""The bounded least-recently-used map behind the in-memory cache layers.

One small mapping type, :class:`LRUCache`, backs the transfer memo of
:class:`repro.analysis.transfer.TransferCache` and the in-process
:class:`~repro.cache.memory.MemoryBackend`; the disk store evicts in the
same order in SQL (see :mod:`repro.cache.disk`).  A hit
refreshes the entry, and the victim is the entry untouched for longest:
transfer lookups cluster around the current fixed-point region, and in a
hit-ratio vs. capacity sweep no other order (least-frequently-used,
insertion order) kept more hits on any benchmark workload (see the
"Layer → measured benefit" table in ``docs/architecture.md``).

Evictions are counted on the cache (``evictions``) and surfaced by the
callers into :class:`~repro.analysis.context.AnalysisStats`, whose counters
merge exactly across shard processes — the same discipline as the widening
telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple


class LRUCache:
    """A size-bounded mapping that evicts its least recently used entry.

    ``put`` of an existing key is a no-op beyond a touch (entries are
    immutable once admitted — the caches built on this are
    content-addressed), and capacity is enforced on admission, never below
    one entry.  Stored values are never ``None``, which :meth:`get`
    reserves for a miss.
    """

    __slots__ = ("capacity", "evictions", "_entries")

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self.evictions = 0
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[object]:
        return iter(self._entries)

    def get(self, key: object) -> Optional[object]:
        """The stored value, refreshing its recency; ``None`` on a miss."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: object, value: object) -> int:
        """Admit ``key`` (touch-only if present); returns evictions performed."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return 0
        evicted = 0
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            evicted = 1
            self.evictions += 1
        entries[key] = value
        return evicted

    def remove(self, key: object) -> bool:
        """Drop an entry without counting an eviction (e.g. it proved unusable)."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def items(self) -> List[Tuple[object, object]]:
        return list(self._entries.items())
