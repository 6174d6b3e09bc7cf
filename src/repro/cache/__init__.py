"""Persistent cross-run transfer-cache subsystem.

The memoized transfer application of :mod:`repro.analysis.transfer` is the
hot path of the whole analysis; this package makes its results outlive a
process.  Layers, bottom to top:

* :mod:`~repro.cache.codec` — canonical (process- and hash-seed-
  independent) keys and payloads for transfer results, including the
  captured widening tally so replayed hits keep the telemetry exact;
* :mod:`~repro.cache.lru` — the bounded least-recently-used
  :class:`LRUCache` with its eviction counter;
* :mod:`~repro.cache.backend` — the :class:`CacheBackend` protocol, the
  picklable :class:`CacheConfig` that travels into shard workers, and the
  :func:`open_backend` factory;
* :mod:`~repro.cache.disk` — the SQLite content-addressed store that
  shards, runs and daemons share on disk, the one persistent tier;
* :mod:`~repro.cache.memory` — the in-process implementation of the same
  protocol that tests use as a stand-in for the disk store.

Wiring: :class:`repro.analysis.transfer.TransferCache` takes an optional
backend and reads through to it on in-memory misses, buffering computed
deltas until ``flush()``;  :class:`repro.analysis.engine.BatchAnalyzer`
and the sharded suite runner (:mod:`repro.workloads.suite`) accept a
:class:`CacheConfig`; the CLI exposes ``--cache-dir`` (the store) plus
the ``repro cache stats|clear|compact`` subcommand.
"""

from .backend import (
    DEFAULT_STORE_CAPACITY,
    CacheBackend,
    CacheConfig,
    open_backend,
)
from .codec import (
    CODEC_VERSION,
    CacheDecodeError,
    canonical_matrix,
    canonical_statement,
    decode_entry,
    encode_entry,
    transfer_key,
)
from .disk import STORE_FILENAME, DiskBackend
from .lru import LRUCache
from .memory import MemoryBackend

__all__ = [
    "CODEC_VERSION",
    "DEFAULT_STORE_CAPACITY",
    "STORE_FILENAME",
    "CacheBackend",
    "CacheConfig",
    "CacheDecodeError",
    "DiskBackend",
    "LRUCache",
    "MemoryBackend",
    "canonical_matrix",
    "canonical_statement",
    "decode_entry",
    "encode_entry",
    "open_backend",
    "transfer_key",
]
