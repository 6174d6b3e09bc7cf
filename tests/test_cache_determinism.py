"""Satellite: cache keys and payloads are byte-identical across processes.

The persistent store is only sound if the canonical keys and encodings are
process-independent — in particular independent of ``PYTHONHASHSEED``,
which reorders every ``set`` and ``dict``-hash-dependent iteration in the
interpreter.  These tests launch real subprocesses with *different* hash
seeds, populate a fresh disk store in each, and require the stores to be
byte-identical row for row — plus identical analysis stats, covering the
fresh-process widening-replay path end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Populates a store and prints a digest of its full contents plus the
#: run's counters.  Runs in a subprocess under a controlled hash seed.
_WORKER = """
import hashlib, json, sqlite3, sys
sys.path.insert(0, {src!r})
sys.setrecursionlimit(100_000)

from repro.analysis.engine import BatchAnalyzer
from repro.cache import CacheConfig, STORE_FILENAME
from repro.sil.normalize import parse_and_normalize
from repro.workloads import generate_scenarios
from repro.workloads.suite import source

directory = sys.argv[1]
batch = BatchAnalyzer(cache=CacheConfig(directory=directory))
sources = [source(name, depth=3) for name in ("add_and_reverse", "bst_build")]
sources += [s.source for s in generate_scenarios(2, base_seed=11, families=["deep"])]
for text in sources:
    program, info = parse_and_normalize(text)
    batch.analyze(program, info)
batch.close()

rows = sqlite3.connect(directory + "/" + STORE_FILENAME).execute(
    "SELECT key, payload FROM entries ORDER BY key").fetchall()
digest = hashlib.sha256(
    json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
print(json.dumps({{
    "rows": len(rows),
    "digest": digest,
    "widening": batch.stats.widening_counters(),
    "writes": batch.stats.persistent_cache_writes,
}}, sort_keys=True))
"""


def _run_worker(directory: Path, hash_seed: str) -> dict:
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER.format(src=SRC), str(directory)],
        capture_output=True,
        text=True,
        env=environment,
        check=True,
    )
    return json.loads(completed.stdout)


class TestHashSeedIndependence:
    def test_stores_are_byte_identical_across_hash_seeds(self, tmp_path):
        first = _run_worker(tmp_path / "seed0", "0")
        second = _run_worker(tmp_path / "seed12345", "12345")
        assert first["rows"] > 0
        # Same keys, same payloads, byte for byte — under different hash
        # seeds in different interpreter processes.
        assert first == second

    def test_rerun_in_same_directory_is_stable(self, tmp_path):
        directory = tmp_path / "store"
        first = _run_worker(directory, "1")
        # A warm rerun with yet another hash seed: every lookup must hit
        # (writes == 0) and the store must not change.
        second = _run_worker(directory, "999")
        assert second["writes"] == 0
        assert second["digest"] == first["digest"]
        # Fresh-process replay: the warm run reports the cold run's exact
        # widening telemetry without recomputing any transfer.
        assert second["widening"] == first["widening"]
