"""Shared pieces: paths, child processes, percentiles and failure counting."""

from __future__ import annotations

import math
import os
import shutil
import statistics
from statistics import median
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: The checkout root; the benchmark reads and writes nothing outside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of one run (sockets, stores, span files), removed after.
WORK = ROOT / ".perfbench-work"
LAUNCHER = ROOT / "perfbench" / "launch.py"

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: A timed loop still short of its samples after this many times its
#: budget gives up, and the run fails.
GIVE_UP = 4


def _rank(samples: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` among ``samples`` values (exact)."""
    return max(1, math.ceil(Fraction(str(percentile)) * samples / 100))


def beyond(samples: int, percentile: float) -> int:
    """Samples above the nearest-rank ``percentile`` of ``samples`` values."""
    return samples - _rank(samples, percentile)


def min_samples(percentile: float) -> int:
    """The fewest samples that leave ``TAIL_BEYOND`` beyond ``percentile``.

    A timed loop runs past its budget until it has this many.
    """
    samples = TAIL_BEYOND + 1
    while beyond(samples, percentile) < TAIL_BEYOND:
        samples += 1
    return samples


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values`` (one of the values)."""
    return sorted(values)[_rank(len(values), percentile) - 1]


def latency_summary(seconds: Sequence[float], percentile: float) -> Dict[str, float]:
    """Median and ``percentile`` tail of op latencies, in ms.

    Raises if fewer than ``TAIL_BEYOND`` samples lie beyond the tail: the
    tail is always the workload's declared percentile.
    """
    if beyond(len(seconds), percentile) < TAIL_BEYOND:
        raise ValueError(f"{len(seconds)} latency samples leave fewer than {TAIL_BEYOND} "
                         f"beyond p{percentile:g}; the timed loop needs {min_samples(percentile)}")
    return {
        "p50_ms": statistics.median(seconds) * 1000.0,
        "tail_ms": nearest_rank(seconds, percentile) * 1000.0,
        "tail_percentile": percentile,
        "samples": len(seconds),
    }


def keep_going(started: float, budget: float, samples: int, needed: int) -> bool:
    """Whether a timed loop begun at ``started`` goes on: until ``budget``
    seconds have passed and it holds ``needed`` samples, or it gives up."""
    elapsed = time.perf_counter() - started
    return (elapsed < budget or samples < needed) and elapsed < GIVE_UP * budget


class Tally:
    """Ops attempted and failed; an op fails on an error, a refusal, or a
    result that disagrees with the reference engine."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def child_env(**extra: str) -> Dict[str, str]:
    """The environment of a child process: ``src`` importable, plus ``extra``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra)
    return env


class Child:
    """A finished child process: exit code, output, wall time, peak memory."""

    def __init__(self, code: int, stdout: str, stderr: str, seconds: float, maxrss_kb: int):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.maxrss_kb = maxrss_kb


def run_child(argv: List[str], workdir: Path, env: Optional[Dict[str, str]] = None,
              timeout: float = 120.0) -> Child:
    """Run ``argv`` to completion; its own ``ru_maxrss`` comes from ``wait4``."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        started = time.perf_counter()
        process = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                   env=env or child_env())
        timer = threading.Timer(timeout, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(process.returncode, out.read().decode(), err.read().decode(),
                     seconds, usage.ru_maxrss)


def python(*args: str) -> List[str]:
    return [sys.executable, *args]


@contextmanager
def workdir() -> Iterator[Path]:
    """A fresh scratch directory under the checkout, removed afterwards.

    Its path relative to the checkout is short enough for a unix socket.
    """
    path = WORK / uuid.uuid4().hex[:8]
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def relative(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def warm_imports() -> None:
    """Import the package once in a throwaway process, so that compiling
    bytecode on a fresh checkout is not timed as set-up."""
    subprocess.run(python("-c", "import repro.cli, repro.server, repro.workloads"),
                   cwd=ROOT, env=child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


def cli_import_ms(work: Path, repeats: int = 5) -> float:
    """``import repro.cli`` in a fresh interpreter minus a bare interpreter
    start, medians of ``repeats`` interleaved runs each, in ms."""
    bare, loaded = [], []
    for _ in range(repeats):
        bare.append(run_child(python("-c", "pass"), work).seconds)
        loaded.append(run_child(python("-c", "import repro.cli"), work).seconds)
    return (median(loaded) - median(bare)) * 1000.0
