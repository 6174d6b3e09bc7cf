"""The counted-work gate: exact analysis counters, compared byte for byte.

``work_counters.py`` (beside this file) analyzes a fixed population in a
fresh interpreter and prints its work counters and span counts; the
committed ``work_counters.json`` is that output.  A change to the work the
analysis does — a lost memo hit, an eager intern, a span inside a
per-statement loop — moves a number and fails the compare, on any host.
A change that moves the counters on purpose regenerates the file with the
command in the script's docstring.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "work_counters.py"
COMMITTED = HERE / "work_counters.json"


def test_work_counters_match_the_committed_file():
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, timeout=600
    )
    assert run.returncode == 0, run.stderr.decode()
    committed = COMMITTED.read_bytes()
    if run.stdout != committed:
        diff = difflib.unified_diff(
            committed.decode().splitlines(keepends=True),
            run.stdout.decode().splitlines(keepends=True),
            "work_counters.json",
            "fresh run",
        )
        pytest.fail("the analysis did different work:\n" + "".join(diff)[:8000])
