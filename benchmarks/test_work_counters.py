"""The counted-work gate: exact analysis counters, compared byte for byte.

``work_counters.py`` (beside this file) analyzes a fixed population in a
fresh interpreter and prints its work counters and span counts; the
committed ``work_counters.json`` is that output.  A change to the work the
analysis does — a lost memo hit, an extra matrix copy, a span inside a
per-statement loop — moves a number and fails the compare, on any host.
A change that moves the counters on purpose regenerates the file with the
command in the script's docstring.

The compare runs under three hash seeds, because the rows must not depend
on the iteration order of sets of strings; and the script's ``main()``
run twice in one interpreter must print the same document twice, because
no memo or intern table may change what the analysis counts.
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


def _run(args, hash_seed="0", cwd=None):
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = hash_seed
    run = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, timeout=600
    )
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def _diff(expected, actual, expected_name, actual_name):
    return "".join(
        difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            actual.decode().splitlines(keepends=True),
            expected_name,
            actual_name,
        )
    )[:8000]


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_work_counters_match_the_committed_file(hash_seed):
    fresh = _run([str(SCRIPT)], hash_seed)
    committed = COMMITTED.read_bytes()
    if fresh != committed:
        diff = _diff(committed, fresh, "work_counters.json", "fresh run")
        pytest.fail("the analysis did different work:\n" + diff)


TWICE = """
import contextlib, io, sys
import work_counters

documents = []
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        work_counters.main()
    documents.append(out.getvalue())
sys.stdout.write("\\0".join(documents))
"""


def test_work_counters_repeat_in_one_interpreter():
    first, second = _run(["-c", TWICE], cwd=str(HERE)).split(b"\0")
    if first != second:
        diff = _diff(first, second, "first main()", "second main()")
        pytest.fail("a warm process counted different work:\n" + diff)
