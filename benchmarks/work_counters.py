"""Exact work counters of the analysis, printed from a fresh interpreter.

Hendren & Nicolau's cost argument is about work: restricting the domain
to regular recursive structures bounds procedure visits and transfer
applications.  Tier-1 gates on that counted work; wall time is
``perfbench/``'s job.  This script analyzes a fixed population and prints
one JSON document:

* ``idle`` — what ``import repro.cli`` leaves installed.  With no tracer,
  every ``span()`` call site is a single ``None`` check.
* ``programs`` — one row per program: the named workloads at depth 4 and
  twelve dag/deep/mixed scenarios.  Each row holds the
  ``AnalysisStats.counters()`` of a fresh ``BatchAnalyzer``, the span
  counts by name of a second, traced analysis, the program's
  ``parallelism_census`` read from the first analysis, and ``verdicts``:
  the oracle's answers in query order, ``1`` for independent and ``0``
  otherwise.  A hot-path tax such as an extra matrix copy moves the
  counters; a span added inside a per-statement loop moves the span
  counts; a flipped parallelization verdict moves its character in
  ``verdicts``, even when the census totals and the reference engine do
  not move.
* ``edit_chain`` — one row per step of an edit chain through one held
  ``IncrementalSession``, the re-analysis path the daemon serves: one
  edit of each kind, then their undos.  Each row holds the step's counter
  deltas and the census and verdicts of the session's result for that
  version.

``benchmarks/test_work_counters.py`` runs this script and compares its
output with the committed ``work_counters.json`` byte for byte.  It runs
in a fresh interpreter so that ``idle`` sees only what ``import
repro.cli`` installs; the ``programs`` and ``edit_chain`` rows read the
same in a process that has already analyzed other programs.  After a
change that moves the counters on purpose, regenerate the file from the
checkout root and commit it with the change::

    PYTHONPATH=src python benchmarks/work_counters.py > benchmarks/work_counters.json
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import repro.cli  # noqa: F401 - the import every CLI call pays
from repro.analysis.engine import BatchAnalyzer
from repro.analysis.reanalysis import IncrementalSession
from repro.obs.trace import Tracer, install_tracer, tracing_enabled, uninstall_tracer
from repro.parallel import PathMatrixOracle, parallelism_census
from repro.sil.normalize import parse_and_normalize
from repro.workloads import (
    EDIT_KINDS,
    WORKLOADS,
    GeneratorConfig,
    apply_edit_script,
    generate_edit_script,
    generate_scenarios,
    make_edit_bench_scenario,
    source,
)


def population():
    """The ``(name, source)`` programs of the ``programs`` rows, in order."""
    config = GeneratorConfig(procedures=2, depth=4, aliasing=0.3).clamped()
    scenarios = generate_scenarios(
        12, base_seed=0, config=config, families=("dag", "deep", "mixed")
    )
    items = [(name, source(name, depth=4)) for name in WORKLOADS]
    items += [(scenario.name, scenario.source) for scenario in scenarios]
    return items


class RecordingOracle(PathMatrixOracle):
    """The path-matrix oracle, keeping each answer it gives in query order."""

    def __init__(self, analysis):
        super().__init__(analysis=analysis)
        self.answers = []

    def independent(self, first, second, group_start, procedure):
        answer = super().independent(first, second, group_start, procedure)
        self.answers.append("1" if answer else "0")
        return answer


def census(result):
    """The census of an already-solved result and the verdicts behind it."""
    oracle = RecordingOracle(result)
    row = parallelism_census(result.program, result.info, oracle=oracle)
    return {"census": row, "verdicts": "".join(oracle.answers)}


def program_row(text):
    program, info = parse_and_normalize(text)
    batch = BatchAnalyzer()
    result = batch.analyze(program, info)
    counters = batch.stats.counters()
    tracer = install_tracer(Tracer())
    try:
        BatchAnalyzer().analyze(program, info)
    finally:
        uninstall_tracer()
    spans = Counter(event["name"] for event in tracer.events())
    return {"counters": counters, "spans": dict(spans), **census(result)}


def edit_chain():
    """Re-analyses through one held session, as an editor sends them.

    The chain makes one edit of each kind to an edit-bench program, then
    undoes them in reverse order, so statements an edit removed come back.
    """
    versions = [make_edit_bench_scenario(4).source]
    edits = []
    for seed, kind in enumerate(EDIT_KINDS):
        script = generate_edit_script(versions[-1], seed, kinds=(kind,))
        versions.append(apply_edit_script(versions[-1], script))
        edits.append(script.steps[0].describe())
    steps = list(zip(edits, versions[1:]))
    steps += [
        (f"undo {edit}", text)
        for edit, text in zip(reversed(edits), reversed(versions[:-1]))
    ]
    session = IncrementalSession()
    base = session.analyze(*parse_and_normalize(versions[0]))
    rows = [{"edit": "base", "counters": session.stats.counters(), **census(base)}]
    for edit, text in steps:
        report = session.reanalyze(*parse_and_normalize(text))
        rows.append(
            {"edit": edit, "counters": report.stats_delta, **census(report.result)}
        )
    return rows


def main():
    document = {
        "idle": {"tracing_enabled": tracing_enabled()},
        "programs": {name: program_row(text) for name, text in population()},
        "edit_chain": edit_chain(),
    }
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
