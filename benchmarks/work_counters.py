"""Exact work counters of the analysis, printed from a fresh interpreter.

Hendren & Nicolau's cost argument is about work: restricting the domain
to regular recursive structures bounds procedure visits and transfer
applications.  Tier-1 gates on that counted work; wall time is
``perfbench/``'s job.  This script analyzes a fixed population and prints
one JSON document:

* ``idle`` — what ``import repro.cli`` leaves installed.  With no tracer
  and no fault plan, every ``span()`` and ``fault_fire()`` call site is a
  single ``None`` check.
* ``programs`` — one row per program: the named workloads at depth 4 and
  twelve dag/deep/mixed scenarios.  Each row holds the
  ``AnalysisStats.counters()`` of a fresh ``BatchAnalyzer`` and the span
  counts by name of a second, traced analysis.  A hot-path tax such as
  eager interning moves the counters; a span added inside a
  per-statement loop moves the span counts.
* ``edit_chain`` — one row per step of an edit chain through one held
  ``IncrementalSession``, the re-analysis path the daemon serves: one
  edit of each kind, then their undos.

``benchmarks/test_work_counters.py`` runs this script and compares its
output with the committed ``work_counters.json`` byte for byte.  It must
run in a fresh interpreter: ``packed_segment_ops`` does not count the
normalizations that a path-set op memo hit skips, so it reads lower in a
process whose memos are already warm.  After a change that moves the
counters on purpose, regenerate the file from the checkout root and
commit it with the change::

    PYTHONPATH=src python benchmarks/work_counters.py > benchmarks/work_counters.json
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import repro.cli  # noqa: F401 - the import every CLI call pays
from repro.analysis.engine import BatchAnalyzer
from repro.analysis.reanalysis import IncrementalSession
from repro.faults import current_fault_plan
from repro.obs.trace import Tracer, install_tracer, tracing_enabled, uninstall_tracer
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


def program_row(text):
    program, info = parse_and_normalize(text)
    batch = BatchAnalyzer()
    batch.analyze(program, info)
    tracer = install_tracer(Tracer())
    try:
        BatchAnalyzer().analyze(program, info)
    finally:
        uninstall_tracer()
    spans = Counter(event["name"] for event in tracer.events())
    return {"counters": batch.stats.counters(), "spans": dict(spans)}


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
    session.analyze(*parse_and_normalize(versions[0]))
    rows = [{"edit": "base", "counters": session.stats.counters()}]
    for edit, text in steps:
        report = session.reanalyze(*parse_and_normalize(text))
        rows.append({"edit": edit, "counters": report.stats_delta})
    return rows


def main():
    document = {
        "idle": {
            "tracing_enabled": tracing_enabled(),
            "fault_plan_installed": current_fault_plan() is not None,
        },
        "programs": {name: program_row(text) for name, text in population()},
        "edit_chain": edit_chain(),
    }
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
