"""EXT-G — the flight recorder must not tax the un-instrumented hot path.

The observability layer's cost contract: with no tracer installed (the
default), every ``span()`` call site in the analysis hot paths reduces to
one module-global read returning a shared no-op object.  This bench holds
that contract with counts, not wall time:

* ``work_counters.py`` records, in a fresh interpreter after ``import
  repro.cli``, that no tracer is installed, and counts
  the spans a traced analysis of each program records.  The committed
  ``work_counters.json`` is held to a fresh run byte for byte
  (``test_work_counters.py``), so a span added inside a per-statement
  loop fails that compare; here the file's shape is pinned: spans come
  one per pipeline pass and one per solver visit, never per statement.
* one traced run of the named workloads shows the recorder actually
  captured the span taxonomy (so the zero-cost path and the recording
  path are both exercised by this one module).
"""

import json
from pathlib import Path

from conftest import banner

from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.workloads import WORKLOADS, source

COUNTERS = Path(__file__).resolve().parent / "work_counters.json"


def population():
    """Every named workload."""
    return [(name, source(name, depth=4)) for name in WORKLOADS]


def test_ext_idle_process_has_no_tracer_or_fault_plan():
    document = json.loads(COUNTERS.read_text())
    assert document["idle"] == {"tracing_enabled": False}
    banner("EXT-G — spans per traced analysis (work_counters.json)")
    for name, row in sorted(document["programs"].items()):
        spans = dict(row["spans"])
        visits = spans.pop("solve.visit")
        print(f"  {name:16s} {visits:4d} visits  {sum(spans.values()):2d} pass spans  "
              f"{row['counters']['statements_visited']:4d} statements")
        assert visits == row["counters"]["worklist_pops"], name
        assert all(count == 1 for count in spans.values()), (name, spans)


def test_ext_traced_run_records_the_span_taxonomy():
    from repro.workloads.suite import ShardedSuiteRunner

    tracer = install_tracer(Tracer())
    try:
        report = ShardedSuiteRunner(population(), shards=1).run()
    finally:
        uninstall_tracer()
    assert not report.failures

    names = {event["name"] for event in tracer.events()}
    expected = {"sil.parse", "analysis.typecheck", "analysis.solve",
                "solve.visit", "cache.flush", "suite.run", "suite.workload"}
    banner("EXT-G' — recorded span taxonomy (traced single-process run)")
    print(f"{len(tracer)} events, {len(names)} distinct span names:")
    for name in sorted(names):
        count = sum(1 for event in tracer.events() if event["name"] == name)
        print(f"  {name:24s} {count:6d}")
    assert expected <= names
    # The trace and the report agree on scale: at least one workload span
    # per analyzed workload.
    workload_spans = [e for e in tracer.events() if e["name"] == "suite.workload"]
    assert len(workload_spans) == len(report.results)
