"""Tail choice, failure counting and the BENCHMARK.json contract."""

import json

import pytest

from perfbench import batch_cold, edit_serve, layers, oneshot_cli
from perfbench.common import TAIL_BEYOND, Tally, beyond, keep_going, latency_summary, min_samples
from perfbench.run import END_TO_END, ROOT, WORKLOADS


@pytest.mark.parametrize("percentile", [50, 60, 75, 80, 90, 95, 99, 99.9])
def test_min_samples_leave_ten_beyond_the_tail(percentile):
    needed = min_samples(percentile)
    assert beyond(needed, percentile) >= TAIL_BEYOND
    assert beyond(needed - 1, percentile) < TAIL_BEYOND


def test_min_samples_of_the_declared_tails():
    assert min_samples(batch_cold.TAIL_PERCENTILE) == 200
    assert min_samples(edit_serve.TAIL_PERCENTILE) == 50
    assert min_samples(oneshot_cli.TAIL_PERCENTILE) == 25


def test_latency_summary_reports_the_declared_tail_or_refuses():
    seconds = [i / 1000 for i in range(1, 41)]
    summary = latency_summary(seconds, 70)
    assert summary["tail_percentile"] == 70 and summary["tail_ms"] == pytest.approx(28.0)
    assert summary["p50_ms"] == pytest.approx(20.5)
    assert latency_summary(seconds[:34], 70)["tail_percentile"] == 70
    with pytest.raises(ValueError, match="needs 34"):
        latency_summary(seconds[:33], 70)


def test_timed_loops_run_past_their_budget_until_the_tail_has_samples():
    import time

    started = time.perf_counter() - 5.0
    assert keep_going(started, budget=10.0, samples=100, needed=50)
    assert keep_going(started, budget=2.0, samples=49, needed=50)
    assert not keep_going(started, budget=2.0, samples=50, needed=50)
    assert not keep_going(started, budget=1.0, samples=0, needed=50)  # gives up at 4x


def test_batch_check_counts_errors_and_reference_mismatches():
    expected = {"a": "1", "b": "2", "c": "3"}
    passes = [{"digests": {"a": "1", "b": "wrong"}, "failures": {"c": "RuntimeError: x"}}]
    tally = Tally()
    assert batch_cold.check(passes, expected, tally) == 1
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.reasons == {"differs from the reference engine": 1, "RuntimeError: x": 1}
    assert tally.failed_ratio == pytest.approx(2 / 3)


def test_edit_check_counts_refusals_and_reference_mismatches():
    sent = [
        (1, 0.1, {"ok": True, "digest": "d1"}),
        (2, 0.2, {"ok": True, "digest": "stale"}),
        (3, 0.3, {"ok": False, "error": {"code": "overloaded"}}),
    ]
    tally = Tally()
    good = edit_serve.check(sent, {1: "d1", 2: "d2", 3: "d3"}, tally)
    assert good == [0.1]
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.reasons == {"differs from the reference engine": 1, "overloaded": 1}


def test_cli_check_counts_exit_codes_and_census_mismatches():
    call = ["tree_add", "--census", "--family", "dag,deep", "--generated", "2", "--seed", "7"]
    rows = {"tree_add": (4, 2, 7, 12), "dag_s7": (1, 0, 1, 2), "deep_s8": (3, 1, 2, 4)}
    expected = dict(rows)
    calls = [
        {"call": call, "code": 0, "rows": dict(rows), "seconds": 0.5},
        {"call": call, "code": 0, "rows": dict(rows, deep_s8=(3, 1, 3, 4)), "seconds": 0.6},
        {"call": call, "code": 1, "rows": dict(rows), "seconds": 0.7},
    ]
    tally = Tally()
    assert oneshot_cli.check(calls, expected, tally) == [0.5]
    assert (tally.attempted, tally.failed) == (3, 2)


def test_cli_census_rows_parse_the_printed_table():
    stdout = "\n".join([
        "analyzing 2 workloads across 1 shard(s), streaming:",
        "  ok    tree_add                 procs=3   diagnostics=0",
        "",
        "parallelism census (path-matrix oracle):",
        "  tree_add                 groups=4   call_groups=2   independent=7/12",
        "  dag_s7                   groups=11  call_groups=4   independent=22/36",
    ])
    assert oneshot_cli.census_rows(stdout) == {
        "tree_add": (4, 2, 7, 12), "dag_s7": (11, 4, 22, 36)}


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
