"""EXT-D — cost of the analysis and ablation of the domain limits.

The paper stresses that restricting the method to regular recursive
structures keeps the analysis efficient.  This bench measures

* how whole-program analysis time scales with program size (number of
  statements) and with the number of live handles (the path-matrix
  dimension), using generated programs with known shape,
* an ablation over the :class:`AnalysisLimits` bounds showing that tighter
  widening keeps the key disjointness facts while reducing work, and that
  no higher bound changes a parallelization verdict: every oracle answer
  at 2x and 4x the default bounds equals the one at the defaults, on every
  generator family at its largest shape and on the named workloads, and
* the engine-architecture counters: worklist pops stay strictly below the
  seed's rounds x procedures product and the memoized transfer cache
  answers re-analyses.  The exact per-program counters are gated by
  ``test_work_counters.py``.
"""

import time
from dataclasses import replace

from work_counters import population

from repro.analysis import analyze_many, analyze_program, analyze_program_reference
from repro.analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from repro.parallel import PathMatrixOracle, parallelize_program
from repro.sil import ast
from repro.sil.normalize import parse_and_normalize
from repro.workloads import (
    FAMILIES,
    WORKLOADS,
    GeneratorConfig,
    generate_scenario,
    load,
    make_handle_web_program,
    make_independent_loads_program,
    source,
)

#: Multiples of the default bounds the verdict check re-runs the oracle at.
BOUND_SCALES = (2, 4)
#: Seeds per generator family in the verdict check, at the largest shape.
VERDICT_SEEDS = 3


def banner(title: str) -> None:
    print("\n" + "=" * 78 + f"\n{title}\n" + "=" * 78)


class RecordingOracle(PathMatrixOracle):
    """The path-matrix oracle, recording every answer it gives.

    An answer is keyed by procedure and by the walk positions of the pair
    and of the group start, so runs over separately parsed copies of one
    program compare answer by answer.
    """

    def prepare(self, program, info):
        super().prepare(program, info)
        self.answers = {}
        self._positions = {
            id(stmt): index
            for proc in program.all_callables
            for index, stmt in enumerate(ast.walk_stmt(proc.body))
        }

    def independent(self, first, second, group_start, procedure):
        answer = super().independent(first, second, group_start, procedure)
        positions = tuple(self._positions[id(stmt)] for stmt in (first, second, group_start))
        self.answers[(procedure,) + positions] = answer
        return answer


def scaled_limits(scale):
    """Every analysis bound of the defaults times ``scale``."""
    return replace(
        DEFAULT_LIMITS,
        max_exact_count=DEFAULT_LIMITS.max_exact_count * scale,
        max_open_count=DEFAULT_LIMITS.max_open_count * scale,
        max_segments=DEFAULT_LIMITS.max_segments * scale,
        max_paths_per_entry=DEFAULT_LIMITS.max_paths_per_entry * scale,
        max_iterations=DEFAULT_LIMITS.max_iterations * scale,
    )


def oracle_answers(program_source, limits):
    """The oracle's answers over one program, and whether its bounds widened."""
    oracle = RecordingOracle(limits=limits)
    parallelize_program(*parse_and_normalize(program_source), oracle=oracle)
    return oracle.answers, oracle.stats.widening_fired()


def verdict_programs():
    """``(label, source)``: every family at its largest shape, then the named workloads."""
    config = GeneratorConfig(procedures=4, depth=8)
    programs = [
        (f"{family}_s{seed}", generate_scenario(seed, replace(config, family=family)).source)
        for family in FAMILIES
        for seed in range(VERDICT_SEEDS)
    ]
    return programs + [(name, source(name)) for name in WORKLOADS]


def timed_analysis(program, info, limits=None):
    start = time.perf_counter()
    analysis = analyze_program(program, info, limits=limits or AnalysisLimits())
    elapsed = time.perf_counter() - start
    return analysis, elapsed


def test_ext_analysis_cost_scaling(benchmark):
    program, info = load("add_and_reverse", depth=4)
    benchmark(lambda: analyze_program(program, info))

    banner("EXT-D — analysis cost scaling")
    print("scaling with program size (independent load pairs):")
    print(f"{'pairs':>7s} {'stmts':>7s} {'seconds':>9s}")
    size_rows = []
    for pairs in (4, 8, 16, 32):
        generated, generated_info = make_independent_loads_program(pairs)
        _, elapsed = timed_analysis(generated, generated_info)
        stmts = ast.count_statements(generated)
        size_rows.append((pairs, stmts, elapsed))
        print(f"{pairs:7d} {stmts:7d} {elapsed:9.4f}")

    print("\nscaling with live-handle count (path-matrix dimension):")
    print(f"{'handles':>8s} {'seconds':>9s}")
    handle_rows = []
    for handles in (4, 8, 16):
        generated, generated_info = make_handle_web_program(handles)
        _, elapsed = timed_analysis(generated, generated_info)
        handle_rows.append((handles, elapsed))
        print(f"{handles:8d} {elapsed:9.4f}")

    # Sanity: everything analyzes in well under a second at these sizes, and
    # cost grows with size (no pathological blow-up, no constant-time fluke).
    assert all(elapsed < 5.0 for _, _, elapsed in size_rows)
    assert size_rows[-1][1] > size_rows[0][1]
    assert all(elapsed < 5.0 for _, elapsed in handle_rows)


def test_ext_analysis_limit_ablation(benchmark):
    program, info = load("add_and_reverse", depth=4)

    configurations = {
        "default (k=8, segs=4)": AnalysisLimits(),
        "tight (k=2, segs=2)": AnalysisLimits(
            max_exact_count=2, max_open_count=2, max_segments=2, max_paths_per_entry=3
        ),
        "wide (k=16, segs=6)": AnalysisLimits(
            max_exact_count=16, max_open_count=16, max_segments=6, max_paths_per_entry=16
        ),
    }

    def run_all():
        results = {}
        for label, limits in configurations.items():
            analysis, elapsed = timed_analysis(program, info, limits)
            point_b = analysis.point_before_call("add_n", "add_n", 0)
            results[label] = {
                "seconds": elapsed,
                "iterations": analysis.iterations,
                "disjoint": point_b.unrelated("l", "r"),
                "pB_h_star_h": point_b.get("h*", "h").format(),
            }
        return results

    results = benchmark(run_all)

    banner("EXT-D — ablation of the widening limits (add_and_reverse)")
    print(f"{'configuration':24s} {'seconds':>9s} {'iters':>6s} {'l⊥r?':>6s}  p[h*,h]")
    for label, row in results.items():
        print(
            f"{label:24s} {row['seconds']:9.4f} {row['iterations']:6d} "
            f"{str(row['disjoint']):>6s}  {row['pB_h_star_h']}"
        )

    # The key disjointness fact (and hence Figure 8) survives every setting.
    assert all(row["disjoint"] for row in results.values())

    # No higher bound changes a verdict: a false alarm can only go away if
    # an answer flips, so equal answers mean no higher limit removes one.
    print(f"\n{'program':20s} {'queries':>8s} {'indep':>6s} {'widened':>8s}  "
          + "  ".join(f"flips@{scale}x" for scale in BOUND_SCALES))
    totals = {"queries": 0, "independent": 0, "widened": 0}
    for label, program_source in verdict_programs():
        answers, widened = oracle_answers(program_source, DEFAULT_LIMITS)
        flips = []
        for scale in BOUND_SCALES:
            scaled, _ = oracle_answers(program_source, scaled_limits(scale))
            assert scaled.keys() == answers.keys(), (label, scale)
            flips.append(sum(scaled[key] != answers[key] for key in answers))
        print(f"{label:20s} {len(answers):8d} {sum(answers.values()):6d} "
              f"{str(widened):>8s}  " + "  ".join(f"{count:9d}" for count in flips))
        assert flips == [0] * len(BOUND_SCALES), (label, flips)
        totals["queries"] += len(answers)
        totals["independent"] += sum(answers.values())
        totals["widened"] += widened
    print(f"totals: {totals}")
    # The check means something only if the defaults widen somewhere and
    # the oracle answers both ways.
    assert totals["widened"] > 0
    assert 0 < totals["independent"] < totals["queries"]


def test_ext_analysis_worklist_and_cache_stats():
    """EXT-D' — engine-architecture counters (worklist + memoized transfers).

    Asserts the two structural speedups of the pipeline engine:

    * the worklist solver performs strictly fewer procedure analyses than
      the seed's rounds x procedures bound (measured per workload against
      the retained reference engine), and
    * a re-analysis of the same program is fully served by the memoized
      transfer cache (nonzero hit rate; in fact 100%).
    """
    banner("EXT-D' — worklist + transfer-cache statistics")
    print(
        f"{'workload':16s} {'pops':>5s} {'rounds':>7s} {'procs':>6s} "
        f"{'bound':>6s} {'rerun-hit%':>10s}"
    )

    per_workload = {}
    names = sorted(name for name in WORKLOADS)
    for name in names:
        program, info = load(name, depth=3)
        reference = analyze_program_reference(program, info)
        first = analyze_program(program, info)
        rerun = analyze_program(program, info)

        procedures = len(reference.entry_matrices)
        bound = reference.iterations * procedures
        pops = first.stats.worklist_pops
        hit_rate = rerun.stats.transfer_cache_hit_rate

        per_workload[name] = (procedures, pops, bound)
        # Fresh stats per run, so the safety net is this workload's own —
        # and it never fires at default limits.
        assert first.stats.iteration_guard_trips == 0
        print(
            f"{name:16s} {pops:5d} {reference.iterations:7d} {procedures:6d} "
            f"{bound:6d} {hit_rate:10.1%}"
        )

        # The worklist never exceeds the seed's rounds x procedures work.
        assert pops <= bound
        # Identical results, served from the cache on the second run.
        assert rerun.entry_matrices == first.entry_matrices
        assert rerun.stats.transfer_cache_hits > 0
        assert hit_rate > 0.0

    # Multi-procedure workloads must genuinely beat the old bound.
    multi = [(pops, bound) for procedures, pops, bound in per_workload.values() if procedures > 1]
    assert multi and all(pops < bound for pops, bound in multi)

    # Batch analysis over the whole suite shares one context.
    suite_results = analyze_many([load(name, depth=3) for name in names])
    suite_stats = suite_results[0].stats
    print("\naggregate AnalysisStats over the batched suite:")
    print(suite_stats.format())
    assert suite_stats.programs_analyzed == len(names)

    # Tail-latency accounting over the counter population: one suite run
    # whose per-workload latency histograms yield the p50/p90/p99 rows
    # (plus the exact bucket-merged ``_overall``).
    from repro.workloads.suite import ShardedSuiteRunner

    suite_report = ShardedSuiteRunner(population(), shards=1).run()
    assert not suite_report.failures
    tails = suite_report.tails()
    print("\nworkload latency tails (from merged histogram buckets):")
    for name, row in tails.items():
        print(
            f"  {name:24s} n={row['count']} p50={row['p50_seconds']:.6f} "
            f"p90={row['p90_seconds']:.6f} p99={row['p99_seconds']:.6f}"
        )
    assert set(tails) >= set(WORKLOADS) | {"_overall"}
