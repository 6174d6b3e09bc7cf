"""EXT-INC — the incremental delta-driven solver vs full re-propagation.

The hash-consed row layer lets the pipeline engine propagate *row
deltas*: transfers and entry-matrix absorptions rewrite only the rows that
actually changed (``delta_rows_propagated``), reusing every other row by
reference, while a non-incremental engine rewrites the full matrix
dimension at each of the same program points (``full_rows_propagated``).
This bench pins the contract on the widening-heavy dag/deep scenario
families (plus the paper's recursive workloads):

* results are **bit-identical** to the retained reference engine — the
  incremental representation is a pure optimization;
* the incremental solver performs **strictly fewer** row-transfer
  applications than full re-propagation (``delta < full``) on every
  dag/deep workload;
* entry joins skipped because the projection was already absorbed
  (``full_joins_avoided``) are nonzero over the suite.
"""

from repro.analysis import analyze_program, analyze_program_reference
from repro.analysis.context import AnalysisContext
from repro.analysis.transfer import TransferCache
from repro.sil.normalize import parse_and_normalize
from repro.workloads import generate_scenarios, source
from repro.workloads.suite import WORKLOADS


def banner(title: str) -> None:
    print("\n" + "=" * 78 + f"\n{title}\n" + "=" * 78)


def _population():
    items = [(name, source(name, depth=3)) for name in ("add_and_reverse", "bitonic_sort")]
    scenarios = generate_scenarios(6, base_seed=29, families=["dag", "deep"])
    items += [(s.name, s.source) for s in scenarios]
    return items


def test_ext_incremental_strictly_beats_full_repropagation():
    banner("EXT-INC — delta rows vs full re-propagation (bit-identical results)")
    print(f"{'workload':16s} {'delta':>7s} {'full':>7s} {'ratio':>6s} {'skipped':>8s}")

    totals = {"delta": 0, "full": 0, "joins_avoided": 0}
    for name, text in _population():
        program, info = parse_and_normalize(text)
        # A private cache/context per workload so the counters are the
        # workload's own computation, not replay from earlier tests.
        context = AnalysisContext(
            program=program, info=info, transfer_cache=TransferCache()
        )
        result = analyze_program(program, info, context=context)
        reference = analyze_program_reference(program, info)

        # The incremental solver is a pure optimization: bit-identical output.
        assert result.canonical() == reference.canonical(), name

        stats = result.stats
        assert stats.full_rows_propagated > 0, name
        # Strictly fewer row-transfer applications than full re-propagation.
        assert stats.delta_rows_propagated < stats.full_rows_propagated, name

        totals["delta"] += stats.delta_rows_propagated
        totals["full"] += stats.full_rows_propagated
        totals["joins_avoided"] += stats.full_joins_avoided
        ratio = stats.delta_rows_propagated / stats.full_rows_propagated
        print(
            f"{name:16s} {stats.delta_rows_propagated:7d} "
            f"{stats.full_rows_propagated:7d} {ratio:6.2f} "
            f"{stats.full_joins_avoided:8d}"
        )

    print(
        f"{'TOTAL':16s} {totals['delta']:7d} {totals['full']:7d} "
        f"{totals['delta'] / totals['full']:6.2f} {totals['joins_avoided']:8d}"
    )
    # Projections equal to one already absorbed are skipped across the suite.
    assert totals["joins_avoided"] > 0
