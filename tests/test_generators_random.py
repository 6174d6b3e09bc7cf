"""Property-style coverage for the seeded random SIL scenario generator."""

import pytest

from repro.analysis import analyze_program
from repro.runtime import run_program
from repro.sil import ast
from repro.workloads import (
    FAMILIES,
    UNTRUNCATED_FAMILIES,
    GeneratorConfig,
    cross_check_scenario,
    generate_scenario,
    generate_scenarios,
)

#: The property loops cover at least this many seeds (satellite requirement).
SEED_COUNT = 56


class TestScenarioProperties:
    def test_every_seed_parses_typechecks_and_analyzes(self):
        """≥50 seeds over every family: parse + typecheck + analyze.

        Loading goes through the real parser/typechecker/normalizer (a
        front-end rejection raises here).  Whatever widening the analysis
        needed, the ``max_iterations`` safety net must never fire — the
        finite domain converges on its own.
        """
        scenarios = generate_scenarios(SEED_COUNT, base_seed=0)
        assert len(scenarios) == SEED_COUNT
        for scenario in scenarios:
            program, info = scenario.load()
            assert ast.program_is_core(program)
            result = analyze_program(program, info)
            assert "main" in result.entry_matrices
            assert result.stats.iteration_guard_trips == 0

    def test_untruncated_families_never_lose_segment_structure(self):
        """The legacy families stay inside the lossy ``max_segments`` bound.

        Per-run widening counters (which replaced the old process-global
        ``segment_truncation_count``) must show zero segment collapses at
        default sizes for every ``UNTRUNCATED_FAMILIES`` scenario;
        loop-convergence widening (count clamps, oversized-entry collapse)
        is the domain's intended fixed-point mechanism and stays allowed.
        """
        scenarios = generate_scenarios(
            SEED_COUNT, base_seed=0, families=UNTRUNCATED_FAMILIES
        )
        for scenario in scenarios:
            result = analyze_program(*scenario.load())
            assert result.stats.segment_collapses == 0, scenario.name

    def test_dag_and_deep_families_exercise_widening(self):
        """The new families are built to make the domain limits bite."""
        deep_fired = dag_fired = False
        for seed in range(6):
            deep = analyze_program(
                *generate_scenario(seed, GeneratorConfig(family="deep", depth=5)).load()
            )
            dag = analyze_program(
                *generate_scenario(seed, GeneratorConfig(family="dag", depth=4)).load()
            )
            deep_fired = deep_fired or deep.stats.segment_collapses > 0
            dag_fired = dag_fired or dag.stats.path_set_collapses > 0
        assert deep_fired, "deep scenarios never hit the max_segments collapse"
        assert dag_fired, "dag scenarios never hit the max_paths_per_entry collapse"

    def test_dag_and_deep_analyze_at_default_limits(self):
        """The widening-heavy families converge without safety-net trips.

        Cross-checks against the reference engine pass, and the
        ``max_iterations`` safety net never fires at the default limits.
        """
        for family in ("dag", "deep"):
            for seed in range(4):
                scenario = generate_scenario(
                    seed, GeneratorConfig(family=family, depth=4, procedures=2)
                )
                assert cross_check_scenario(scenario), scenario.name
                result = analyze_program(*scenario.load())
                assert result.stats.iteration_guard_trips == 0

    def test_every_family_is_generated_round_robin(self):
        scenarios = generate_scenarios(len(FAMILIES) * 2, base_seed=5)
        assert [s.family for s in scenarios] == list(FAMILIES) * 2
        assert len({s.name for s in scenarios}) == len(scenarios)

    def test_generation_is_deterministic_in_the_seed(self):
        config = GeneratorConfig(family="tree", procedures=3, aliasing=0.8)
        first = generate_scenario(42, config)
        second = generate_scenario(42, config)
        assert first == second
        assert generate_scenario(43, config).source != first.source

    def test_cross_check_against_reference_engine_small_sizes(self):
        """Generated-population analogue of the named-workload golden tests."""
        config = GeneratorConfig(depth=2, procedures=2)
        for scenario in generate_scenarios(12, base_seed=64, config=config):
            assert cross_check_scenario(scenario), scenario.name

    def test_generated_scenarios_execute(self):
        """Every family is runnable end to end (depth kept small)."""
        config = GeneratorConfig(depth=3, procedures=2, aliasing=0.5)
        for scenario in generate_scenarios(8, base_seed=11, config=config):
            program, info = scenario.load()
            result = run_program(program, info)
            assert result.work > 0

    def test_aliasing_zero_never_aliases_list_cursors(self):
        config = GeneratorConfig(family="list", procedures=3, aliasing=0.0)
        for seed in range(6):
            source = generate_scenario(seed, config).source
            assert "c0 := head.left" in source

    def test_config_clamping(self):
        clamped = GeneratorConfig(procedures=99, depth=0, aliasing=7.0).clamped()
        assert clamped.procedures == 4
        assert clamped.depth == 1
        assert clamped.aliasing == 1.0

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            generate_scenario(0, GeneratorConfig(family="graph"))
        with pytest.raises(KeyError, match="unknown scenario family"):
            generate_scenarios(2, families=["graph"])

    def test_scenarios_are_picklable(self):
        """Scenarios travel to shard workers as plain data."""
        import pickle

        scenario = generate_scenario(3, GeneratorConfig(family="web"))
        assert pickle.loads(pickle.dumps(scenario)) == scenario
