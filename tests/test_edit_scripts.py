"""Tests for seeded edit scripts and the edit-replay bench scenario.

Edit scripts are the workload side of incremental re-analysis: small,
deterministic, front-end-validated mutations of generated programs.  The
bench scenario builds the one program shape where program size and edit
blast radius are independent axes.
"""

import pytest

from repro.sil.delta import diff_programs, dirty_seed
from repro.sil.normalize import parse_and_normalize
from repro.workloads import generate_scenario
from repro.workloads.generators import (
    EDIT_KINDS,
    FAMILIES,
    GeneratorConfig,
    apply_edit_script,
    generate_edit_script,
    generate_edited_pair,
    make_edit_bench_scenario,
)


def scenario_source(family="deep", seed=3, procedures=2, depth=5):
    return generate_scenario(
        seed, GeneratorConfig(family=family, procedures=procedures, depth=depth)
    ).source


class TestDeterminism:
    def test_same_seed_same_script(self):
        source = scenario_source()
        first = generate_edit_script(source, 42, edits=3)
        second = generate_edit_script(source, 42, edits=3)
        assert first == second
        assert apply_edit_script(source, first) == apply_edit_script(source, second)

    def test_different_seeds_usually_differ(self):
        source = scenario_source()
        scripts = {generate_edit_script(source, seed, edits=3) for seed in range(6)}
        assert len(scripts) > 1

    def test_replay_matches_generated_pair(self):
        source = scenario_source(family="tree", seed=1)
        pair = generate_edited_pair(source, 9, edits=2)
        assert apply_edit_script(source, pair.script) == pair.new_source
        assert pair.new_source != pair.old_source


class TestValidation:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_yields_valid_edited_programs(self, family):
        source = scenario_source(family=family, seed=0, procedures=2, depth=4)
        pair = generate_edited_pair(source, 5, edits=3)
        assert len(pair.script) == 3
        # The edited program passes the full front end.
        parse_and_normalize(pair.new_source)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            generate_edit_script(scenario_source(), 0, kinds=("transmogrify",))

    def test_unknown_target_rejected(self):
        with pytest.raises(Exception):
            generate_edit_script(scenario_source(), 0, target_procedure="nope")

    def test_all_kinds_are_exposed(self):
        assert set(EDIT_KINDS) == {"insert", "delete", "swap", "relink", "add_call"}


class TestTargetedEdits:
    def test_insert_lands_on_the_target_procedure(self):
        source = scenario_source()
        script = generate_edit_script(
            source, 0, edits=2, kinds=("insert",), target_procedure="main"
        )
        assert all(step.procedure == "main" for step in script.steps)
        assert all(step.kind == "insert" for step in script.steps)

    def test_step_payloads_replay_without_rng(self):
        # as_dict carries everything replay needs: kind, procedure,
        # position and payload.
        source = scenario_source()
        script = generate_edit_script(source, 1, edits=2)
        for step in script.steps:
            row = step.as_dict()
            assert set(row) >= {"kind", "procedure", "position"}


class TestEditBenchScenario:
    def test_scenario_size_scales_with_procedures(self):
        small = make_edit_bench_scenario(4)
        large = make_edit_bench_scenario(16)
        small_program, _ = parse_and_normalize(small.source)
        large_program, _ = parse_and_normalize(large.source)
        assert len(list(large_program.all_callables)) > len(
            list(small_program.all_callables)
        )

    def test_edit_blast_radius_is_constant_in_program_size(self):
        # The defining property: an edit inside one walker dirties only
        # {that walker, main}, no matter how many walkers the program has.
        for procedures in (4, 12):
            scenario = make_edit_bench_scenario(procedures)
            pair = generate_edited_pair(
                scenario.source, 0, edits=1, kinds=("insert",), target_procedure="walk1"
            )
            old_program, _ = parse_and_normalize(pair.old_source)
            new_program, _ = parse_and_normalize(pair.new_source)
            delta = diff_programs(old_program, new_program)
            assert dirty_seed(delta, new_program) == frozenset({"walk1", "main"})


class TestEditReplayBench:
    def test_tiny_grid_verifies_every_cell(self):
        from repro.workloads import format_edit_replay, measure_edit_replay

        report = measure_edit_replay(sizes=(2, 4), edit_counts=(1,))
        assert sorted(report["cells"]) == ["n2_k1", "n4_k1"]
        # Every size edits the same walker, so the size axis compares like
        # with like.
        for cell in report["cells"].values():
            assert {step["procedure"] for step in cell["script"]["steps"]} == {"walk0"}
        counts = {
            key: (
                cell["cold_statements_visited"],
                cell["warm_statements_visited"],
                cell["cold_worklist_pops"],
                cell["warm_worklist_pops"],
                cell["summaries_reused"],
                cell["procedures_reanalyzed"],
                cell["procedures_total"],
            )
            for key, cell in report["cells"].items()
        }
        # Cold solves visit about twice the statements and pop about twice
        # the procedures at twice the walkers; the re-analysis of the
        # one-walker edit barely grows, and pops exactly the same.
        assert counts == {
            "n2_k1": (132, 74, 22, 11, 11, 2, 4),
            "n4_k1": (254, 76, 42, 11, 31, 2, 6),
        }
        assert all(cell["verified"] is True for cell in report["cells"].values())
        assert report["scaling"] == {
            "cold_size_ratio": 1.9242,
            "warm_size_ratio": 1.027,
            "cold_pops_size_ratio": 1.9091,
            "warm_pops_size_ratio": 1.0,
            "warm_edit_ratio": 1.0,
            "scales_with_edit_not_program": True,
        }
        rendering = format_edit_replay(report)
        assert "n4_k1" in rendering and "cost scales with edit size" in rendering
