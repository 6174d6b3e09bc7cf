"""Golden tests for cross-run incremental re-analysis.

The PR's acceptance criterion, pinned: a dirty-seeded re-analysis of an
edited program is **bit-identical to a cold solve** — result digest AND
widening telemetry — while re-solving strictly fewer procedures than the
program has.  Also covered: multi-generation edit chains, the no-op delta
fast path, targeted persistent-store invalidation, and the memo-epoch
scoping that lets two batches share one transfer cache safely.
"""

import pytest

from repro.analysis import reanalysis
from repro.analysis.engine import BatchAnalyzer, analyze_program_reference
from repro.analysis.limits import DEFAULT_LIMITS
from repro.analysis.reanalysis import (
    IncrementalSession,
    cold_solve,
    result_digest,
)
from repro.cache import CacheConfig
from repro.sil import ast
from repro.sil import delta as delta_module
from repro.sil.delta import diff_programs, statement_identity, statement_rebase_map
from repro.sil.normalize import parse_and_normalize
from repro.workloads import (
    EDIT_KINDS,
    apply_edit_script,
    generate_edit_script,
    generate_edited_pair,
    generate_scenario,
    make_edit_bench_scenario,
)
from repro.workloads.generators import GeneratorConfig


def deep_scenario(seed=3, depth=6):
    return generate_scenario(seed, GeneratorConfig(family="deep", procedures=2, depth=depth))


def session_for(source, **kwargs):
    session = IncrementalSession(limits=DEFAULT_LIMITS, **kwargs)
    program, info = parse_and_normalize(source)
    session.analyze(program, info)
    return session


class TestGoldenEquivalence:
    def test_neutral_edit_bit_identical_and_cheaper(self):
        scenario = deep_scenario()
        pair = generate_edited_pair(
            scenario.source, 0, edits=1, kinds=("insert",), target_procedure="main"
        )
        session = session_for(pair.old_source)
        try:
            new_program, new_info = parse_and_normalize(pair.new_source)
            report = session.reanalyze(new_program, new_info, verify=True)
        finally:
            session.close()
        # Bit-identical: digest AND widening telemetry match the cold solve.
        assert report.verified is True
        assert report.digest == report.cold_digest
        assert report.widening == report.cold_widening
        # Strictly cheaper: only the dirty seed was re-solved.
        assert len(report.procedures_reanalyzed) < report.procedures_total
        assert report.procedures_reanalyzed == ("main",)
        assert report.summaries_reused > 0
        assert report.dirty_seed == ("main",)
        assert report.dirty_seed_size == 1

    @pytest.mark.parametrize("kinds", [("delete",), ("relink",), ("swap", "add_call")])
    def test_semantic_edits_still_match_cold(self, kinds):
        scenario = generate_scenario(
            1, GeneratorConfig(family="dag", procedures=3, depth=4)
        )
        try:
            pair = generate_edited_pair(scenario.source, 7, edits=2, kinds=kinds)
        except ValueError:
            pytest.skip(f"no valid {kinds} edit on this scenario")
        session = session_for(pair.old_source)
        try:
            new_program, new_info = parse_and_normalize(pair.new_source)
            report = session.reanalyze(new_program, new_info, verify=True)
        finally:
            session.close()
        assert report.verified is True
        assert report.widening == report.cold_widening

    def test_multi_generation_chain_stays_exact(self):
        scenario = deep_scenario(seed=5)
        source = scenario.source
        session = session_for(source)
        try:
            for generation in range(3):
                pair = generate_edited_pair(
                    source, 10 + generation, edits=1, kinds=("insert",)
                )
                new_program, new_info = parse_and_normalize(pair.new_source)
                report = session.reanalyze(new_program, new_info, verify=True)
                assert report.verified is True, f"generation {generation} diverged"
                source = pair.new_source
        finally:
            session.close()


class TestDeltaDrivenBehavior:
    def test_identical_program_reanalyzes_nothing(self):
        scenario = deep_scenario()
        session = IncrementalSession(limits=DEFAULT_LIMITS)
        try:
            program, info = parse_and_normalize(scenario.source)
            base_digest = result_digest(session.analyze(program, info))
            new_program, new_info = parse_and_normalize(scenario.source)
            report = session.reanalyze(new_program, new_info)
        finally:
            session.close()
        assert report.delta.is_empty
        assert report.procedures_reanalyzed == ()
        assert report.digest == base_digest

    def test_neutral_insert_preserves_result_digest(self):
        # The "insert" edit kind is a semantic no-op (x := x), so the
        # re-analysis result digests identically to the base program's.
        scenario = deep_scenario()
        pair = generate_edited_pair(
            scenario.source, 0, edits=1, kinds=("insert",), target_procedure="main"
        )
        old_digest, old_widening = cold_solve(*parse_and_normalize(pair.old_source))
        new_digest, new_widening = cold_solve(*parse_and_normalize(pair.new_source))
        assert old_widening == new_widening

    def test_targeted_invalidation_reaches_persistent_store(self, tmp_path):
        scenario = generate_scenario(
            1, GeneratorConfig(family="list", procedures=2, depth=4)
        )
        pair = generate_edited_pair(scenario.source, 3, edits=1, kinds=("delete",))
        cache = CacheConfig(directory=str(tmp_path))
        session = IncrementalSession(limits=DEFAULT_LIMITS, cache=cache)
        try:
            program, info = parse_and_normalize(pair.old_source)
            session.analyze(program, info)
            session.flush()
            backend = session.batch.cache.backend
            invalidations_before = backend.stats()["invalidations"]
            new_program, new_info = parse_and_normalize(pair.new_source)
            report = session.reanalyze(new_program, new_info, verify=True)
            assert report.verified is True
            assert report.delta.stale_statement_labels
            # The deleted statement's rows were dropped from the store.
            assert backend.stats()["invalidations"] >= invalidations_before
        finally:
            session.close()


class TestBatchesSharingACache:
    def test_two_batches_sharing_a_cache_agree(self):
        # The second batch answers from entries the first one put, for the
        # very same program object; every entry is content-keyed, so the
        # results must not move.
        program, info = parse_and_normalize(deep_scenario().source)
        first = BatchAnalyzer(limits=DEFAULT_LIMITS)
        result_a = first.analyze(program, info)
        shared = first.cache

        second = BatchAnalyzer(limits=DEFAULT_LIMITS, transfer_cache=shared)
        result_b = second.analyze(program, info)
        assert result_digest(result_a) == result_digest(result_b)


def edit_chain(walkers, steps, seed=3):
    """Sources of an edit-bench program and ``steps`` successive one-step
    edits, cycling through every edit kind."""
    versions = [make_edit_bench_scenario(walkers, seed=seed).source]
    for step in range(steps):
        kind = EDIT_KINDS[step % len(EDIT_KINDS)]
        script = generate_edit_script(versions[-1], seed=step, edits=1, kinds=(kind,))
        versions.append(apply_edit_script(versions[-1], script))
    return versions


def statement_ids(program):
    return {
        id(stmt) for proc in program.all_callables for stmt in ast.walk_stmt(proc.body)
    }


class TestIdentityTables:
    """A session renders each version's statement identities once, when it
    takes the version, and diffs and rebases from those tables."""

    def test_continued_reanalysis_renders_only_the_new_version(self, monkeypatch):
        versions = edit_chain(8, 2)
        session = session_for(versions[0])
        try:
            first, _ = parse_and_normalize(versions[1])
            session.reanalyze(first)
            second, second_info = parse_and_normalize(versions[2])
            rendered = []

            def counting(stmt):
                rendered.append(id(stmt))
                return statement_identity(stmt)

            monkeypatch.setattr(delta_module, "statement_identity", counting)
            report = session.reanalyze(second, second_info)
        finally:
            session.close()
        new_ids = statement_ids(second)
        assert sorted(rendered) == sorted(new_ids)  # each once, new version only
        assert not set(rendered) & statement_ids(first)
        assert report.delta.changed and report.delta.unchanged

    def test_edit_chain_deltas_and_rebase_maps_match_a_fresh_render(self, monkeypatch):
        rebases = []

        def recording(old, new, names, *tables):
            mapping = statement_rebase_map(old, new, names, *tables)
            rebases.append((old, new, tuple(names), mapping))
            return mapping

        monkeypatch.setattr(reanalysis, "statement_rebase_map", recording)
        versions = edit_chain(8, 40)
        session = session_for(versions[0])
        old = session.program
        try:
            for source in versions[1:]:
                new, info = parse_and_normalize(source)
                report = session.reanalyze(new, info)
                assert report.delta == diff_programs(old, new)
                held_old, held_new, names, mapping = rebases[-1]
                assert held_old is old and held_new is new
                fresh = statement_rebase_map(old, new, names)
                assert {k: id(v) for k, v in mapping.items()} == {
                    k: id(v) for k, v in fresh.items()
                }
                old = new
            assert report.digest == cold_solve(new, info)[0]
        finally:
            session.close()
        assert len(rebases) == 40

    def test_editing_the_held_program_in_place_changes_nothing(self):
        # The walker's load follows h.left in the solved version.  Flipping
        # it to h.right in the held object makes that object render like the
        # next version, but the session still diffs against what it solved.
        base = make_edit_bench_scenario(4).source
        walk1 = base.index("procedure walk1")
        edited = base[:walk1] + base[walk1:].replace("l := h.left", "l := h.right", 1)
        session = session_for(base)
        try:
            held = session.program.callable("walk1")
            (load,) = [s for s in ast.walk_stmt(held.body) if isinstance(s, ast.LoadField)]
            load.field_name = ast.Field.RIGHT
            new, info = parse_and_normalize(edited)
            report = session.reanalyze(new, info)
        finally:
            session.close()
        assert "walk1" in report.procedures_reanalyzed
        assert report.digest == result_digest(analyze_program_reference(new, info))

    def test_inserting_into_the_held_program_in_place_changes_nothing(self):
        # The added statement is not in the table the session rendered when
        # it solved the version, and the diff reads only that table: the
        # unedited source is an empty delta, not a KeyError.
        base = make_edit_bench_scenario(4).source
        session = session_for(base)
        try:
            session.program.callable("walk1").body.stmts.insert(0, ast.SkipStmt())
            new, info = parse_and_normalize(base)
            report = session.reanalyze(new, info, verify=True)
        finally:
            session.close()
        assert report.delta.is_empty
        assert report.procedures_reanalyzed == ()
        assert report.verified is True
