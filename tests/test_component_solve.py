"""The level-ordered component solve and its cross-run component memo.

``solve_pass`` takes the strongly connected components of the call graph
level by level, and an :class:`~repro.analysis.reanalysis.IncrementalSession`
adopts every component whose members' entry matrices (and the limits) are
the ones a previous solve stored.  Pinned here:

* ``component_levels`` groups mutual recursion into one component and puts
  every component below all of its callers;
* every re-analysis equals a cold solve of its version: digest, widening
  counters, the order of ``entry_matrices`` and of the diagnostics, and
  the summaries; the digest composed from per-procedure text equals
  ``result_digest``, and ``worklist_pops + summaries_reused`` equals the
  cold solve's pops — over every edit kind, every generator family,
  adaptive limits, edit-serve's seed-1 and seed-7 streams and a level that
  adopts one component while it solves its sibling;
* a one-statement insert into ``walk0`` pops the same procedures at 4, 16,
  64 and 256 walkers;
* on call graphs with a power-law out-degree sequence, an edit to a
  low-degree procedure pops the same number of procedures however large
  the hub's degree grows.
"""

import pytest

from perfbench import corpus
from repro.analysis.engine import BatchAnalyzer
from repro.analysis.limits import DEFAULT_LIMITS, AdaptiveLimits
from repro.analysis.pipeline import component_levels
from repro.analysis.reanalysis import IncrementalSession, result_digest
from repro.analysis.summaries import compute_summaries
from repro.sil.builder import HANDLE, ProgramBuilder, field, name, new, not_nil
from repro.sil.normalize import parse_and_normalize
from repro.sil.printer import format_program
from repro.workloads import (
    EDIT_KINDS,
    FAMILIES,
    GeneratorConfig,
    apply_edit_script,
    generate_edit_script,
    generate_edited_pair,
    generate_scenario,
    make_edit_bench_scenario,
)


def cold(source, limits=DEFAULT_LIMITS):
    batch = BatchAnalyzer(limits=limits)
    result = batch.analyze(*parse_and_normalize(source))
    return result, batch.stats


def diagnostics(result):
    return [
        (proc, diag.kind, diag.certainty, diag.statement, diag.detail)
        for proc, diag in result.recorder.diagnostics
    ]


def assert_matches_cold(report, source, limits=DEFAULT_LIMITS):
    result, stats = cold(source, limits)
    assert report.digest == result_digest(report.result) == result_digest(result)
    assert report.widening == stats.widening_counters()
    assert report.stats_delta["worklist_pops"] + report.summaries_reused == stats.worklist_pops
    assert list(report.result.entry_matrices) == list(result.entry_matrices)
    assert diagnostics(report.result) == diagnostics(result)
    incremental = report.result
    assert incremental.summaries == compute_summaries(incremental.program, incremental.info)


def replay(versions, limits=DEFAULT_LIMITS):
    """Send ``versions[1:]`` through one held session; check every report."""
    session = IncrementalSession(limits=limits)
    session.analyze(*parse_and_normalize(versions[0]))
    reports = []
    for source in versions[1:]:
        report = session.reanalyze(*parse_and_normalize(source))
        assert_matches_cold(report, source, limits)
        reports.append(report)
    return reports


def edit_chain(source, steps, seed=0):
    """``source`` and ``steps`` one-step edits, cycling through every kind."""
    versions = [source]
    for step in range(steps):
        kind = EDIT_KINDS[step % len(EDIT_KINDS)]
        script = generate_edit_script(versions[-1], seed=seed + step, kinds=(kind,))
        versions.append(apply_edit_script(versions[-1], script))
    return versions


class TestComponentLevels:
    def test_a_callee_sits_below_its_deepest_caller(self):
        graph = {"main": {"a", "b"}, "a": {"b"}, "b": set(), "lost": {"a"}}
        component_of, level_of = component_levels(graph, "main")
        assert level_of == {"main": 0, "a": 1, "b": 2}
        assert component_of["a"] == ("a",)

    def test_mutual_recursion_is_one_component(self):
        graph = {"main": {"odd", "leaf"}, "odd": {"even"}, "even": {"odd", "leaf"}, "leaf": set()}
        component_of, level_of = component_levels(graph, "main")
        assert component_of["odd"] is component_of["even"] == ("even", "odd")
        assert level_of == {"main": 0, "odd": 1, "even": 1, "leaf": 2}

    def test_a_long_chain_needs_no_recursion(self):
        names = [f"p{index}" for index in range(5000)]
        graph = {caller: {callee} for caller, callee in zip(names, names[1:])}
        graph[names[-1]] = set()
        _, level_of = component_levels(graph, names[0])
        assert level_of[names[-1]] == len(names) - 1


class TestReanalysisEqualsCold:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_edit_kind_on_every_family(self, family):
        scenario = generate_scenario(4, GeneratorConfig(family=family, procedures=3, depth=4))
        reports = replay(edit_chain(scenario.source, 2 * len(EDIT_KINDS)))
        if reports[0].procedures_total > 1:
            assert any(report.summaries_reused for report in reports)

    def test_adaptive_limits(self):
        scenario = generate_scenario(2, GeneratorConfig(family="deep", procedures=2, depth=5))
        replay(edit_chain(scenario.source, len(EDIT_KINDS)), limits=AdaptiveLimits())

    @pytest.mark.parametrize("seed", [1, 7])
    def test_edit_serve_streams(self, seed, monkeypatch):
        # The first 25 versions of the stream edit-serve replays.
        monkeypatch.setattr(corpus, "EDIT_VERSIONS", 25)
        reports = replay(corpus.edit_stream(seed))
        pops = sum(report.stats_delta["worklist_pops"] for report in reports)
        reused = sum(report.summaries_reused for report in reports)
        assert pops < reused

    def test_a_level_that_adopts_one_component_and_solves_its_sibling(self):
        # {evenA, oddA} and {evenB, oddB} share level 1; evenA reaches tailY
        # and oddA before evenB reaches tailX and oddB, and both pairs call
        # tail.  Re-solving the A pair while adopting the B pair must still
        # discover procedures and merge projections in the order a cold
        # solve does, which the entry-matrix order makes visible.
        versions = [
            LEVELS,
            LEVELS.replace("l := h.left; tailY(l)", "l := h.left; l := h.left; tailY(l)"),
            LEVELS.replace("r := h.right;", "r := h.right; l := h.left;"),
            LEVELS.replace("v := h.value;", "h.value := 2;"),
            LEVELS,
        ]
        reports = replay(versions)
        assert [report.procedures_reanalyzed for report in reports] == [
            ("evenA", "main", "oddA"),
            ("evenA", "evenB", "main", "oddA", "oddB"),
            ("evenA", "evenB", "main", "oddA", "oddB", "tail"),
            ("evenA", "evenB", "main", "oddA", "oddB", "tail"),
        ]
        assert list(reports[0].result.entry_matrices) == [
            "main", "makelist", "evenA", "evenB", "oddA", "oddB", "tailY", "tailX", "tail",
        ]
        assert all(report.summaries_reused for report in reports)


class TestPopsFollowTheEdit:
    def test_walk0_insert_pops_the_same_procedures_at_every_size(self):
        pops = {}
        for walkers in (4, 16, 64, 256):
            base = make_edit_bench_scenario(walkers).source
            pair = generate_edited_pair(
                base, 0, edits=1, kinds=("insert",), target_procedure="walk0"
            )
            session = IncrementalSession()
            session.analyze(*parse_and_normalize(base))
            report = session.reanalyze(*parse_and_normalize(pair.new_source))
            # A cold solve pops main and makelist once and each walker ten times.
            assert report.stats_delta["worklist_pops"] + report.summaries_reused == (
                10 * walkers + 2
            )
            assert report.procedures_reanalyzed == ("main", "walk0")
            pops[walkers] = report.stats_delta["worklist_pops"]
        assert pops == {4: 11, 16: 11, 64: 11, 256: 11}

    @pytest.mark.parametrize("leaf", ["hub_child", "grandchild"])
    def test_scale_free_call_graphs(self, leaf):
        pops = {}
        for generations in (2, 3, 4):
            hub_degree, base, edited = scale_free_sources(generations, leaf)
            session = IncrementalSession()
            session.analyze(*parse_and_normalize(base))
            report = session.reanalyze(*parse_and_normalize(edited), verify=True)
            assert report.verified is True
            _, stats = cold(edited)
            assert report.stats_delta["worklist_pops"] + report.summaries_reused == (
                stats.worklist_pops
            )
            pops[hub_degree] = report.stats_delta["worklist_pops"]
        assert sorted(pops) == [3, 7, 15]
        assert len(set(pops.values())) == 1, pops


def scale_free_sources(generations, leaf):
    """``(hub degree, base source, edited source)`` of a scale-free call tree.

    The deterministic scale-free tree: in each generation every procedure
    gains as many new callees as it has call edges (its caller included,
    and ``main`` counts one), so a procedure's out-degree doubles plus one
    per generation and out-degrees follow a power law.  Every procedure is
    a recursive list walker that passes ``h.left`` to each of its callees.
    The edit inserts one statement into a procedure of out-degree 0:
    ``main``'s newest callee, or the newest callee of ``main``'s first.
    """
    callees = {"main": []}
    degree = {"main": 1}
    for _ in range(generations):
        for proc in list(callees):
            for _ in range(degree[proc]):
                child = f"p{len(callees)}"
                callees[proc].append(child)
                callees[child] = []
                degree[child] = 1
            degree[proc] *= 2
    target = callees["main"][-1] if leaf == "hub_child" else callees[callees["main"][0]][-1]
    assert not callees[target]

    def build(edited):
        builder = ProgramBuilder(f"scalefree_g{generations}")
        main = builder.procedure("main", locals=[("head", HANDLE)])
        main.assign("head", new())
        main.assign(("head", "left"), new())
        for callee in callees["main"]:
            main.call(callee, name("head"))
        for proc, calls in callees.items():
            if proc == "main":
                continue
            walker = builder.procedure(proc, params=[("h", HANDLE)], locals=[("l", HANDLE)])
            branch = walker.if_(not_nil("h"))
            branch.then.assign("l", field("h", "left"))
            if edited and proc == target:
                branch.then.assign("l", field("h", "left"))
            for callee in calls:
                branch.then.call(callee, name("l"))
            branch.then.call(proc, name("l"))
        return format_program(builder.build())

    return len(callees["main"]), build(False), build(True)


LEVELS = """
program levels

procedure main()
  head: handle
begin
  head := makelist(4);
  evenA(head);
  evenB(head)
end

procedure evenA(h: handle)
  l: handle
begin
  if h <> nil then
    begin
      l := h.left; tailY(l);
      oddA(l)
    end
end

procedure oddA(h: handle)
  l: handle
begin
  if h <> nil then
    begin
      l := h.left;
      tail(l);
      evenA(l)
    end
end

procedure evenB(h: handle)
  l, r: handle
begin
  if h <> nil then
    begin
      l := h.left;
      r := h.right;
      tailX(r);
      oddB(l)
    end
end

procedure oddB(h: handle)
  l: handle
begin
  if h <> nil then
    begin
      l := h.left;
      tail(h);
      evenB(l)
    end
end

procedure tail(h: handle)
  l: handle; v: int
begin
  if h <> nil then
    begin
      v := h.value;
      l := h.left;
      tail(l)
    end
end

procedure tailX(h: handle)
  v: int
begin
  if h <> nil then
    v := h.value
end

procedure tailY(h: handle)
begin
  if h <> nil then
    h.value := 1
end

function makelist(n: int): handle
  t, rest: handle
begin
  t := nil;
  if n > 0 then
    begin
      t := new();
      t.value := n;
      rest := makelist(n - 1);
      t.left := rest
    end
end
return (t)
"""
