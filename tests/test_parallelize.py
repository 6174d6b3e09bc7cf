"""Tests for the parallelizer: oracles, the transformation, baselines, speedup model."""

import pytest

from repro.baselines import ConservativeOracle, RegionOracle
from repro.parallel import (
    PathMatrixOracle,
    build_report,
    greedy_time,
    is_call,
    is_groupable,
    parallelism_census,
    parallelize_program,
)
from repro.runtime import run_program
from repro.sil import ast, check_program, format_procedure, format_stmt
from repro.sil.normalize import parse_and_normalize
from repro.workloads import load
from tests.conftest import load_workload, parallelized


def parallel_groups_in(procedure):
    return [s for s in ast.walk_stmt(procedure.body) if isinstance(s, ast.ParallelStmt)]


class TestOracleBasics:
    def test_is_call_and_is_groupable(self):
        call = ast.ProcCall(name="p", args=[])
        basic = ast.AssignNew(target="a")
        loop = ast.WhileStmt(cond=ast.IntLit(0), body=ast.Block())
        assert is_call(call) and not is_call(basic)
        assert is_groupable(call) and is_groupable(basic) and not is_groupable(loop)

    def test_path_matrix_oracle_requires_prepare(self):
        oracle = PathMatrixOracle()
        with pytest.raises(AssertionError):
            oracle.independent(ast.SkipStmt(), ast.SkipStmt(), ast.SkipStmt(), "main")

    def test_oracle_reuses_existing_analysis(self):
        from repro.analysis import analyze_program

        program, info = load_workload("add_and_reverse", 4)
        analysis = analyze_program(program, info)
        oracle = PathMatrixOracle(analysis=analysis)
        oracle.prepare(program, info)
        assert oracle.analysis is analysis

    def test_parallelism_census_counts_groups(self):
        program, info = load_workload("add_and_reverse", 4)
        census = parallelism_census(program, info)
        assert census["groups"] >= 1
        assert census["call_groups"] >= 1  # add_n(l)/add_n(r) fuse
        assert census["independent_answers"] <= census["queries"]


class TestFigure8Transformation:
    def test_add_n_matches_figure_8(self, add_and_reverse_parallel):
        result, _ = add_and_reverse_parallel
        text = format_procedure(result.program.callable("add_n"))
        assert "h.value := h.value + n || l := h.left || r := h.right" in text
        assert "add_n(l, n) || add_n(r, n)" in text

    def test_reverse_matches_figure_8(self, add_and_reverse_parallel):
        result, _ = add_and_reverse_parallel
        text = format_procedure(result.program.callable("reverse"))
        assert "l := h.left || r := h.right" in text
        assert "reverse(l) || reverse(r)" in text
        assert "h.left := r || h.right := l" in text

    def test_main_matches_figure_8(self, add_and_reverse_parallel):
        result, _ = add_and_reverse_parallel
        text = format_procedure(result.program.callable("main"))
        assert "lside := root.left || rside := root.right" in text
        assert "add_n(lside, 1) || add_n(rside, -1)" in text
        # reverse(root) is not grouped with the preceding calls (it touches
        # the same tree).
        assert "add_n(rside, -1) || reverse(root)" not in text
        assert "|| reverse(root)" not in text

    def test_stats_recorded(self, add_and_reverse_parallel):
        result, _ = add_and_reverse_parallel
        stats = result.stats
        assert stats.groups >= 8
        assert stats.call_groups >= 3
        assert stats.largest_group >= 3
        assert stats.queries >= stats.independent_answers
        assert "add_n" in stats.per_procedure

    def test_transformed_program_type_checks(self, add_and_reverse_parallel):
        result, info = add_and_reverse_parallel
        assert info.for_procedure("add_n").is_handle("h")

    def test_structure_statements_not_reordered(self, add_and_reverse_parallel):
        result, _ = add_and_reverse_parallel
        reverse = result.program.callable("reverse")
        body = reverse.body.stmts[0].then_branch
        kinds = [type(s).__name__ for s in body.stmts]
        assert kinds == ["ParallelStmt", "ParallelStmt", "ParallelStmt"]

    def test_requires_core_program(self):
        from repro.sil.parser import parse_program

        surface = parse_program(
            "program p procedure main() a: handle begin a := new(); a.left.right := nil end"
        )
        with pytest.raises(ValueError):
            parallelize_program(surface)


class TestSemanticPreservation:
    @pytest.mark.parametrize(
        "name,depth",
        [("add_and_reverse", 4), ("tree_add", 4), ("tree_mirror", 4), ("bitonic_sort", 4), ("tree_copy", 3)],
    )
    def test_parallel_program_computes_same_heap(self, name, depth):
        program, info = load_workload(name, depth)
        sequential = run_program(program, info)
        result, par_info = parallelized(name, depth)
        parallel = run_program(result.program, par_info)
        assert parallel.race_free, [str(r) for r in parallel.races]
        # Same reachable structures from main's handle variables.
        for variable, value in sequential.main_locals.items():
            par_value = parallel.main_locals[variable]
            if hasattr(value, "node_id") or value is None:
                seq_tree = sequential.heap.extract(value) if value is not None else None
                par_tree = parallel.heap.extract(par_value) if par_value is not None else None
                assert seq_tree == par_tree, variable
            else:
                assert value == par_value, variable

    def test_parallel_version_reduces_span(self):
        program, info = load_workload("add_and_reverse", 5)
        sequential = run_program(program, info)
        result, par_info = parallelized("add_and_reverse", 5)
        parallel = run_program(result.program, par_info)
        assert parallel.span < sequential.span
        assert parallel.work == pytest.approx(sequential.work, rel=0.01)

    def test_bitonic_sort_still_sorts(self):
        result, par_info = parallelized("bitonic_sort", 5)
        execution = run_program(result.program, par_info)
        heap, root = execution.heap, execution.main_locals["root"]
        leaves = []

        def collect(ref):
            node = heap.node(ref)
            if node.left is None:
                leaves.append(node.value)
            else:
                collect(node.left)
                collect(node.right)

        collect(root)
        assert leaves == sorted(leaves)
        assert execution.race_free


#: ``main`` of the two call-effect regressions.  ``callee(a)`` moves the
#: node ``lr`` names to ``root.left.{second}``, so ``c`` and ``lr`` end up
#: naming one node and their ``value`` updates must not run in parallel.
ROUTE_MAIN = """
program {name}

procedure main()
  root, a, b, c, lr: handle
begin
  root := build(3);
  a := root.left;
  lr := a.{first};
  {callee}(a);
  a := nil;
  b := root.left;
  c := b.{second};
  b := nil;
  c.value := 1;
  lr.value := 2
end

function build(d: int): handle
  t, cl, cr: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    t.value := d;
    cl := build(d - 1);
    cr := build(d - 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

#: ``tree_mirror``'s ``mirror``: swaps the children at every level.
MIRROR = """
procedure mirror(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    mirror(l);
    mirror(r);
    h.left := r;
    h.right := l
  end
end
"""

#: Moves the left subtree to the right, without a swap.
MOVE = """
procedure move(h: handle)
  t: handle
begin
  t := h.left;
  h.left := nil;
  h.right := t
end
"""


class TestCallEffectRoutes:
    """After a call that rearranges links below an update argument, a
    handle outside the argument's region may reach a node below it by a
    new route.  Weakening the old route is not enough: the call effect
    also adds ``(p[first, u] . D+)?``, and the parallelizer then keeps the
    two updates of one node apart."""

    @pytest.mark.parametrize(
        "callee,body,first,second",
        [("mirror", MIRROR, "right", "left"), ("move", MOVE, "left", "right")],
        ids=["mirror", "move"],
    )
    def test_a_moved_node_is_not_updated_in_parallel(self, callee, body, first, second):
        source = ROUTE_MAIN.format(name=f"{callee}_route", first=first, second=second, callee=callee)
        program, info = parse_and_normalize(source + body)
        sequential = run_program(program, info)
        result = parallelize_program(program, info)
        parallel = run_program(result.program, check_program(result.program))
        assert parallel.race_free, [str(race) for race in parallel.races]
        assert sequential.main_locals.keys() == parallel.main_locals.keys()
        for variable, value in sequential.main_locals.items():
            par_value = parallel.main_locals[variable]
            if value is None or par_value is None:
                assert value is par_value, variable
            else:
                assert sequential.heap.extract(value) == parallel.heap.extract(par_value), variable
        groups = [
            [format_stmt(branch) for branch in group.branches]
            for group in parallel_groups_in(result.procedure("main"))
        ]
        assert not any("c.value := 1" in g and "lr.value := 2" in g for g in groups), groups


class TestBaselines:
    @staticmethod
    def _has_parallel_recursive_calls(result, procedure):
        """Does the transformed procedure run two calls on sub-trees in parallel?"""
        proc = result.program.callable(procedure)
        for group in parallel_groups_in(proc):
            calls = [b for b in group.branches if is_call(b)]
            if len(calls) >= 2 and any(
                isinstance(arg, ast.Name) for call in calls for arg in call.args
            ):
                return True
        return False

    def test_conservative_finds_less_parallelism(self):
        program, info = load_workload("add_and_reverse", 4)
        paper = parallelize_program(program, info)
        conservative = parallelize_program(program, info, oracle=ConservativeOracle())
        # The headline result: only the path-matrix oracle parallelizes the
        # recursive calls on the two sub-trees.
        assert self._has_parallel_recursive_calls(paper, "add_n")
        assert not self._has_parallel_recursive_calls(conservative, "add_n")
        assert not self._has_parallel_recursive_calls(conservative, "reverse")
        assert conservative.stats.groups < paper.stats.groups

    def test_region_oracle_between_conservative_and_paper(self):
        program, info = load_workload("add_and_reverse", 4)
        paper = parallelize_program(program, info)
        region = parallelize_program(program, info, oracle=RegionOracle())
        conservative = parallelize_program(program, info, oracle=ConservativeOracle())
        # Regions cannot split one tree into its two sub-trees (the paper's
        # critique of effect systems).
        assert not self._has_parallel_recursive_calls(region, "add_n")
        assert not self._has_parallel_recursive_calls(region, "main")
        assert self._has_parallel_recursive_calls(paper, "main")
        assert conservative.stats.groups <= region.stats.groups <= paper.stats.groups

    def test_region_oracle_parallelizes_disjoint_trees(self):
        source = """
        program p
        procedure main()
          first, second: handle
        begin
          first := new();
          second := new();
          bump(first);
          bump(second)
        end
        procedure bump(h: handle)
        begin
          h.value := h.value + 1
        end
        """
        program, info = parse_and_normalize(source)
        region = parallelize_program(program, info, oracle=RegionOracle())
        assert region.stats.call_groups == 1
        conservative = parallelize_program(program, info, oracle=ConservativeOracle())
        assert conservative.stats.call_groups == 0

    def test_baseline_parallelization_is_still_race_free(self):
        program, info = load_workload("add_and_reverse", 4)
        for oracle in (ConservativeOracle(), RegionOracle()):
            result = parallelize_program(program, info, oracle=oracle)
            execution = run_program(result.program, check_program(result.program))
            assert execution.race_free

    def test_oracle_names(self):
        assert ConservativeOracle().name == "conservative"
        assert RegionOracle().name == "region-effects"
        assert PathMatrixOracle().name == "path-matrix"


class TestSpeedupModel:
    def test_greedy_time_bounds(self):
        assert greedy_time(100, 10, 1) == 100
        assert greedy_time(100, 10, 4) == 25
        assert greedy_time(100, 10, 1000) == 10
        assert greedy_time(100, 10, None) == 10

    def test_greedy_time_validation(self):
        with pytest.raises(ValueError):
            greedy_time(-1, 0, 1)
        with pytest.raises(ValueError):
            greedy_time(10, 1, 0)

    def test_build_report_rows(self):
        program, info = load_workload("add_and_reverse", 4)
        sequential = run_program(program, info)
        result, par_info = parallelized("add_and_reverse", 4)
        parallel = run_program(result.program, par_info)
        report = build_report("test", sequential, parallel, processors=(1, 2, 4))
        assert report.row(1).speedup == pytest.approx(1.0, rel=0.05)
        assert report.row(None).speedup == report.max_speedup
        assert report.max_speedup > 1.5
        assert report.race_free
        table = report.format_table()
        assert "speedup" in table and "inf" in table

    def test_speedup_monotone_in_processors(self):
        program, info = load_workload("tree_add", 6)
        sequential = run_program(program, info)
        result, par_info = parallelized("tree_add", 6)
        parallel = run_program(result.program, par_info)
        report = build_report("tree_add", sequential, parallel)
        speedups = [row.speedup for row in report.rows]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
