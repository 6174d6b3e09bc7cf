"""Dependence oracles: the interface between analyses and the parallelizer.

The parallelizer asks one question: *may these two adjacent statements
interfere if executed in parallel at this program point?*  Different
analyses answer it with different precision:

* :class:`PathMatrixOracle` — the paper's analysis (Sections 4–5);
* the baselines in :mod:`repro.baselines` — a fully conservative oracle and
  a Lucassen–Gifford-style region/effect oracle — answer the same question
  the way pre-existing techniques would.

Plugging different oracles into the same transformation quantifies how much
parallelism the path-matrix analysis exposes over prior work (bench EXT-C).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis import AnalysisResult, analyze_program
from ..analysis.context import AnalysisContext, AnalysisStats
from ..analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from ..analysis.matrix import PathMatrix
from ..analysis.transfer import TransferCache
from ..interference.basic import statements_interfere
from ..interference.calls import calls_independent
from ..interference.locations import LocationKind
from ..interference.readwrite import read_set, write_set
from ..sil import ast
from ..sil.typecheck import TypeInfo, check_program


def is_call(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, (ast.ProcCall, ast.FuncAssign))


def is_groupable(stmt: ast.Stmt) -> bool:
    """Statements the transformation may place inside a parallel group."""
    return isinstance(stmt, (ast.BasicStmt, ast.ProcCall, ast.FuncAssign, ast.SkipStmt))


class DependenceOracle(abc.ABC):
    """Answers independence queries for pairs of adjacent statements."""

    #: Short name used in benchmark tables.
    name: str = "oracle"

    @abc.abstractmethod
    def prepare(self, program: ast.Program, info: TypeInfo) -> None:
        """Called once per program before any query."""

    @abc.abstractmethod
    def independent(
        self,
        first: ast.Stmt,
        second: ast.Stmt,
        group_start: ast.Stmt,
        procedure: str,
    ) -> bool:
        """May ``first`` and ``second`` safely execute in parallel?

        ``group_start`` is the first statement of the parallel group being
        grown — the program point whose path matrix governs the decision
        (Section 5.1's "program point with path matrix p").
        """


class PathMatrixOracle(DependenceOracle):
    """The paper's oracle: path-matrix interference analysis."""

    name = "path-matrix"

    def __init__(
        self,
        limits: AnalysisLimits = DEFAULT_LIMITS,
        use_update_refinement: bool = True,
        analysis: Optional[AnalysisResult] = None,
        transfer_cache: Optional[TransferCache] = None,
    ) -> None:
        self.limits = limits
        self.use_update_refinement = use_update_refinement
        self.analysis = analysis
        #: Optional shared memoized-transfer cache.  Passing the same cache
        #: to several oracles (or reusing one oracle across programs) lets
        #: re-preparation hit previously computed transfers; ``None`` uses
        #: the process-wide shared cache.
        self.transfer_cache = transfer_cache

    # ------------------------------------------------------------------

    def prepare(self, program: ast.Program, info: TypeInfo) -> None:
        if self.analysis is None or self.analysis.program is not program:
            context = AnalysisContext(
                program=program,
                info=info,
                limits=self.limits,
                transfer_cache=self.transfer_cache,
            )
            self.analysis = analyze_program(program, info, context=context)

    @property
    def stats(self) -> Optional[AnalysisStats]:
        """Work counters of the prepared analysis (None before prepare())."""
        return self.analysis.stats if self.analysis is not None else None

    def _matrix_at(self, group_start: ast.Stmt) -> PathMatrix:
        assert self.analysis is not None, "prepare() must be called first"
        return self.analysis.matrix_before(group_start)

    # ------------------------------------------------------------------

    def independent(
        self,
        first: ast.Stmt,
        second: ast.Stmt,
        group_start: ast.Stmt,
        procedure: str,
    ) -> bool:
        assert self.analysis is not None, "prepare() must be called first"
        matrix = self._matrix_at(group_start)
        program = self.analysis.program

        if is_call(first) and is_call(second):
            return calls_independent(
                first,
                second,
                matrix,
                program,
                self.analysis.summaries,
                use_update_refinement=self.use_update_refinement,
            )
        if not is_call(first) and not is_call(second):
            return not statements_interfere(first, second, matrix)
        # Mixed pair: one basic statement, one call.
        if is_call(first):
            return self._call_vs_basic(first, second, matrix)
        return self._call_vs_basic(second, first, matrix)

    # ------------------------------------------------------------------

    def _call_vs_basic(self, call: ast.Stmt, basic: ast.Stmt, matrix: PathMatrix) -> bool:
        """Conservative independence test between a call and a basic statement.

        The call may read any node at/below its handle arguments and write
        any node at/below its *update* arguments (plus its scalar result
        variable); the basic statement's read/write locations are checked
        against those regions.
        """
        assert self.analysis is not None
        program = self.analysis.program
        if isinstance(call, ast.ProcCall):
            callee_name, args, target = call.name, call.args, None
        else:
            assert isinstance(call, ast.FuncAssign)
            callee_name, args, target = call.name, call.args, call.target
        callee = program.callable(callee_name)
        summary = self.analysis.summaries[callee_name]

        handle_args = []
        update_args = []
        scalar_arg_vars = set()
        for param, arg in zip(callee.params, args):
            if param.type is ast.SilType.HANDLE:
                if isinstance(arg, ast.Name):
                    handle_args.append(arg.ident)
                    if summary.is_update(param.name):
                        update_args.append(arg.ident)
            else:
                scalar_arg_vars.update(ast.names_in_expr(arg))

        call_var_reads = scalar_arg_vars | set(handle_args)
        call_var_writes = {target} if target is not None else set()

        basic_reads = read_set(basic, matrix)
        basic_writes = write_set(basic, matrix)

        for location in basic_writes:
            if location.kind is LocationKind.VAR:
                if location.name in call_var_reads or location.name in call_var_writes:
                    return False
            else:
                # A heap write conflicts if the written node may be reachable
                # from any handle argument of the call.
                if any(
                    matrix.related(location.name, arg) or location.name == arg
                    for arg in handle_args
                ):
                    return False
        for location in basic_reads:
            if location.kind is LocationKind.VAR:
                if location.name in call_var_writes:
                    return False
            else:
                # A heap read conflicts only with the call's update region.
                if any(
                    matrix.related(location.name, arg) or location.name == arg
                    for arg in update_args
                ):
                    return False
        return True


# ---------------------------------------------------------------------------
# Batch preparation (generated-scenario populations)
# ---------------------------------------------------------------------------


def batch_oracles(
    pairs: Iterable[Tuple[ast.Program, Optional[TypeInfo]]],
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> List[PathMatrixOracle]:
    """Prepared :class:`PathMatrixOracle`\\ s for a batch of programs.

    All oracles share one memoized-transfer cache (the oracle analogue of
    :func:`repro.analysis.engine.analyze_many`).  Its transfer entries are
    keyed on statement content, limits and input matrix, so a statement
    that reappears — same rendering, same incoming matrix — in another
    procedure or another program of the population is answered from the
    entry the first occurrence put instead of being recomputed.
    """
    shared_cache = TransferCache(limits.transfer_cache_size)
    oracles: List[PathMatrixOracle] = []
    for program, info in pairs:
        if info is None:
            info = check_program(program)
        oracle = PathMatrixOracle(limits=limits, transfer_cache=shared_cache)
        oracle.prepare(program, info)
        oracles.append(oracle)
    return oracles


def parallelism_census(
    program: ast.Program,
    info: Optional[TypeInfo] = None,
    oracle: Optional[DependenceOracle] = None,
    limits: AnalysisLimits = DEFAULT_LIMITS,
) -> Dict[str, int]:
    """How much parallelism an oracle exposes in one program, as plain counters.

    Runs the Figure 8 transformation with the given oracle (default: a
    fresh :class:`PathMatrixOracle`) and returns the group/query counters —
    the per-scenario parallelism row the batch-analysis CLI reports for
    generated populations.
    """
    from .transform import parallelize_program

    if info is None:
        info = check_program(program)
    if oracle is None:
        oracle = PathMatrixOracle(limits=limits)
    result = parallelize_program(program, info, oracle=oracle)
    stats = result.stats
    return {
        "groups": stats.groups,
        "statements_in_groups": stats.statements_in_groups,
        "largest_group": stats.largest_group,
        "call_groups": stats.call_groups,
        "queries": stats.queries,
        "independent_answers": stats.independent_answers,
    }
