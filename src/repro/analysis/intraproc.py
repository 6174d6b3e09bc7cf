"""Intraprocedural path-matrix analysis: statements, blocks, ``if`` and ``while``.

Implements the statement-level analysis of Section 4: given a path matrix
``p`` at the point before a statement, compute the matrix ``p'`` after it.
Basic handle statements use the transfer functions of
:mod:`repro.analysis.transfer`; conditionals merge the matrices of their two
arms; ``while`` loops use the iterative approximation of Figure 3 (merge the
zero-iteration matrix with the matrices after 1, 2, ... iterations until a
fixed point is reached); procedure and function calls apply the
caller-side effect derived from the callee's summary and report their
projected entry matrices to the interprocedural driver.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..sil import ast
from ..sil.typecheck import TypeInfo
from .context import AnalysisRecorder
from .interproc import (
    apply_call_effect,
    project_external_call,
    project_recursive_call,
)
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .matrix import PathMatrix
from .summaries import ProcedureSummary
from .transfer import (
    _bump,
    _count_rows,
    apply_basic_statement,
    apply_basic_statement_cached,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import AnalysisContext


class ProcedureAnalyzer:
    """Analyzes one procedure body given its entry matrix.

    When given an :class:`~repro.analysis.context.AnalysisContext`, basic
    statements go through the memoized transfer cache and the context's
    :class:`~repro.analysis.context.AnalysisStats` counters are updated;
    without one, every transfer is computed directly (the reference
    engine's behaviour).
    """

    def __init__(
        self,
        program: ast.Program,
        info: TypeInfo,
        summaries: Dict[str, ProcedureSummary],
        limits: AnalysisLimits = DEFAULT_LIMITS,
        recorder: Optional[AnalysisRecorder] = None,
        context: Optional["AnalysisContext"] = None,
    ) -> None:
        self.program = program
        self.info = info
        self.summaries = summaries
        self.limits = limits
        self.recorder = recorder if recorder is not None else AnalysisRecorder()
        self.context = context

    # ------------------------------------------------------------------
    # Procedure level
    # ------------------------------------------------------------------

    def analyze_procedure(self, proc: ast.Procedure, entry: PathMatrix) -> PathMatrix:
        """Analyze ``proc``'s body starting from ``entry``; returns the exit matrix."""
        scope = self.info.for_procedure(proc.name)
        matrix = entry.copy()
        # Local handle variables start out as nil: tracked but unrelated.
        for local in proc.locals:
            if local.type is ast.SilType.HANDLE:
                matrix.add_handle(local.name)
        if self.context is not None:
            # Pipeline mode: every matrix that flows between statements is
            # immutable (transfers copy before mutating), and sealing here
            # makes all of them hashable — the transfer memo then keys on
            # the matrix objects with cached hashes.
            matrix.seal()
        return self.analyze_stmt(proc.body, matrix, proc)

    # ------------------------------------------------------------------
    # Statement level
    # ------------------------------------------------------------------

    def analyze_stmt(self, stmt: ast.Stmt, matrix: PathMatrix, proc: ast.Procedure) -> PathMatrix:
        """Return the matrix after ``stmt``, recording before/after matrices."""
        before = matrix
        after = self._analyze(stmt, matrix, proc)
        self.recorder.record_point(proc.name, stmt, before, after)
        if self.context is not None:
            self.context.stats.statements_visited += 1
        return after

    def _analyze(self, stmt: ast.Stmt, matrix: PathMatrix, proc: ast.Procedure) -> PathMatrix:
        if isinstance(stmt, ast.Block):
            current = matrix
            for inner in stmt.stmts:
                current = self.analyze_stmt(inner, current, proc)
            return current

        if isinstance(stmt, ast.ParallelStmt):
            # Parallel SIL input: the branches are (supposed to be)
            # independent; analyzing them in sequence is a sound
            # over-approximation of any interleaving *when* they do not
            # interfere, which the interference checker verifies separately.
            current = matrix
            for branch in stmt.branches:
                current = self.analyze_stmt(branch, current, proc)
            return current

        if isinstance(stmt, ast.IfStmt):
            then_out = self.analyze_stmt(stmt.then_branch, matrix, proc)
            if stmt.else_branch is not None:
                else_out = self.analyze_stmt(stmt.else_branch, matrix, proc)
            else:
                else_out = matrix
            return self._join(then_out, else_out)

        if isinstance(stmt, ast.WhileStmt):
            return self._analyze_while(stmt, matrix, proc)

        if isinstance(stmt, ast.SkipStmt):
            return matrix

        if isinstance(stmt, (ast.ProcCall, ast.FuncAssign)):
            return self._analyze_call(stmt, matrix, proc)

        if isinstance(stmt, ast.BasicStmt):
            context = self.context
            if context is not None:
                result = apply_basic_statement_cached(
                    matrix,
                    stmt,
                    self.limits,
                    cache=context.transfer_cache,
                    stats=context.stats,
                    identity=context.identity_of(stmt),
                )
            else:
                result = apply_basic_statement(matrix, stmt, self.limits)
            if result.diagnostics:
                self.recorder.record_diagnostics(proc.name, result.diagnostics)
            return result.matrix

        if isinstance(stmt, ast.Assign):
            raise ValueError(
                "the analysis requires a normalized (core) program; "
                "run repro.sil.normalize.normalize_program first"
            )
        raise TypeError(f"cannot analyze statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # Loops — the iterative approximation of Figure 3
    # ------------------------------------------------------------------

    def _join(self, first: PathMatrix, second: PathMatrix) -> PathMatrix:
        """Control-flow join, recomputed at every visit.

        Rows identical on both sides merge by pointer.  A memo of joins
        traded batch time for daemon time without a net gain on the
        benchmark's workloads; only a replay of the same program objects
        through one primed ``BatchAnalyzer`` ran about twice as fast with
        it (see the layer table in ``docs/architecture.md``).  The
        pipeline engine seals the result so downstream transfer keys hash
        it in O(1); its widening events land in the run-level scope.
        """
        merged = first.merge(second)
        if self.context is None:
            return merged
        _bump(self.context.stats, "scratch_matrices_elided")
        return merged.seal()

    def _analyze_while(
        self, stmt: ast.WhileStmt, matrix: PathMatrix, proc: ast.Procedure
    ) -> PathMatrix:
        history = [matrix]
        head = matrix
        for _ in range(self.limits.max_iterations):
            if self.context is not None:
                self.context.stats.loop_iterations += 1
            body_out = self.analyze_stmt(stmt.body, head, proc)
            # Once the head stabilizes the join reuses its rows by pointer,
            # so the fixed-point test below is a row-pointer scan.
            new_head = self._join(head, body_out)
            history.append(new_head)
            if new_head == head:
                break
            head = new_head
        else:
            # The ``max_iterations`` safety net fired without convergence.
            if self.context is not None:
                self.context.stats.iteration_guard_trips += 1
        self.recorder.record_loop(stmt, history)
        # No condition-based refinement: the matrix at loop exit is the
        # fixed-point head (covers zero and any positive number of iterations).
        return head

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _analyze_call(self, stmt: ast.Stmt, matrix: PathMatrix, proc: ast.Procedure) -> PathMatrix:
        if isinstance(stmt, ast.ProcCall):
            name, args, result_target = stmt.name, stmt.args, None
        else:
            assert isinstance(stmt, ast.FuncAssign)
            name, args, result_target = stmt.name, stmt.args, stmt.target

        callee = self.program.callable(name)
        summary = self.summaries[name]
        result_is_handle = False
        if result_target is not None:
            result_is_handle = self.info.for_procedure(proc.name).is_handle(result_target)

        projected, effect_matrix = self._call_outcome(
            matrix, args, proc, callee, summary, result_target, result_is_handle
        )
        context = self.context
        if context is not None:
            # Sealed, not interned: the solver interns the projection at the
            # entry-matrix escape point, and the effect matrix is ordinary
            # downstream dataflow keyed on by later transfers.
            if projected is not None:
                projected = projected.seal()
            effect_matrix = effect_matrix.seal()
            _bump(context.stats, "scratch_matrices_elided")
            _count_rows(context.stats, matrix, effect_matrix)
        if projected is not None:
            self.recorder.record_call_site(callee.name, projected)
        return effect_matrix

    def _call_outcome(
        self,
        matrix: PathMatrix,
        args,
        proc: ast.Procedure,
        callee: ast.Procedure,
        summary: ProcedureSummary,
        result_target: Optional[str],
        result_is_handle: bool,
    ):
        """``(projected entry matrix or None, caller matrix after the call)``.

        The projection reported for the interprocedural fixed point: the
        real projected matrix for callees with handle formals, an empty
        reachability marker for parameterless external callees, ``None``
        (nothing to report) for parameterless self-recursion.
        """
        if callee.handle_params:
            if callee.name == proc.name:
                projected = project_recursive_call(matrix, args, callee, self.limits)
            else:
                projected = project_external_call(matrix, args, callee, self.limits)
        elif callee.name != proc.name:
            # Parameterless callees still need to be marked reachable.
            projected = PathMatrix(limits=self.limits)
        else:
            projected = None

        effect = apply_call_effect(
            matrix,
            summary,
            args,
            callee,
            result_target=result_target,
            result_is_handle=result_is_handle,
            limits=self.limits,
        )
        return projected, effect.matrix
