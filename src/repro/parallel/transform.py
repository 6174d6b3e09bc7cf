"""The parallelizing transformation (Figure 4 / Figure 8).

Walks every procedure of a (core) SIL program and greedily fuses maximal
runs of adjacent, pairwise-independent statements into parallel statements
``s1 || s2 || ... || sn``.  Group membership is decided by a pluggable
:class:`~repro.parallel.oracle.DependenceOracle`; with the
:class:`~repro.parallel.oracle.PathMatrixOracle` this implements the
combination of the paper's methods:

* §5.1 — adjacent basic handle statements that do not interfere;
* §5.2 — adjacent procedure calls whose (update) handle arguments are
  unrelated — this is what parallelizes the recursive calls of ``add_n``
  and ``reverse``;
* mixed basic/call pairs with a conservative region test.

Compound statements (``if``, ``while``, nested blocks) are not fused into
groups but their bodies are transformed recursively.  The transformation
never reorders statements: a statement joins the current group only if it
is independent of *every* statement already in the group, otherwise the
group is closed and a new one starts — exactly the incremental scheme of
Section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sil import ast
from ..sil.typecheck import TypeInfo, check_program
from .oracle import DependenceOracle, PathMatrixOracle, is_call, is_groupable


@dataclass
class ParallelizationStats:
    """What the transformation found and did."""

    #: Number of parallel groups created (size >= 2).
    groups: int = 0
    #: Total number of statements placed into parallel groups.
    statements_in_groups: int = 0
    #: Size of the largest group.
    largest_group: int = 0
    #: Number of groups that contain at least two procedure/function calls.
    call_groups: int = 0
    #: Independence queries asked / answered positively.
    queries: int = 0
    independent_answers: int = 0
    #: Per-procedure group counts.
    per_procedure: Dict[str, int] = field(default_factory=dict)

    def record_group(self, procedure: str, group: List[ast.Stmt]) -> None:
        self.groups += 1
        self.statements_in_groups += len(group)
        self.largest_group = max(self.largest_group, len(group))
        if sum(1 for stmt in group if is_call(stmt)) >= 2:
            self.call_groups += 1
        self.per_procedure[procedure] = self.per_procedure.get(procedure, 0) + 1


@dataclass
class ParallelizationResult:
    """The transformed (parallel) program plus statistics."""

    program: ast.Program
    stats: ParallelizationStats
    oracle_name: str

    def procedure(self, name: str) -> ast.Procedure:
        return self.program.callable(name)


class Parallelizer:
    """Applies the transformation to one program with one oracle."""

    def __init__(self, oracle: DependenceOracle):
        self.oracle = oracle
        self.stats = ParallelizationStats()

    # ------------------------------------------------------------------

    def transform_program(self, program: ast.Program, info: TypeInfo) -> ParallelizationResult:
        self.oracle.prepare(program, info)
        procedures = []
        functions = []
        for proc in program.procedures:
            procedures.append(self._transform_procedure(proc))
        for func in program.functions:
            functions.append(self._transform_procedure(func))
        parallel_program = ast.Program(
            name=program.name, procedures=procedures, functions=functions, loc=program.loc
        )
        return ParallelizationResult(
            program=parallel_program, stats=self.stats, oracle_name=self.oracle.name
        )

    def _transform_procedure(self, proc: ast.Procedure) -> ast.Procedure:
        body = self._transform_stmt(proc.body, proc.name)
        if not isinstance(body, ast.Block):
            body = ast.Block(stmts=[body])
        params = [ast.VarDecl(name=p.name, type=p.type) for p in proc.params]
        locals_ = [ast.VarDecl(name=v.name, type=v.type) for v in proc.locals]
        if isinstance(proc, ast.Function):
            return ast.Function(
                name=proc.name,
                params=params,
                locals=locals_,
                body=body,
                return_type=proc.return_type,
                return_var=proc.return_var,
            )
        return ast.Procedure(name=proc.name, params=params, locals=locals_, body=body)

    # ------------------------------------------------------------------

    def _transform_stmt(self, stmt: ast.Stmt, procedure: str) -> ast.Stmt:
        if isinstance(stmt, ast.Block):
            return self._transform_block(stmt, procedure)
        if isinstance(stmt, ast.IfStmt):
            return ast.IfStmt(
                cond=stmt.cond,
                then_branch=self._transform_stmt(stmt.then_branch, procedure),
                else_branch=(
                    self._transform_stmt(stmt.else_branch, procedure)
                    if stmt.else_branch is not None
                    else None
                ),
                loc=stmt.loc,
            )
        if isinstance(stmt, ast.WhileStmt):
            return ast.WhileStmt(
                cond=stmt.cond, body=self._transform_stmt(stmt.body, procedure), loc=stmt.loc
            )
        if isinstance(stmt, ast.ParallelStmt):
            return ast.ParallelStmt(
                branches=[self._transform_stmt(branch, procedure) for branch in stmt.branches],
                loc=stmt.loc,
            )
        # Leaf statements are reused as-is (the transformed program shares
        # them with the input program).
        return stmt

    def _transform_block(self, block: ast.Block, procedure: str) -> ast.Block:
        new_stmts: List[ast.Stmt] = []
        index = 0
        items = block.stmts
        while index < len(items):
            stmt = items[index]
            if not is_groupable(stmt):
                new_stmts.append(self._transform_stmt(stmt, procedure))
                index += 1
                continue
            group = [stmt]
            group_start = stmt
            next_index = index + 1
            while next_index < len(items) and is_groupable(items[next_index]):
                candidate = items[next_index]
                if self._independent_of_group(group, candidate, group_start, procedure):
                    group.append(candidate)
                    next_index += 1
                else:
                    break
            if len(group) > 1:
                self.stats.record_group(procedure, group)
                new_stmts.append(ast.ParallelStmt(branches=list(group), loc=group_start.loc))
            else:
                new_stmts.append(stmt)
            index = next_index
        return ast.Block(stmts=new_stmts, loc=block.loc)

    def _independent_of_group(
        self,
        group: List[ast.Stmt],
        candidate: ast.Stmt,
        group_start: ast.Stmt,
        procedure: str,
    ) -> bool:
        for member in group:
            self.stats.queries += 1
            if not self.oracle.independent(member, candidate, group_start, procedure):
                return False
            self.stats.independent_answers += 1
        return True


def parallelize_program(
    program: ast.Program,
    info: Optional[TypeInfo] = None,
    oracle: Optional[DependenceOracle] = None,
) -> ParallelizationResult:
    """Parallelize a core SIL program (Figure 8 transformation).

    ``oracle`` defaults to the paper's :class:`PathMatrixOracle`; pass one of
    the baselines from :mod:`repro.baselines` to see what a conservative or
    region-based analysis would achieve instead.
    """
    if not ast.program_is_core(program):
        raise ValueError(
            "parallelize_program requires a normalized (core) program; "
            "run repro.sil.normalize.normalize_program first"
        )
    if info is None:
        info = check_program(program)
    if oracle is None:
        oracle = PathMatrixOracle()
    return Parallelizer(oracle).transform_program(program, info)
