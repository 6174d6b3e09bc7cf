"""A Lucassen–Gifford-style region/effect baseline oracle.

The related-work section of the paper discusses effect systems
[Luc87, LG88]: every linked structure lives in a *region*, a computation's
effect records which regions it may read or write, and two computations
commute when their write effects touch disjoint regions.  Such systems
"effectively differentiate between totally disjoint linked structures" but
cannot distinguish different parts of the *same* structure: "even though
the left and right sub-trees of a binary tree do not share any storage, the
effect system forces both sub-trees to be associated with the same region".

This oracle reproduces that precision level:

* handle variables of a procedure are partitioned into regions with a
  flow-insensitive union-find: copying a handle, loading a field, or
  storing a field merges the two variables' regions (they belong to the
  same structure); a handle returned from / passed to a call is merged with
  the other handles involved in that call;
* read/write effects per region are derived from the statements (and, for
  calls, from the callee summaries' read-only/update classification — effect
  systems do infer read-only effects);
* two statements are independent iff no region is written by one and
  touched by the other (plus the usual scalar-variable check).

It parallelizes computations on *different* trees but never the two
sub-trees of one tree — exactly the gap the path-matrix analysis closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..analysis.summaries import ProcedureSummary, compute_summaries
from ..parallel.oracle import DependenceOracle
from ..sil import ast
from ..sil.typecheck import TypeInfo
from .conservative import _variables, _writes_variable


class _UnionFind:
    """Tiny union-find over variable names."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self.parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, first: str, second: str) -> None:
        self.parent[self.find(first)] = self.find(second)

    def same(self, first: str, second: str) -> bool:
        return self.find(first) == self.find(second)


@dataclass
class _Effects:
    """Regions read / written by one statement."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)


class RegionOracle(DependenceOracle):
    """Region-granularity interference (Lucassen–Gifford precision level)."""

    name = "region-effects"

    def __init__(self) -> None:
        self.program: Optional[ast.Program] = None
        self.info: Optional[TypeInfo] = None
        self.summaries: Dict[str, ProcedureSummary] = {}
        self.regions: Dict[str, _UnionFind] = {}

    # ------------------------------------------------------------------

    def prepare(self, program: ast.Program, info: TypeInfo) -> None:
        self.program = program
        self.info = info
        self.summaries = compute_summaries(program, info)
        self.regions = {}
        for proc in program.all_callables:
            self.regions[proc.name] = self._build_regions(proc, info)

    def _build_regions(self, proc: ast.Procedure, info: TypeInfo) -> _UnionFind:
        scope = info.for_procedure(proc.name)
        regions = _UnionFind()
        for name in scope.handle_variables():
            regions.add(name)
        for stmt in ast.walk_stmt(proc.body):
            if isinstance(stmt, ast.CopyHandle):
                regions.union(stmt.target, stmt.source)
            elif isinstance(stmt, ast.LoadField):
                regions.union(stmt.target, stmt.source)
            elif isinstance(stmt, ast.StoreField) and stmt.source is not None:
                regions.union(stmt.target, stmt.source)
            elif isinstance(stmt, (ast.ProcCall, ast.FuncAssign)):
                # All handle values flowing through one call are tied to the
                # same structure from the region system's point of view only
                # if the callee links them; being conservative about the
                # callee, merge a handle result with the handle arguments.
                handle_args = [
                    arg.ident
                    for param, arg in zip(self.program.callable(stmt.name).params, stmt.args)
                    if param.type is ast.SilType.HANDLE and isinstance(arg, ast.Name)
                ]
                if (
                    isinstance(stmt, ast.FuncAssign)
                    and scope.is_handle(stmt.target)
                    and handle_args
                ):
                    summary = self.summaries.get(stmt.name)
                    if summary is None or not summary.result_may_be_fresh or summary.result_derived_from:
                        for arg in handle_args:
                            regions.union(stmt.target, arg)
        return regions

    # ------------------------------------------------------------------

    def _effects(self, stmt: ast.Stmt, procedure: str) -> _Effects:
        assert self.program is not None
        regions = self.regions[procedure]
        effects = _Effects()
        if isinstance(stmt, ast.LoadField):
            effects.reads.add(regions.find(stmt.source))
        elif isinstance(stmt, ast.LoadValue):
            effects.reads.add(regions.find(stmt.source))
        elif isinstance(stmt, ast.StoreField):
            effects.writes.add(regions.find(stmt.target))
        elif isinstance(stmt, ast.StoreValue):
            effects.writes.add(regions.find(stmt.target))
            for sub in ast.walk_expr(stmt.expr):
                if isinstance(sub, ast.FieldAccess) and isinstance(sub.base, ast.Name):
                    effects.reads.add(regions.find(sub.base.ident))
        elif isinstance(stmt, ast.ScalarAssign):
            for sub in ast.walk_expr(stmt.expr):
                if isinstance(sub, ast.FieldAccess) and isinstance(sub.base, ast.Name):
                    effects.reads.add(regions.find(sub.base.ident))
        elif isinstance(stmt, (ast.ProcCall, ast.FuncAssign)):
            callee = self.program.callable(stmt.name)
            summary = self.summaries[stmt.name]
            for param, arg in zip(callee.params, stmt.args):
                if param.type is not ast.SilType.HANDLE or not isinstance(arg, ast.Name):
                    continue
                region = regions.find(arg.ident)
                if summary.is_update(param.name):
                    effects.writes.add(region)
                else:
                    effects.reads.add(region)
        return effects

    # ------------------------------------------------------------------

    def independent(
        self,
        first: ast.Stmt,
        second: ast.Stmt,
        group_start: ast.Stmt,
        procedure: str,
    ) -> bool:
        assert self.info is not None, "prepare() must be called first"
        if _writes_variable(first) & _variables(second):
            return False
        if _writes_variable(second) & _variables(first):
            return False
        first_effects = self._effects(first, procedure)
        second_effects = self._effects(second, procedure)
        if first_effects.writes & (second_effects.reads | second_effects.writes):
            return False
        if second_effects.writes & (first_effects.reads | first_effects.writes):
            return False
        return True
