"""Normalization of SIL programs into *basic handle statements*.

The paper (Section 3.2) notes that complex statements such as
``a.left.right := b.right`` are "easily translated into a sequence of basic
handle statements (t1 := a.left; t2 := b.right; t1.right := t2)".  This
module performs that translation:

* every surface :class:`~repro.sil.ast.Assign` is lowered into one of the
  basic statement forms (``AssignNil``, ``AssignNew``, ``CopyHandle``,
  ``LoadField``, ``StoreField``, ``LoadValue``, ``StoreValue``,
  ``ScalarAssign``) or a :class:`~repro.sil.ast.FuncAssign`;
* chained field accesses are flattened by introducing fresh handle
  temporaries (``_t1``, ``_t2``, ...);
* handle-typed arguments of procedure/function calls are reduced to simple
  variable names;
* ``a.value`` reads and function calls buried inside integer expressions are
  hoisted into temporaries so that the expressions attached to
  ``ScalarAssign``/``StoreValue`` are *pure* (variables, literals,
  arithmetic only).

Conditions of ``if``/``while`` are left untouched (they only *read* the
structure, which the analysis and interpreter handle directly); function
calls are not permitted inside conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from . import ast
from .errors import NormalizationError
from .typecheck import ProcedureTypes, TypeInfo, check_program


@dataclass
class _TempAllocator:
    """Allocates fresh temporary names for one procedure."""

    taken: set
    prefix: str = "_t"
    counter: int = 0
    new_decls: List[ast.VarDecl] = field(default_factory=list)

    def fresh(self, sil_type: ast.SilType) -> str:
        while True:
            self.counter += 1
            name = f"{self.prefix}{self.counter}"
            if name not in self.taken:
                self.taken.add(name)
                self.new_decls.append(ast.VarDecl(name=name, type=sil_type))
                return name


class Normalizer:
    """Lowers one procedure at a time into core form."""

    def __init__(self, program: ast.Program, info: TypeInfo):
        self.program = program
        self.info = info

    # ------------------------------------------------------------------
    # Program / procedure level
    # ------------------------------------------------------------------

    def normalize_program(self) -> ast.Program:
        new_program = ast.clone_program(self.program)
        self.lower(new_program.all_callables)
        return new_program

    def lower(self, callables: Iterable[ast.Procedure]) -> None:
        """Lower each of ``callables`` in place.

        Each one needs its surface scope in :attr:`info`.  A call reads
        only its callee's parameters from :attr:`program`.
        """
        for proc in callables:
            self._normalize_procedure(proc)

    def _normalize_procedure(self, proc: ast.Procedure) -> None:
        scope = self.info.for_procedure(proc.name)
        taken = set(scope.variables.keys())
        alloc = _TempAllocator(taken=taken)
        body = self._normalize_stmt(proc.body, proc, scope, alloc)
        if not isinstance(body, ast.Block):
            body = ast.Block(stmts=[body])
        proc.body = body
        proc.locals = proc.locals + alloc.new_decls

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _normalize_stmt(
        self,
        stmt: ast.Stmt,
        proc: ast.Procedure,
        scope: ProcedureTypes,
        alloc: _TempAllocator,
    ) -> ast.Stmt:
        if isinstance(stmt, ast.Block):
            new_stmts: List[ast.Stmt] = []
            for inner in stmt.stmts:
                lowered = self._normalize_stmt(inner, proc, scope, alloc)
                if isinstance(lowered, ast.Block) and not isinstance(inner, ast.Block):
                    # Flatten statement sequences produced by lowering a
                    # single surface statement, but keep explicit nested
                    # blocks from the source program.
                    new_stmts.extend(lowered.stmts)
                else:
                    new_stmts.append(lowered)
            return ast.Block(stmts=new_stmts, loc=stmt.loc)
        if isinstance(stmt, ast.ParallelStmt):
            branches = [self._normalize_stmt(b, proc, scope, alloc) for b in stmt.branches]
            return ast.ParallelStmt(branches=branches, loc=stmt.loc)
        if isinstance(stmt, ast.IfStmt):
            self._check_condition(stmt.cond)
            then_branch = self._normalize_stmt(stmt.then_branch, proc, scope, alloc)
            else_branch = (
                self._normalize_stmt(stmt.else_branch, proc, scope, alloc)
                if stmt.else_branch is not None
                else None
            )
            return ast.IfStmt(
                cond=stmt.cond, then_branch=then_branch, else_branch=else_branch, loc=stmt.loc
            )
        if isinstance(stmt, ast.WhileStmt):
            self._check_condition(stmt.cond)
            body = self._normalize_stmt(stmt.body, proc, scope, alloc)
            return ast.WhileStmt(cond=stmt.cond, body=body, loc=stmt.loc)
        if isinstance(stmt, ast.Assign):
            return self._wrap(self._lower_assign(stmt, scope, alloc), stmt.loc)
        if isinstance(stmt, ast.ProcCall):
            prelude, args = self._normalize_call_args(stmt.name, stmt.args, scope, alloc, stmt.loc)
            return self._wrap(prelude + [ast.ProcCall(name=stmt.name, args=args, loc=stmt.loc)], stmt.loc)
        if isinstance(stmt, ast.FuncAssign):
            prelude, args = self._normalize_call_args(stmt.name, stmt.args, scope, alloc, stmt.loc)
            return self._wrap(
                prelude
                + [ast.FuncAssign(target=stmt.target, name=stmt.name, args=args, loc=stmt.loc)],
                stmt.loc,
            )
        if isinstance(stmt, (ast.BasicStmt, ast.SkipStmt)):
            return stmt
        raise NormalizationError(f"cannot normalize statement {type(stmt).__name__}", stmt.loc)

    @staticmethod
    def _wrap(stmts: List[ast.Stmt], loc) -> ast.Stmt:
        if len(stmts) == 1:
            return stmts[0]
        return ast.Block(stmts=stmts, loc=loc)

    def _check_condition(self, cond: ast.Expr) -> None:
        for sub in ast.walk_expr(cond):
            if isinstance(sub, ast.CallExpr):
                raise NormalizationError(
                    "function calls are not permitted inside conditions", cond.loc
                )
            if isinstance(sub, ast.NewExpr):
                raise NormalizationError("new() is not permitted inside conditions", cond.loc)

    # ------------------------------------------------------------------
    # Assignment lowering
    # ------------------------------------------------------------------

    def _lower_assign(
        self, stmt: ast.Assign, scope: ProcedureTypes, alloc: _TempAllocator
    ) -> List[ast.Stmt]:
        lhs, rhs, loc = stmt.lhs, stmt.rhs, stmt.loc

        if isinstance(lhs, ast.Name):
            target = lhs.ident
            if scope.type_of(target) is ast.SilType.HANDLE:
                return self._lower_handle_assign(target, rhs, scope, alloc, loc)
            return self._lower_int_assign(target, rhs, scope, alloc, loc)

        if isinstance(lhs, ast.FieldAccess):
            prelude, base_name = self._reduce_to_handle_name(lhs.base, scope, alloc, loc)
            if lhs.field_name is ast.Field.VALUE:
                more, pure = self._purify_int_expr(rhs, scope, alloc, loc)
                return prelude + more + [ast.StoreValue(target=base_name, expr=pure, loc=loc)]
            # left / right field update
            more, source = self._reduce_to_optional_handle_name(rhs, scope, alloc, loc)
            return prelude + more + [
                ast.StoreField(target=base_name, field_name=lhs.field_name, source=source, loc=loc)
            ]

        raise NormalizationError("left side of assignment must be a variable or field access", loc)

    def _lower_handle_assign(
        self, target: str, rhs: ast.Expr, scope: ProcedureTypes, alloc: _TempAllocator, loc
    ) -> List[ast.Stmt]:
        if isinstance(rhs, ast.NilLit):
            return [ast.AssignNil(target=target, loc=loc)]
        if isinstance(rhs, ast.NewExpr):
            return [ast.AssignNew(target=target, loc=loc)]
        if isinstance(rhs, ast.Name):
            return [ast.CopyHandle(target=target, source=rhs.ident, loc=loc)]
        if isinstance(rhs, ast.FieldAccess):
            if rhs.field_name is ast.Field.VALUE:
                raise NormalizationError(
                    f"cannot assign an int expression to handle {target!r}", loc
                )
            prelude, base_name = self._reduce_to_handle_name(rhs.base, scope, alloc, loc)
            return prelude + [
                ast.LoadField(target=target, source=base_name, field_name=rhs.field_name, loc=loc)
            ]
        if isinstance(rhs, ast.CallExpr):
            prelude, args = self._normalize_call_args(rhs.name, rhs.args, scope, alloc, loc)
            return prelude + [ast.FuncAssign(target=target, name=rhs.name, args=args, loc=loc)]
        raise NormalizationError(f"cannot assign this expression to handle {target!r}", loc)

    def _lower_int_assign(
        self, target: str, rhs: ast.Expr, scope: ProcedureTypes, alloc: _TempAllocator, loc
    ) -> List[ast.Stmt]:
        if isinstance(rhs, ast.CallExpr):
            prelude, args = self._normalize_call_args(rhs.name, rhs.args, scope, alloc, loc)
            return prelude + [ast.FuncAssign(target=target, name=rhs.name, args=args, loc=loc)]
        if isinstance(rhs, ast.FieldAccess) and rhs.field_name is ast.Field.VALUE:
            prelude, base_name = self._reduce_to_handle_name(rhs.base, scope, alloc, loc)
            return prelude + [ast.LoadValue(target=target, source=base_name, loc=loc)]
        prelude, pure = self._purify_int_expr(rhs, scope, alloc, loc)
        return prelude + [ast.ScalarAssign(target=target, expr=pure, loc=loc)]

    # ------------------------------------------------------------------
    # Expression helpers
    # ------------------------------------------------------------------

    def _reduce_to_handle_name(
        self, expr: ast.Expr, scope: ProcedureTypes, alloc: _TempAllocator, loc
    ) -> Tuple[List[ast.Stmt], str]:
        """Reduce a handle-valued expression to a simple variable name."""
        if isinstance(expr, ast.Name):
            return [], expr.ident
        if isinstance(expr, ast.FieldAccess):
            if expr.field_name is ast.Field.VALUE:
                raise NormalizationError("expected a handle expression, got '.value'", loc)
            prelude, base_name = self._reduce_to_handle_name(expr.base, scope, alloc, loc)
            temp = alloc.fresh(ast.SilType.HANDLE)
            scope.variables[temp] = ast.SilType.HANDLE
            prelude = prelude + [
                ast.LoadField(target=temp, source=base_name, field_name=expr.field_name, loc=loc)
            ]
            return prelude, temp
        if isinstance(expr, ast.NewExpr):
            temp = alloc.fresh(ast.SilType.HANDLE)
            scope.variables[temp] = ast.SilType.HANDLE
            return [ast.AssignNew(target=temp, loc=loc)], temp
        if isinstance(expr, ast.NilLit):
            temp = alloc.fresh(ast.SilType.HANDLE)
            scope.variables[temp] = ast.SilType.HANDLE
            return [ast.AssignNil(target=temp, loc=loc)], temp
        if isinstance(expr, ast.CallExpr):
            prelude, args = self._normalize_call_args(expr.name, expr.args, scope, alloc, loc)
            temp = alloc.fresh(ast.SilType.HANDLE)
            scope.variables[temp] = ast.SilType.HANDLE
            return prelude + [ast.FuncAssign(target=temp, name=expr.name, args=args, loc=loc)], temp
        raise NormalizationError("expected a handle-valued expression", loc)

    def _reduce_to_optional_handle_name(
        self, expr: ast.Expr, scope: ProcedureTypes, alloc: _TempAllocator, loc
    ) -> Tuple[List[ast.Stmt], Optional[str]]:
        """Like :meth:`_reduce_to_handle_name` but maps ``nil`` to ``None``."""
        if isinstance(expr, ast.NilLit):
            return [], None
        return self._reduce_to_handle_name(expr, scope, alloc, loc)

    def _purify_int_expr(
        self, expr: ast.Expr, scope: ProcedureTypes, alloc: _TempAllocator, loc
    ) -> Tuple[List[ast.Stmt], ast.Expr]:
        """Hoist complex ``.value`` reads and function calls out of an int expression.

        A ``.value`` read whose base is already a simple handle variable
        (``h.value``) is left in place — it is a pure read and keeping it
        allows statements such as ``h.value := h.value + n`` (Figure 7/8) to
        remain single basic statements.  Reads through longer chains
        (``h.left.value``) are hoisted via temporaries.
        """
        if isinstance(expr, ast.IntLit):
            return [], expr
        if isinstance(expr, ast.Name):
            return [], expr
        if isinstance(expr, ast.FieldAccess):
            if expr.field_name is not ast.Field.VALUE:
                raise NormalizationError("handle expression used where an int is required", loc)
            if isinstance(expr.base, ast.Name):
                return [], expr
            prelude, base_name = self._reduce_to_handle_name(expr.base, scope, alloc, loc)
            return prelude, ast.FieldAccess(ast.Name(base_name, loc=loc), ast.Field.VALUE, loc=loc)
        if isinstance(expr, ast.CallExpr):
            call_prelude, args = self._normalize_call_args(expr.name, expr.args, scope, alloc, loc)
            temp = alloc.fresh(ast.SilType.INT)
            scope.variables[temp] = ast.SilType.INT
            prelude = call_prelude + [
                ast.FuncAssign(target=temp, name=expr.name, args=args, loc=loc)
            ]
            return prelude, ast.Name(temp, loc=loc)
        if isinstance(expr, ast.UnOp):
            prelude, operand = self._purify_int_expr(expr.operand, scope, alloc, loc)
            return prelude, ast.UnOp(expr.op, operand, loc=expr.loc)
        if isinstance(expr, ast.BinOp):
            left_prelude, left = self._purify_int_expr(expr.left, scope, alloc, loc)
            right_prelude, right = self._purify_int_expr(expr.right, scope, alloc, loc)
            return left_prelude + right_prelude, ast.BinOp(expr.op, left, right, loc=expr.loc)
        raise NormalizationError("expression cannot appear in an integer context", loc)

    # ------------------------------------------------------------------
    # Call arguments
    # ------------------------------------------------------------------

    def _normalize_call_args(
        self,
        callee_name: str,
        args: List[ast.Expr],
        scope: ProcedureTypes,
        alloc: _TempAllocator,
        loc,
    ) -> Tuple[List[ast.Stmt], List[ast.Expr]]:
        try:
            callee = self.program.callable(callee_name)
        except KeyError:
            raise NormalizationError(f"call to undefined procedure {callee_name!r}", loc) from None
        prelude: List[ast.Stmt] = []
        new_args: List[ast.Expr] = []
        for arg, param in zip(args, callee.params):
            if param.type is ast.SilType.HANDLE:
                more, name = self._reduce_to_optional_handle_name(arg, scope, alloc, loc)
                prelude.extend(more)
                new_args.append(ast.NilLit(loc=loc) if name is None else ast.Name(name, loc=loc))
            else:
                more, pure = self._purify_int_expr(arg, scope, alloc, loc)
                prelude.extend(more)
                new_args.append(pure)
        return prelude, new_args


def normalize_program(
    program: ast.Program, info: Optional[TypeInfo] = None
) -> Tuple[ast.Program, TypeInfo]:
    """Lower ``program`` to core (basic-statement) form.

    Returns the lowered program together with fresh :class:`TypeInfo`
    (including the introduced temporaries).  The input program is not
    modified.
    """
    if info is None:
        info = check_program(program)
    normalizer = Normalizer(program, info)
    core = normalizer.normalize_program()
    new_info = check_program(core)
    return core, new_info


def parse_and_normalize(source: str) -> Tuple[ast.Program, TypeInfo]:
    """Parse, type check and normalize SIL source text.

    The parsed program is nobody else's, so it is lowered in place.
    """
    from .parser import parse_program

    program = parse_program(source)
    Normalizer(program, check_program(program)).lower(program.all_callables)
    return program, check_program(program)
