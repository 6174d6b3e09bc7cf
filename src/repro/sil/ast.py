"""Abstract syntax trees for SIL, the Structured Imperative Language.

SIL is the small imperative language of Hendren & Nicolau (1989).  A program
consists of a parameterless procedure ``main`` plus auxiliary procedures and
functions, all statically scoped with call-by-value semantics.  Two types
are supported: ``int`` and ``handle`` (the name of a binary-tree node).

The AST has two "levels":

* **Surface statements** (:class:`Assign`) are what the parser produces for
  arbitrary assignments such as ``a.left.right := b.right``.
* **Basic handle statements** (:class:`AssignNil`, :class:`AssignNew`,
  :class:`CopyHandle`, :class:`LoadField`, :class:`StoreField`,
  :class:`LoadValue`, :class:`StoreValue`, :class:`ScalarAssign`) are the
  core forms from Section 3.2 of the paper.  The normalizer
  (:mod:`repro.sil.normalize`) lowers every surface assignment into a
  sequence of basic statements, introducing temporaries as required; the
  path-matrix analysis, the interference analysis and the interpreter all
  operate on normalized programs.

Parallel SIL adds a single construct, :class:`ParallelStmt`, written
``s1 || s2 || ... || sn`` — the output form of the parallelizer and also a
legal input form (so hand-parallelized programs can be *checked*).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import SourceLocation

# ---------------------------------------------------------------------------
# Types and fields
# ---------------------------------------------------------------------------


class SilType(enum.Enum):
    """The two SIL types."""

    INT = "int"
    HANDLE = "handle"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Field(enum.Enum):
    """Fields of a binary-tree node: ``left``, ``right`` (handles), ``value`` (int)."""

    LEFT = "left"
    RIGHT = "right"
    VALUE = "value"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_link(self) -> bool:
        """True for the pointer-valued fields ``left`` and ``right``."""
        return self in (Field.LEFT, Field.RIGHT)


LINK_FIELDS: Tuple[Field, Field] = (Field.LEFT, Field.RIGHT)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """Base class for all AST nodes.  Carries an optional source location."""

    loc: Optional[SourceLocation] = field(
        default=None, repr=False, compare=False, kw_only=True
    )


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    """An integer literal."""

    value: int = 0


@dataclass
class NilLit(Expr):
    """The ``nil`` handle literal."""


@dataclass
class NewExpr(Expr):
    """A call to the built-in allocator ``new()``."""


@dataclass
class Name(Expr):
    """A reference to a variable (integer or handle)."""

    ident: str = ""


@dataclass
class FieldAccess(Expr):
    """``base.field`` where ``field`` is ``left``, ``right`` or ``value``."""

    base: Expr = field(default_factory=Name)
    field_name: Field = Field.LEFT


#: Binary operators.  Comparison operators yield booleans (represented as
#: SIL ints 0/1); arithmetic operators work on ints; ``and``/``or`` on bools.
BINARY_OPS = (
    "+",
    "-",
    "*",
    "div",
    "mod",
    "=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "and",
    "or",
)

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "div", "mod")
LOGICAL_OPS = ("and", "or")

UNARY_OPS = ("-", "not")


@dataclass
class BinOp(Expr):
    """A binary operation ``left op right``."""

    op: str = "+"
    left: Expr = field(default_factory=IntLit)
    right: Expr = field(default_factory=IntLit)


@dataclass
class UnOp(Expr):
    """A unary operation ``op operand`` (``-`` or ``not``)."""

    op: str = "-"
    operand: Expr = field(default_factory=IntLit)


@dataclass
class CallExpr(Expr):
    """A function call used as the right-hand side of an assignment."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class Block(Stmt):
    """``begin s1; s2; ... end``."""

    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    """Surface-level assignment ``lhs := rhs``.

    ``lhs`` is a :class:`Name` or a chain of :class:`FieldAccess` nodes
    rooted at a :class:`Name`.  Lowered to basic statements by the
    normalizer.
    """

    lhs: Expr = field(default_factory=Name)
    rhs: Expr = field(default_factory=IntLit)


@dataclass
class IfStmt(Stmt):
    """``if cond then s [else s]``."""

    cond: Expr = field(default_factory=IntLit)
    then_branch: Stmt = field(default_factory=Block)
    else_branch: Optional[Stmt] = None


@dataclass
class WhileStmt(Stmt):
    """``while cond do s``."""

    cond: Expr = field(default_factory=IntLit)
    body: Stmt = field(default_factory=Block)


@dataclass
class ProcCall(Stmt):
    """A procedure call statement ``p(a1, ..., an)``."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class FuncAssign(Stmt):
    """``x := f(a1, ..., an)`` — assignment of a function-call result."""

    target: str = ""
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class ParallelStmt(Stmt):
    """``s1 || s2 || ... || sn`` — all branches execute in parallel."""

    branches: List[Stmt] = field(default_factory=list)


@dataclass
class SkipStmt(Stmt):
    """A no-op statement (used by transformations and tests)."""


# ---- Basic handle statements (core forms of Section 3.2) ------------------


@dataclass
class BasicStmt(Stmt):
    """Marker base class for basic (core) statements."""


@dataclass
class AssignNil(BasicStmt):
    """``a := nil``."""

    target: str = ""


@dataclass
class AssignNew(BasicStmt):
    """``a := new()``."""

    target: str = ""


@dataclass
class CopyHandle(BasicStmt):
    """``a := b`` (both handles)."""

    target: str = ""
    source: str = ""


@dataclass
class LoadField(BasicStmt):
    """``a := b.left`` or ``a := b.right``."""

    target: str = ""
    source: str = ""
    field_name: Field = Field.LEFT


@dataclass
class StoreField(BasicStmt):
    """``a.left := b``, ``a.right := b`` or ``a.left := nil`` (source None)."""

    target: str = ""
    field_name: Field = Field.LEFT
    source: Optional[str] = None


@dataclass
class LoadValue(BasicStmt):
    """``x := a.value``."""

    target: str = ""
    source: str = ""


@dataclass
class StoreValue(BasicStmt):
    """``a.value := e`` where ``e`` is a pure integer expression."""

    target: str = ""
    expr: Expr = field(default_factory=IntLit)


@dataclass
class ScalarAssign(BasicStmt):
    """``x := e`` where ``x`` is an int variable and ``e`` a pure int expression."""

    target: str = ""
    expr: Expr = field(default_factory=IntLit)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class VarDecl(Node):
    """A variable declaration (parameter or local)."""

    name: str = ""
    type: SilType = SilType.INT


@dataclass
class Procedure(Node):
    """A SIL procedure."""

    name: str = ""
    params: List[VarDecl] = field(default_factory=list)
    locals: List[VarDecl] = field(default_factory=list)
    body: Block = field(default_factory=Block)

    @property
    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    @property
    def handle_params(self) -> List[str]:
        return [p.name for p in self.params if p.type is SilType.HANDLE]

    @property
    def local_names(self) -> List[str]:
        return [v.name for v in self.locals]

    def declared_type(self, name: str) -> Optional[SilType]:
        """The declared type of ``name`` in this procedure, if any."""
        for decl in self.params + self.locals:
            if decl.name == name:
                return decl.type
        return None


@dataclass
class Function(Procedure):
    """A SIL function: a procedure with a return type and a return variable."""

    return_type: SilType = SilType.INT
    return_var: str = ""


@dataclass
class Program(Node):
    """A whole SIL program: ``main`` plus auxiliary procedures and functions."""

    name: str = "program"
    procedures: List[Procedure] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)
    #: ``(shape, name -> callable)`` behind :meth:`callable`, built on the
    #: first lookup.  ``shape`` is the identity and length of both lists,
    #: and the index is rebuilt when either changes; renaming a callable in
    #: place is not tracked.
    _callables: Optional[Tuple[Tuple[int, int, int, int], Dict[str, Procedure]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def procedure(self, name: str) -> Procedure:
        """Look up a procedure (not function) by name.  Raises KeyError."""
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(f"no procedure named {name!r}")

    def function(self, name: str) -> Function:
        """Look up a function by name.  Raises KeyError."""
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")

    def callable(self, name: str) -> Procedure:
        """Look up a procedure *or* function by name.  Raises KeyError.

        Procedures come before functions, and the first of two callables
        with one name wins.
        """
        proc = self._callable_index().get(name)
        if proc is None:
            raise KeyError(f"no procedure or function named {name!r}")
        return proc

    def has_callable(self, name: str) -> bool:
        return name in self._callable_index()

    def _callable_index(self) -> Dict[str, Procedure]:
        shape = (
            id(self.procedures),
            len(self.procedures),
            id(self.functions),
            len(self.functions),
        )
        if self._callables is None or self._callables[0] != shape:
            index: Dict[str, Procedure] = {}
            for proc in self.procedures + self.functions:
                index.setdefault(proc.name, proc)
            self._callables = (shape, index)
        return self._callables[1]

    @property
    def main(self) -> Procedure:
        """The entry procedure ``main``."""
        return self.procedure("main")

    @property
    def all_callables(self) -> List[Procedure]:
        return list(self.procedures) + list(self.functions)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def expr_children(expr: Expr) -> Iterator[Expr]:
    """Yield the immediate sub-expressions of ``expr``."""
    if isinstance(expr, FieldAccess):
        yield expr.base
    elif isinstance(expr, BinOp):
        yield expr.left
        yield expr.right
    elif isinstance(expr, UnOp):
        yield expr.operand
    elif isinstance(expr, CallExpr):
        yield from expr.args


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression (pre-order)."""
    yield expr
    for child in expr_children(expr):
        yield from walk_expr(child)


def stmt_children(stmt: Stmt) -> Iterator[Stmt]:
    """Yield the immediate sub-statements of ``stmt``."""
    if isinstance(stmt, Block):
        yield from stmt.stmts
    elif isinstance(stmt, IfStmt):
        yield stmt.then_branch
        if stmt.else_branch is not None:
            yield stmt.else_branch
    elif isinstance(stmt, WhileStmt):
        yield stmt.body
    elif isinstance(stmt, ParallelStmt):
        yield from stmt.branches


def walk_stmt(stmt: Stmt) -> Iterator[Stmt]:
    """Yield ``stmt`` and every nested statement (pre-order)."""
    yield stmt
    for child in stmt_children(stmt):
        yield from walk_stmt(child)


def walk_program_stmts(program: Program) -> Iterator[Tuple[Procedure, Stmt]]:
    """Yield ``(procedure, statement)`` pairs for every statement in a program."""
    for proc in program.all_callables:
        for stmt in walk_stmt(proc.body):
            yield proc, stmt


def stmt_expressions(stmt: Stmt) -> Iterator[Expr]:
    """Yield the expressions directly attached to ``stmt`` (not sub-statements)."""
    if isinstance(stmt, Assign):
        yield stmt.lhs
        yield stmt.rhs
    elif isinstance(stmt, (IfStmt, WhileStmt)):
        yield stmt.cond
    elif isinstance(stmt, ProcCall):
        yield from stmt.args
    elif isinstance(stmt, FuncAssign):
        yield from stmt.args
    elif isinstance(stmt, (StoreValue, ScalarAssign)):
        yield stmt.expr


def names_in_expr(expr: Expr) -> Iterator[str]:
    """Yield every variable name referenced in ``expr``."""
    for sub in walk_expr(expr):
        if isinstance(sub, Name):
            yield sub.ident


def is_basic_handle_stmt(stmt: Stmt) -> bool:
    """True for basic statements that read or write handles/fields.

    These are the statement forms of interest for interference analysis
    (Section 4 of the paper); :class:`ScalarAssign` is a basic statement but
    touches no handle.
    """
    return isinstance(
        stmt,
        (AssignNil, AssignNew, CopyHandle, LoadField, StoreField, LoadValue, StoreValue),
    )


def is_core_stmt(stmt: Stmt) -> bool:
    """True if ``stmt`` is legal in a *normalized* (core) program.

    Core programs contain no surface :class:`Assign` nodes; every assignment
    has been lowered to a basic statement.
    """
    if isinstance(stmt, Assign):
        return False
    return isinstance(
        stmt,
        (
            BasicStmt,
            Block,
            IfStmt,
            WhileStmt,
            ProcCall,
            FuncAssign,
            ParallelStmt,
            SkipStmt,
        ),
    )


def program_is_core(program: Program) -> bool:
    """True if every statement of ``program`` is a core statement."""
    return all(is_core_stmt(stmt) for _, stmt in walk_program_stmts(program))


def count_statements(program: Program) -> int:
    """Total number of statements (all nesting levels) in a program."""
    return sum(1 for _ in walk_program_stmts(program))


def _moved(loc: Optional[SourceLocation], line_offset: int) -> Optional[SourceLocation]:
    if loc is None or not line_offset:
        return loc
    return SourceLocation(loc.line + line_offset, loc.column)


def clone_expr(expr: Expr, line_offset: int = 0) -> Expr:
    """Deep-copy an expression tree, every location ``line_offset`` lines down."""
    loc = _moved(expr.loc, line_offset)
    if isinstance(expr, IntLit):
        return IntLit(loc=loc, value=expr.value)
    if isinstance(expr, NilLit):
        return NilLit(loc=loc)
    if isinstance(expr, NewExpr):
        return NewExpr(loc=loc)
    if isinstance(expr, Name):
        return Name(loc=loc, ident=expr.ident)
    if isinstance(expr, FieldAccess):
        return FieldAccess(
            loc=loc, base=clone_expr(expr.base, line_offset), field_name=expr.field_name
        )
    if isinstance(expr, BinOp):
        return BinOp(
            loc=loc,
            op=expr.op,
            left=clone_expr(expr.left, line_offset),
            right=clone_expr(expr.right, line_offset),
        )
    if isinstance(expr, UnOp):
        return UnOp(loc=loc, op=expr.op, operand=clone_expr(expr.operand, line_offset))
    if isinstance(expr, CallExpr):
        return CallExpr(
            loc=loc, name=expr.name, args=[clone_expr(a, line_offset) for a in expr.args]
        )
    raise TypeError(f"unknown expression node: {expr!r}")


def clone_stmt(stmt: Stmt, line_offset: int = 0) -> Stmt:
    """Deep-copy a statement tree, every location ``line_offset`` lines down."""
    loc = _moved(stmt.loc, line_offset)
    if isinstance(stmt, Block):
        return Block(loc=loc, stmts=[clone_stmt(s, line_offset) for s in stmt.stmts])
    if isinstance(stmt, Assign):
        return Assign(
            loc=loc, lhs=clone_expr(stmt.lhs, line_offset), rhs=clone_expr(stmt.rhs, line_offset)
        )
    if isinstance(stmt, IfStmt):
        return IfStmt(
            loc=loc,
            cond=clone_expr(stmt.cond, line_offset),
            then_branch=clone_stmt(stmt.then_branch, line_offset),
            else_branch=(
                clone_stmt(stmt.else_branch, line_offset)
                if stmt.else_branch is not None
                else None
            ),
        )
    if isinstance(stmt, WhileStmt):
        return WhileStmt(
            loc=loc, cond=clone_expr(stmt.cond, line_offset), body=clone_stmt(stmt.body, line_offset)
        )
    if isinstance(stmt, ProcCall):
        return ProcCall(
            loc=loc, name=stmt.name, args=[clone_expr(a, line_offset) for a in stmt.args]
        )
    if isinstance(stmt, FuncAssign):
        return FuncAssign(
            loc=loc,
            target=stmt.target,
            name=stmt.name,
            args=[clone_expr(a, line_offset) for a in stmt.args],
        )
    if isinstance(stmt, ParallelStmt):
        return ParallelStmt(loc=loc, branches=[clone_stmt(s, line_offset) for s in stmt.branches])
    if isinstance(stmt, SkipStmt):
        return SkipStmt(loc=loc)
    if isinstance(stmt, AssignNil):
        return AssignNil(loc=loc, target=stmt.target)
    if isinstance(stmt, AssignNew):
        return AssignNew(loc=loc, target=stmt.target)
    if isinstance(stmt, CopyHandle):
        return CopyHandle(loc=loc, target=stmt.target, source=stmt.source)
    if isinstance(stmt, LoadField):
        return LoadField(loc=loc, target=stmt.target, source=stmt.source, field_name=stmt.field_name)
    if isinstance(stmt, StoreField):
        return StoreField(loc=loc, target=stmt.target, field_name=stmt.field_name, source=stmt.source)
    if isinstance(stmt, LoadValue):
        return LoadValue(loc=loc, target=stmt.target, source=stmt.source)
    if isinstance(stmt, StoreValue):
        return StoreValue(loc=loc, target=stmt.target, expr=clone_expr(stmt.expr, line_offset))
    if isinstance(stmt, ScalarAssign):
        return ScalarAssign(loc=loc, target=stmt.target, expr=clone_expr(stmt.expr, line_offset))
    raise TypeError(f"unknown statement node: {stmt!r}")


def clone_procedure(proc: Procedure, line_offset: int = 0) -> Procedure:
    """Deep-copy a procedure or function, every location ``line_offset`` lines down."""
    params = [VarDecl(loc=_moved(p.loc, line_offset), name=p.name, type=p.type) for p in proc.params]
    locals_ = [VarDecl(loc=_moved(v.loc, line_offset), name=v.name, type=v.type) for v in proc.locals]
    body = clone_stmt(proc.body, line_offset)
    assert isinstance(body, Block)
    loc = _moved(proc.loc, line_offset)
    if isinstance(proc, Function):
        return Function(
            loc=loc,
            name=proc.name,
            params=params,
            locals=locals_,
            body=body,
            return_type=proc.return_type,
            return_var=proc.return_var,
        )
    return Procedure(loc=loc, name=proc.name, params=params, locals=locals_, body=body)


def clone_program(program: Program) -> Program:
    """Deep-copy an entire program."""
    return Program(
        loc=program.loc,
        name=program.name,
        procedures=[clone_procedure(p) for p in program.procedures],
        functions=[clone_procedure(f) for f in program.functions],  # type: ignore[list-item]
    )
