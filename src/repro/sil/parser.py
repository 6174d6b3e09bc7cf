"""Recursive-descent parser for SIL.

The grammar follows the abstract syntax of Figure 1 of the paper with a
Pascal-flavoured concrete syntax::

    program add_and_reverse

    procedure main()
      root, lside, rside: handle; i: int
    begin
      lside := root.left;
      rside := root.right;
      add_n(lside, 1);
      add_n(rside, -1);
      reverse(root)
    end

    procedure add_n(h: handle; n: int)
      l, r: handle
    begin
      if h <> nil then
      begin
        h.value := h.value + n;
        l := h.left;
        r := h.right;
        add_n(l, n);
        add_n(r, n)
      end
    end

Functions add a return type and a trailing ``return (ident)`` clause::

    function sum(h: handle): int
      s, ls, rs: int; l, r: handle
    begin ... end
    return (s)

Parallel statements use ``||``::

    l := h.left || r := h.right;

The parser produces *surface* ASTs (arbitrary :class:`~repro.sil.ast.Assign`
nodes); use :mod:`repro.sil.normalize` to lower them to basic handle
statements before running the analysis or the interpreter.  Input nested
deeper than :data:`MAX_NESTING_DEPTH` is refused with a :class:`ParseError`.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import ParseError
from .lexer import Token, TokenKind, tokenize

_FIELD_NAMES = {"left": ast.Field.LEFT, "right": ast.Field.RIGHT, "value": ast.Field.VALUE}

#: Binding power of each binary operator: a higher power binds tighter.
#: ``not`` binds between ``and`` and the relations, unary minus tighter than
#: any binary operator, and the relations do not associate.
_NOT_POWER = 3
_RELATION_POWER = 4
_UNARY_POWER = 7
_BINARY_POWER = {
    "or": 1,
    "and": 2,
    **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), _RELATION_POWER),
    "+": 5,
    "-": 5,
    "*": 6,
    "div": 6,
    "mod": 6,
}

#: The deepest nesting the parser accepts, in levels of the parsed tree.  A
#: procedure body is level 1; each nested statement, each parenthesised,
#: ``not`` or unary-minus operand, each argument list, and each operator or
#: ``.field`` of a left-associative chain adds one.  The parser takes at
#: most three frames per level, and so do the later passes (normalize,
#: typecheck, both engines, the printer), which walk the tree recursively:
#: at the cap the hungriest needs about 200 frames, a fifth of the
#: interpreter's default recursion limit.  ``tests/test_parser.py`` runs
#: every nesting shape at the cap within half that limit.  The deepest
#: program in the corpora is 10 levels.
MAX_NESTING_DEPTH = 64


class Parser:
    """Parses a token stream into a :class:`~repro.sil.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0
        #: Tree level of the construct being parsed (see MAX_NESTING_DEPTH).
        self.depth = 1
        #: Deepest level reached since the current :meth:`_enter` scope
        #: began; a chain operator pushes all of it one level down.
        self.peak = 1

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self.current
        return ParseError(f"{message} (found {token})", token.location)

    def _expect_symbol(self, symbol: str) -> Token:
        if not self.current.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise self._error(f"expected keyword {word!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise self._error("expected identifier")
        return self._advance()

    def _accept_symbol(self, symbol: str) -> bool:
        if self.current.is_symbol(symbol):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Nesting depth
    # ------------------------------------------------------------------

    def _enter(self, token: Token) -> int:
        """Open a child scope one tree level down, starting at ``token``.

        Returns the enclosing scope's peak for :meth:`_leave`.  No frame
        stays on the stack while the child is parsed.
        """
        self.depth += 1
        self._check(self.depth, token)
        outer, self.peak = self.peak, self.depth
        return outer

    def _leave(self, outer: int) -> None:
        self.depth -= 1
        if outer > self.peak:
            self.peak = outer

    def _sink(self, token: Token) -> None:
        """Push everything parsed in this scope one level down, under ``token``."""
        self.peak += 1
        self._check(self.peak, token)

    def _check(self, level: int, token: Token) -> None:
        if level > MAX_NESTING_DEPTH:
            raise self._error(
                f"nesting deeper than the maximum of {MAX_NESTING_DEPTH} levels", token
            )

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        loc = self.current.location
        self._expect_keyword("program")
        name = self._expect_ident().text
        self._accept_symbol(";")

        procedures: List[ast.Procedure] = []
        functions: List[ast.Function] = []
        for proc in self.parse_callables():
            (functions if isinstance(proc, ast.Function) else procedures).append(proc)

        program = ast.Program(name=name, procedures=procedures, functions=functions, loc=loc)
        try:
            program.procedure("main")
        except KeyError:
            raise ParseError("program has no procedure 'main'", loc) from None
        return program

    def parse_callables(self) -> List[ast.Procedure]:
        """Procedures and functions up to the end of input, in source order.

        Each may be followed by one ``;``.
        """
        callables: List[ast.Procedure] = []
        while not self.current.kind is TokenKind.EOF:
            if self.current.is_keyword("procedure"):
                callables.append(self.parse_procedure())
            elif self.current.is_keyword("function"):
                callables.append(self.parse_function())
            else:
                raise self._error("expected 'procedure' or 'function'")
            self._accept_symbol(";")
        return callables

    def parse_procedure(self) -> ast.Procedure:
        loc = self.current.location
        self._expect_keyword("procedure")
        name = self._expect_ident().text
        params = self._parse_param_list()
        self._accept_symbol(";")
        locals_ = self._parse_local_decls()
        body = self.parse_block()
        return ast.Procedure(name=name, params=params, locals=locals_, body=body, loc=loc)

    def parse_function(self) -> ast.Function:
        loc = self.current.location
        self._expect_keyword("function")
        name = self._expect_ident().text
        params = self._parse_param_list()
        self._expect_symbol(":")
        return_type = self._parse_type()
        self._accept_symbol(";")
        locals_ = self._parse_local_decls()
        body = self.parse_block()
        self._expect_keyword("return")
        self._expect_symbol("(")
        return_var = self._expect_ident().text
        self._expect_symbol(")")
        return ast.Function(
            name=name,
            params=params,
            locals=locals_,
            body=body,
            return_type=return_type,
            return_var=return_var,
            loc=loc,
        )

    def _parse_type(self) -> ast.SilType:
        if self._accept_keyword("int"):
            return ast.SilType.INT
        if self._accept_keyword("handle"):
            return ast.SilType.HANDLE
        raise self._error("expected a type ('int' or 'handle')")

    def _parse_decl_group(self) -> List[ast.VarDecl]:
        names: List[Token] = [self._expect_ident()]
        while self._accept_symbol(","):
            names.append(self._expect_ident())
        self._expect_symbol(":")
        decl_type = self._parse_type()
        return [ast.VarDecl(name=t.text, type=decl_type, loc=t.location) for t in names]

    def _parse_param_list(self) -> List[ast.VarDecl]:
        self._expect_symbol("(")
        params: List[ast.VarDecl] = []
        if not self.current.is_symbol(")"):
            params.extend(self._parse_decl_group())
            while self._accept_symbol(";"):
                params.extend(self._parse_decl_group())
        self._expect_symbol(")")
        return params

    def _parse_local_decls(self) -> List[ast.VarDecl]:
        locals_: List[ast.VarDecl] = []
        while self.current.kind is TokenKind.IDENT:
            locals_.extend(self._parse_decl_group())
            self._accept_symbol(";")
        return locals_

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        loc = self.current.location
        self._expect_keyword("begin")
        stmts: List[ast.Stmt] = []
        while not self.current.is_keyword("end"):
            if self.current.kind is TokenKind.EOF:
                raise self._error("unexpected end of input inside block")
            stmts.append(self.parse_statement())
            if not self._accept_symbol(";"):
                break
        self._expect_keyword("end")
        return ast.Block(stmts=stmts, loc=loc)

    def parse_statement(self) -> ast.Stmt:
        """Parse a statement one tree level down, combining ``||``-separated branches."""
        outer = self._enter(self.current)
        stmt = self.parse_simple_statement()
        if self.current.is_symbol("||"):
            self._sink(self.current)
            branches = [stmt]
            while self.current.is_symbol("||"):
                branch = self._enter(self._advance())
                branches.append(self.parse_simple_statement())
                self._leave(branch)
            stmt = ast.ParallelStmt(branches=branches, loc=stmt.loc)
        self._leave(outer)
        return stmt

    def parse_simple_statement(self) -> ast.Stmt:
        token = self.current
        if token.is_keyword("begin"):
            return self.parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("skip"):
            self._advance()
            return ast.SkipStmt(loc=token.location)
        if token.kind is TokenKind.IDENT:
            return self._parse_call_or_assignment()
        raise self._error("expected a statement")

    def _parse_if(self) -> ast.IfStmt:
        loc = self._expect_keyword("if").location
        cond = self._parse_expression()
        self._expect_keyword("then")
        then_branch = self.parse_statement()
        else_branch: Optional[ast.Stmt] = None
        if self._accept_keyword("else"):
            else_branch = self.parse_statement()
        return ast.IfStmt(cond=cond, then_branch=then_branch, else_branch=else_branch, loc=loc)

    def _parse_while(self) -> ast.WhileStmt:
        loc = self._expect_keyword("while").location
        cond = self._parse_expression()
        self._expect_keyword("do")
        body = self.parse_statement()
        return ast.WhileStmt(cond=cond, body=body, loc=loc)

    def _parse_call_or_assignment(self) -> ast.Stmt:
        name_token = self._expect_ident()
        loc = name_token.location

        # Procedure call:  ident ( args )
        if self.current.is_symbol("("):
            args = self._parse_arguments()
            return ast.ProcCall(name=name_token.text, args=args, loc=loc)

        # Assignment:  ident {.field} := expr.  The target sits one level
        # below the statement.
        self._sink(name_token)
        lhs = self._parse_fields(ast.Name(name_token.text, loc=loc))
        self._expect_symbol(":=")
        rhs = self._parse_expression()
        return ast.Assign(lhs=lhs, rhs=rhs, loc=loc)

    def _parse_field_name(self) -> ast.Field:
        token = self.current
        if token.kind is TokenKind.IDENT and token.text in _FIELD_NAMES:
            self._advance()
            return _FIELD_NAMES[token.text]
        raise self._error("expected a field name ('left', 'right' or 'value')")

    def _parse_arguments(self) -> List[ast.Expr]:
        self._expect_symbol("(")
        args: List[ast.Expr] = []
        if not self.current.is_symbol(")"):
            args.append(self._parse_expression())
            while self._accept_symbol(","):
                args.append(self._parse_expression())
        self._expect_symbol(")")
        return args

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_expression()

    def _parse_expression(self, power: int = 1) -> ast.Expr:
        """Parse an expression one tree level down, by precedence climbing.

        Only binary operators of at least ``power`` are taken.  They loop
        into a left-deep tree instead of recursing, but every later pass
        walks that tree, so each operator sinks everything parsed so far
        one level down, beside its right operand.  ``ceiling`` refuses an
        operator the grammar cannot continue with: a second relation, or a
        relation after a ``not`` operand.
        """
        outer = self._enter(self.current)
        token = self.current
        if token.is_keyword("not") and power <= _NOT_POWER:
            self._advance()
            operand = self._parse_expression(_NOT_POWER)
            expr: ast.Expr = ast.UnOp("not", operand, loc=token.location)
            ceiling = _NOT_POWER - 1
        else:
            expr = self._parse_operand()
            ceiling = _UNARY_POWER
        while power <= _BINARY_POWER.get(self.current.text, 0) <= ceiling:
            op = self._advance()
            self._sink(op)
            op_power = _BINARY_POWER[op.text]
            expr = ast.BinOp(op.text, expr, self._parse_expression(op_power + 1), loc=op.location)
            ceiling = op_power - 1 if op_power == _RELATION_POWER else op_power
        self._leave(outer)
        return expr

    def _parse_operand(self) -> ast.Expr:
        """A unary minus, or a primary followed by its ``.field`` accesses."""
        token = self._advance()
        if token.is_symbol("-"):
            operand = self._parse_expression(_UNARY_POWER)
            if isinstance(operand, ast.IntLit):
                return ast.IntLit(-operand.value, loc=token.location)
            return ast.UnOp("-", operand, loc=token.location)
        if token.kind is TokenKind.INT:
            expr: ast.Expr = ast.IntLit(int(token.text), loc=token.location)
        elif token.is_keyword("nil"):
            expr = ast.NilLit(loc=token.location)
        elif token.is_keyword("new"):
            self._expect_symbol("(")
            self._expect_symbol(")")
            expr = ast.NewExpr(loc=token.location)
        elif token.kind is TokenKind.IDENT and self.current.is_symbol("("):
            expr = ast.CallExpr(token.text, self._parse_arguments(), loc=token.location)
        elif token.kind is TokenKind.IDENT:
            expr = ast.Name(token.text, loc=token.location)
        elif token.is_symbol("("):
            expr = self._parse_expression()
            self._expect_symbol(")")
        else:
            raise self._error("expected an expression", token)
        return self._parse_fields(expr)

    def _parse_fields(self, expr: ast.Expr) -> ast.Expr:
        """``expr {.field}``: each field sinks the access built so far."""
        while self.current.is_symbol("."):
            self._sink(self._advance())
            expr = ast.FieldAccess(expr, self._parse_field_name(), loc=expr.loc)
        return expr

def parse_program(source: str) -> ast.Program:
    """Parse SIL source text into a (surface) :class:`~repro.sil.ast.Program`."""
    parser = Parser(tokenize(source))
    program = parser.parse_program()
    if parser.current.kind is not TokenKind.EOF:
        raise parser._error("unexpected trailing input")
    return program


def parse_statement(source: str) -> ast.Stmt:
    """Parse a single SIL statement (handy for tests and examples)."""
    parser = Parser(tokenize(source))
    stmt = parser.parse_statement()
    parser._accept_symbol(";")
    if parser.current.kind is not TokenKind.EOF:
        raise parser._error("unexpected trailing input after statement")
    return stmt


def parse_expression(source: str) -> ast.Expr:
    """Parse a single SIL expression."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    if parser.current.kind is not TokenKind.EOF:
        raise parser._error("unexpected trailing input after expression")
    return expr
