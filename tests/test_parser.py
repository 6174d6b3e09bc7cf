"""Unit tests for the SIL parser."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sil import ast
from repro.sil.errors import ParseError
from repro.sil.parser import (
    MAX_NESTING_DEPTH,
    parse_expression,
    parse_program,
    parse_statement,
)

MINIMAL = """
program p
procedure main()
begin
end
"""


class TestProgramStructure:
    def test_minimal_program(self):
        program = parse_program(MINIMAL)
        assert program.name == "p"
        assert program.main.name == "main"
        assert program.main.body.stmts == []

    def test_program_without_main_is_rejected(self):
        with pytest.raises(ParseError):
            parse_program("program p procedure other() begin end")

    def test_procedure_parameters_grouped_by_type(self):
        program = parse_program(
            "program p procedure main() begin end "
            "procedure q(a, b: handle; n: int) begin end"
        )
        q = program.procedure("q")
        assert [p.name for p in q.params] == ["a", "b", "n"]
        assert [p.type for p in q.params] == [
            ast.SilType.HANDLE,
            ast.SilType.HANDLE,
            ast.SilType.INT,
        ]

    def test_locals_declared_before_begin(self):
        program = parse_program(
            "program p procedure main() x, y: int; h: handle begin end"
        )
        main = program.main
        assert main.local_names == ["x", "y", "h"]
        assert main.declared_type("h") is ast.SilType.HANDLE

    def test_function_with_return_clause(self):
        program = parse_program(
            "program p procedure main() begin end "
            "function f(n: int): int r: int begin r := n end return (r)"
        )
        f = program.function("f")
        assert isinstance(f, ast.Function)
        assert f.return_type is ast.SilType.INT
        assert f.return_var == "r"

    def test_handle_returning_function(self):
        program = parse_program(
            "program p procedure main() begin end "
            "function mk(): handle t: handle begin t := new() end return (t)"
        )
        assert program.function("mk").return_type is ast.SilType.HANDLE

    def test_lookup_of_missing_procedure_raises(self):
        program = parse_program(MINIMAL)
        with pytest.raises(KeyError):
            program.procedure("nope")
        assert not program.has_callable("nope")

    def test_lookup_keeps_first_match_among_duplicates(self):
        # The type checker rejects duplicate names, but lookups on the
        # parsed program still answer procedures first, then the first of
        # two same-named callables.
        program = parse_program(
            "program p procedure main() begin end "
            "procedure dup() begin end "
            "procedure dup(n: int) begin end "
            "function dup(): int r: int begin r := 0 end return (r) "
            "function only(): int r: int begin r := 1 end return (r) "
            "function only(n: int): int r: int begin r := n end return (r)"
        )
        assert program.callable("dup") is program.procedures[1]
        assert program.callable("dup").params == []
        assert program.callable("only") is program.functions[1]
        assert program.function("dup") is program.functions[0]
        assert program.has_callable("dup") and program.has_callable("only")
        with pytest.raises(KeyError, match="no procedure or function named 'nope'"):
            program.callable("nope")

    def test_lookup_follows_a_replaced_or_extended_list(self):
        program = parse_program(
            "program p procedure main() begin end procedure a() begin end"
        )
        assert program.callable("a") is program.procedures[1]
        program.procedures = program.procedures[:1]
        assert not program.has_callable("a")
        added = parse_program(
            "program q procedure main() begin end function a(): int r: int "
            "begin r := 0 end return (r)"
        ).functions[0]
        program.functions.append(added)
        assert program.callable("a") is added


class TestStatements:
    def test_simple_assignment(self):
        stmt = parse_statement("a := b")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.lhs, ast.Name) and stmt.lhs.ident == "a"
        assert isinstance(stmt.rhs, ast.Name) and stmt.rhs.ident == "b"

    def test_field_assignment_lhs_chain(self):
        stmt = parse_statement("a.left.right := nil")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.lhs, ast.FieldAccess)
        assert stmt.lhs.field_name is ast.Field.RIGHT
        assert isinstance(stmt.lhs.base, ast.FieldAccess)
        assert stmt.lhs.base.field_name is ast.Field.LEFT

    def test_new_assignment(self):
        stmt = parse_statement("a := new()")
        assert isinstance(stmt.rhs, ast.NewExpr)

    def test_procedure_call(self):
        stmt = parse_statement("add_n(lside, 1)")
        assert isinstance(stmt, ast.ProcCall)
        assert stmt.name == "add_n"
        assert len(stmt.args) == 2

    def test_call_with_no_arguments(self):
        stmt = parse_statement("tick()")
        assert isinstance(stmt, ast.ProcCall)
        assert stmt.args == []

    def test_if_then_else(self):
        stmt = parse_statement("if h <> nil then x := 1 else x := 2")
        assert isinstance(stmt, ast.IfStmt)
        assert isinstance(stmt.then_branch, ast.Assign)
        assert isinstance(stmt.else_branch, ast.Assign)

    def test_dangling_else_binds_to_nearest_if(self):
        stmt = parse_statement("if a > 0 then if b > 0 then x := 1 else x := 2")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_branch is None
        inner = stmt.then_branch
        assert isinstance(inner, ast.IfStmt)
        assert inner.else_branch is not None

    def test_while_loop(self):
        stmt = parse_statement("while l.left <> nil do l := l.left")
        assert isinstance(stmt, ast.WhileStmt)
        assert isinstance(stmt.body, ast.Assign)

    def test_nested_blocks(self):
        stmt = parse_statement("begin x := 1; begin y := 2 end; z := 3 end")
        assert isinstance(stmt, ast.Block)
        assert len(stmt.stmts) == 3
        assert isinstance(stmt.stmts[1], ast.Block)

    def test_trailing_semicolon_allowed(self):
        stmt = parse_statement("begin x := 1; y := 2; end")
        assert isinstance(stmt, ast.Block)
        assert len(stmt.stmts) == 2

    def test_skip_statement(self):
        assert isinstance(parse_statement("skip"), ast.SkipStmt)

    def test_parallel_statement(self):
        stmt = parse_statement("l := h.left || r := h.right || add_n(l, 1)")
        assert isinstance(stmt, ast.ParallelStmt)
        assert len(stmt.branches) == 3
        assert isinstance(stmt.branches[2], ast.ProcCall)

    def test_statement_error_reports_location(self):
        with pytest.raises(ParseError):
            parse_statement("if then")


class TestExpressions:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.BinOp) and expr.left.op == "+"

    def test_comparison_with_nil(self):
        expr = parse_expression("h <> nil")
        assert expr.op == "<>"
        assert isinstance(expr.right, ast.NilLit)

    def test_boolean_connectives(self):
        expr = parse_expression("a > 0 and not (b = 0) or c < 1")
        assert expr.op == "or"
        assert expr.left.op == "and"
        assert isinstance(expr.left.right, ast.UnOp)

    def test_negative_literal_folded(self):
        expr = parse_expression("-5")
        assert isinstance(expr, ast.IntLit)
        assert expr.value == -5

    def test_unary_minus_on_variable(self):
        expr = parse_expression("-x")
        assert isinstance(expr, ast.UnOp) and expr.op == "-"

    def test_field_access_chain_expression(self):
        expr = parse_expression("a.left.right.value")
        assert isinstance(expr, ast.FieldAccess)
        assert expr.field_name is ast.Field.VALUE

    def test_function_call_expression(self):
        expr = parse_expression("build(d - 1)")
        assert isinstance(expr, ast.CallExpr)
        assert expr.name == "build"

    def test_div_and_mod_keywords(self):
        expr = parse_expression("a div 2 mod 3")
        assert expr.op == "mod"
        assert expr.left.op == "div"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra")

    def test_bad_field_name_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("a.middle := b")


class TestFigure7Program:
    """The running example of the paper parses into the expected shape."""

    def test_add_and_reverse_parses(self):
        from repro.workloads import source

        program = parse_program(source("add_and_reverse", depth=3))
        assert {p.name for p in program.procedures} == {"main", "add_n", "reverse"}
        assert {f.name for f in program.functions} == {"build"}
        add_n = program.procedure("add_n")
        assert add_n.handle_params == ["h"]
        # Body: a single if statement guarding the recursive case.
        assert len(add_n.body.stmts) == 1
        assert isinstance(add_n.body.stmts[0], ast.IfStmt)


def _statements(level):
    # if-then-begin nests two levels; a last bare block makes it odd.
    ifs, odd = divmod(level - 2, 2)
    inner = "begin skip end" if odd else "skip"
    return "if a <> nil then begin " * ifs + inner + " end" * ifs


def _mix(level):
    # A while-do-begin nest around an if whose condition and branch
    # descend through not, parentheses, unary minus and a + chain.
    loops, odd = divmod(level - 8, 2)
    chain = " + ".join(str(term) for term in range(3 + odd))
    body = f"if not (a = nil) then i := -({chain})"
    return "while a <> nil do begin " * loops + body + " end" * loops


#: One statement of ``main`` (tree level 2) whose deepest node sits at the
#: given level, per nesting shape.
DEEP_SHAPES = {
    "statements": _statements,
    "parentheses": lambda level: "i := " + "(" * (level - 3) + "1" + ")" * (level - 3),
    "not": lambda level: "if " + "not " * (level - 4) + "a = nil then skip",
    "minus": lambda level: "i := " + "- " * (level - 3) + "i",
    "plus": lambda level: "i := 1" + " + 1" * (level - 3),
    "fields": lambda level: "a := b" + ".left" * (level - 3),
    "calls": lambda level: "i := " + "f(" * (level - 3) + "1" + ")" * (level - 3),
    "call_arguments": lambda level: "p(" + "f(" * (level - 3) + "i" + ")" * (level - 3) + ")",
    "mix": _mix,
}


def deep_program(shape, level):
    # The shallow chain after the deep statement must not add to its depth.
    return (
        "program deep\n\nprocedure main()\n  a, b: handle; i: int\nbegin\n"
        f"  a := new();\n  b := new();\n  {DEEP_SHAPES[shape](level)};\n  i := i + 1\nend\n\n"
        "function f(n: int): int\nbegin\n  n := n + 1\nend\nreturn (n)\n\n"
        "procedure p(n: int)\nbegin\n  skip\nend\n"
    )


#: Runs in a fresh interpreter on a worker thread at half the default
#: recursion limit, so a program at the cap leaves callers at least half the
#: stack: the whole front end, both engines and a print round trip.
_AT_CAP_CHECK = """
import json, sys, threading
sys.setrecursionlimit(sys.getrecursionlimit() // 2)
from repro.analysis import analyze_program, analyze_program_reference
from repro.sil.normalize import parse_and_normalize
from repro.sil.parser import parse_program
from repro.sil.printer import format_program

def check(source):
    program, info = parse_and_normalize(source)
    if analyze_program(program, info).canonical() != analyze_program_reference(program, info).canonical():
        return "engines disagree"
    printed = format_program(parse_program(source))
    if format_program(parse_program(printed)) != printed:
        return "print round trip changed the program"
    return "ok"

def run(sources, results):
    for shape, source in sources.items():
        try:
            results[shape] = check(source)
        except Exception as error:
            results[shape] = f"{type(error).__name__}: {error}"

results = {}
worker = threading.Thread(target=run, args=(json.load(sys.stdin), results))
worker.start()
worker.join()
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def at_cap_results():
    sources = {shape: deep_program(shape, MAX_NESTING_DEPTH) for shape in DEEP_SHAPES}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _AT_CAP_CHECK],
        input=json.dumps(sources),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestNestingCap:
    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_cap_holds_at_half_the_default_recursion_limit(self, shape, at_cap_results):
        assert at_cap_results[shape] == "ok"
        with pytest.raises(ParseError) as excinfo:
            parse_program(deep_program(shape, MAX_NESTING_DEPTH + 1))
        assert f"maximum of {MAX_NESTING_DEPTH} levels" in str(excinfo.value)
