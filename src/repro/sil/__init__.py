"""SIL — the Structured Imperative Language of Hendren & Nicolau (1989).

This package contains the complete front end: AST (:mod:`repro.sil.ast`),
lexer, parser, type checker, normalizer (lowering to basic handle
statements), pretty printer and a programmatic builder API.
"""

from . import ast, builder
from .delta import (
    ProcedureDelta,
    ProgramDelta,
    call_graph,
    diff_programs,
    dirty_seed,
    program_identities,
    reverse_call_graph,
    statement_identity,
    statement_label,
    statement_rebase_map,
)
from .errors import (
    LexError,
    NormalizationError,
    ParseError,
    SilError,
    SilRuntimeError,
    SourceLocation,
    StructureViolation,
    TypeCheckError,
)
from .lexer import Token, TokenKind, tokenize
from .normalize import normalize_program, parse_and_normalize
from .parser import parse_expression, parse_program, parse_statement
from .printer import format_expr, format_procedure, format_program, format_stmt
from .typecheck import ExprType, ProcedureTypes, TypeChecker, TypeInfo, check_program

__all__ = [
    "ast",
    "builder",
    "SilError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "NormalizationError",
    "SilRuntimeError",
    "StructureViolation",
    "SourceLocation",
    "Token",
    "TokenKind",
    "tokenize",
    "parse_program",
    "parse_statement",
    "parse_expression",
    "check_program",
    "TypeChecker",
    "TypeInfo",
    "ProcedureTypes",
    "ExprType",
    "normalize_program",
    "parse_and_normalize",
    "format_expr",
    "format_stmt",
    "format_procedure",
    "format_program",
    "ProcedureDelta",
    "ProgramDelta",
    "diff_programs",
    "dirty_seed",
    "call_graph",
    "reverse_call_graph",
    "program_identities",
    "statement_identity",
    "statement_label",
    "statement_rebase_map",
]
