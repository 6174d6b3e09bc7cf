"""Error types used across the SIL front end.

Every diagnostic produced while lexing, parsing, type checking or
normalizing a SIL program is an instance of (a subclass of)
:class:`SilError`.  Errors carry an optional source location so that test
and example code can assert on *where* a problem was reported, not just
that one was reported.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class SourceLocation(NamedTuple):
    """A position in a SIL source text (1-based line and column).

    A named tuple: the lexer builds one per token, and a tuple is the
    cheapest immutable, hashable record to build.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class SilError(Exception):
    """Base class for all SIL front-end errors."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.message = message
        self.location = location
        if location is not None:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)


class LexError(SilError):
    """Raised when the lexer encounters an unrecognised character."""


class ParseError(SilError):
    """Raised when the parser encounters a malformed construct."""


class TypeCheckError(SilError):
    """Raised when a SIL program violates the (two-type) type system."""


class NormalizationError(SilError):
    """Raised when a program cannot be lowered to basic handle statements."""


class SilRuntimeError(Exception):
    """Raised by the interpreter for dynamic errors (nil dereference, ...)."""

    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


class StructureViolation(SilRuntimeError):
    """Raised/recorded when a program destroys the declared TREE/DAG shape."""
