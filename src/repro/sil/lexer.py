"""Lexer for SIL source text.

The concrete syntax follows the paper's examples (Pascal-flavoured):
``{ ... }`` braces delimit comments, keywords are lower-case, ``:=`` is the
assignment symbol and ``||`` separates the branches of a parallel statement.

:func:`tokenize` reads the text with one compiled pattern matched at each
position in turn.  Only the skipped runs of whitespace and comments can hold
a newline, so the lexer counts lines there and derives each token's column
from its offset into the current line.
"""

from __future__ import annotations

import enum
import re
from typing import List

from .errors import LexError, SourceLocation


class TokenKind(enum.Enum):
    IDENT = "identifier"
    INT = "integer"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "end of input"


KEYWORDS = frozenset(
    {
        "program",
        "procedure",
        "function",
        "begin",
        "end",
        "if",
        "then",
        "else",
        "while",
        "do",
        "return",
        "nil",
        "new",
        "int",
        "handle",
        "and",
        "or",
        "not",
        "div",
        "mod",
        "skip",
    }
)

#: Multi-character symbols must be listed before their prefixes.
SYMBOLS = (
    ":=",
    "||",
    "<=",
    ">=",
    "<>",
    "!=",
    "(",
    ")",
    ",",
    ";",
    ":",
    ".",
    "+",
    "-",
    "*",
    "=",
    "<",
    ">",
)

#: One token, or one run of whitespace and comments, at the match position.
#: ``\w`` is ``str.isalnum()`` or ``_`` and ``\d`` is ``str.isdecimal()``:
#: the digits ``int()`` accepts, so Arabic-Indic digits lex as numbers but
#: ``'²'`` does not.  ``[^\W\d]`` also admits non-decimal digits and
#: numerics such as ``'²'`` and ``'½'``; :func:`tokenize` refuses a word
#: that does not start with ``str.isalpha()`` or ``_``.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|\{[^}]*\}|//[^\n]*)+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<int>\d+)"
    r"|(?P<symbol>" + "|".join(re.escape(symbol) for symbol in SYMBOLS) + ")"
)
#: ``Match.lastindex`` of each alternative but the last (a symbol).
_SKIP, _WORD, _INT = 1, 2, 3


class Token:
    """A single lexical token."""

    __slots__ = ("kind", "text", "location")

    def __init__(self, kind: TokenKind, text: str, location: SourceLocation):
        self.kind = kind
        self.text = text
        self.location = location

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_symbol(self, symbol: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text == symbol

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text


def tokenize(source: str, pos: int = 0, line: int = 1, line_start: int = 0) -> List[Token]:
    """Tokenize ``source`` into a list of tokens (ending with EOF).

    Lexing starts at offset ``pos``, which lies on line ``line``; that line
    starts at offset ``line_start``.  The defaults lex the whole text.
    """
    match = _TOKEN.match
    tokens: List[Token] = []
    append = tokens.append
    end = len(source)
    while pos < end:
        found = match(source, pos)
        if found is None:
            location = SourceLocation(line, pos - line_start + 1)
            if source[pos] == "{":
                raise LexError("unterminated comment", location)
            raise LexError(f"unexpected character {source[pos]!r}", location)
        text = found.group()
        kind = found.lastindex
        if kind == _SKIP:
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rindex("\n") + 1
        else:
            location = SourceLocation(line, pos - line_start + 1)
            if kind == _WORD:
                if not (text[0].isalpha() or text[0] == "_"):
                    raise LexError(f"unexpected character {text[0]!r}", location)
                append(Token(
                    TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                    text,
                    location,
                ))
            elif kind == _INT:
                append(Token(TokenKind.INT, text, location))
            else:
                append(Token(TokenKind.SYMBOL, "<>" if text == "!=" else text, location))
        pos = found.end()
    append(Token(TokenKind.EOF, "", SourceLocation(line, pos - line_start + 1)))
    return tokens
