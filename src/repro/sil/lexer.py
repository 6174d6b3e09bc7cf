"""Lexer for SIL source text.

The concrete syntax follows the paper's examples (Pascal-flavoured):
``{ ... }`` braces delimit comments, keywords are lower-case, ``:=`` is the
assignment symbol and ``||`` separates the branches of a parallel statement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional

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


@dataclass(frozen=True)
class Token:
    """A single lexical token."""

    kind: TokenKind
    text: str
    location: SourceLocation

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_symbol(self, symbol: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text == symbol

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text


class Lexer:
    """Converts SIL source text into a list of :class:`Token`."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level helpers -------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "{":
                start = self._location()
                self._advance()
                while self.pos < len(self.source) and self._peek() != "}":
                    self._advance()
                if self.pos >= len(self.source):
                    raise LexError("unterminated comment", start)
                self._advance()  # consume '}'
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    # -- tokenization ------------------------------------------------------

    def tokens(self) -> List[Token]:
        """Tokenize the entire source, ending with a single EOF token."""
        result: List[Token] = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.kind is TokenKind.EOF:
                return result

    def next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        loc = self._location()
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", loc)

        ch = self._peek()

        if ch.isalpha() or ch == "_":
            start = self.pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            text = self.source[start : self.pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            return Token(kind, text, loc)

        # isdecimal, not isdigit: int() accepts every decimal digit (so
        # Arabic-Indic digits lex as numbers) but no other digit ('²').
        if ch.isdecimal():
            start = self.pos
            while self._peek().isdecimal():
                self._advance()
            return Token(TokenKind.INT, self.source[start : self.pos], loc)

        for symbol in SYMBOLS:
            if self.source.startswith(symbol, self.pos):
                self._advance(len(symbol))
                text = "<>" if symbol == "!=" else symbol
                return Token(TokenKind.SYMBOL, text, loc)

        raise LexError(f"unexpected character {ch!r}", loc)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list of tokens (ending with EOF)."""
    return Lexer(source).tokens()
