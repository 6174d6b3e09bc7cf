"""Unit tests for the SIL lexer."""

import random

import pytest

from repro.sil.errors import LexError, SourceLocation
from repro.sil.lexer import KEYWORDS, SYMBOLS, Token, TokenKind, tokenize
from repro.sil.parser import parse_program


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_empty_source_gives_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("program foo begin end")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.KEYWORD,
        ]

    def test_integer_literal(self):
        tokens = tokenize("12345")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].text == "12345"

    def test_identifier_with_underscore_and_digits(self):
        tokens = tokenize("add_n2")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "add_n2"

    def test_field_names_are_identifiers_not_keywords(self):
        for name in ("left", "right", "value"):
            assert tokenize(name)[0].kind is TokenKind.IDENT

    def test_all_keywords_recognised(self):
        for word in ("procedure", "function", "if", "then", "else", "while", "do",
                     "nil", "new", "int", "handle", "and", "or", "not", "div", "mod",
                     "return", "skip"):
            assert tokenize(word)[0].kind is TokenKind.KEYWORD, word


class TestSymbols:
    def test_assignment_symbol(self):
        assert texts("a := b") == ["a", ":=", "b"]

    def test_parallel_symbol(self):
        assert texts("a || b") == ["a", "||", "b"]

    def test_comparison_symbols(self):
        assert texts("< <= > >= = <>") == ["<", "<=", ">", ">=", "=", "<>"]

    def test_not_equal_alias(self):
        # != is accepted and normalized to <>.
        assert texts("a != b") == ["a", "<>", "b"]

    def test_colon_is_distinct_from_assign(self):
        assert texts("x: int") == ["x", ":", "int"]

    def test_field_access_dots(self):
        assert texts("a.left.right") == ["a", ".", "left", ".", "right"]

    def test_arithmetic_symbols(self):
        assert texts("1 + 2 * 3 - 4") == ["1", "+", "2", "*", "3", "-", "4"]


class TestCommentsAndWhitespace:
    def test_brace_comments_are_skipped(self):
        assert texts("a { this is a comment } b") == ["a", "b"]

    def test_multiline_comment(self):
        assert texts("a {\n comment \n spanning lines \n} b") == ["a", "b"]

    def test_line_comment(self):
        assert texts("a // rest of line\nb") == ["a", "b"]

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a { never closed")

    def test_whitespace_variants(self):
        assert texts("a\t\r\n  b") == ["a", "b"]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a :=\n  b")
        assert tokens[0].location.line == 1 and tokens[0].location.column == 1
        assert tokens[2].location.line == 2 and tokens[2].location.column == 3

    def test_location_after_comment(self):
        tokens = tokenize("{ comment }\nx")
        assert tokens[0].location.line == 2

    def test_lexing_from_an_offset_gives_the_tail_of_a_full_lex(self):
        source = "a := b;\n{ two\n  lines } c.left := d // e\n  f := 1\n"
        start = source.index("c.left")
        line_start = source.rindex("\n", 0, start) + 1
        tail = tokenize(source, start, 3, line_start)
        full = tokenize(source)
        assert [(t.kind, t.text, t.location) for t in tail] == [
            (t.kind, t.text, t.location) for t in full[-len(tail):]
        ]
        assert tail[0].location == (3, 11)


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a $ b")
        assert "$" in str(excinfo.value)

    def test_error_carries_location(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ab\n  @")
        assert excinfo.value.location.line == 2


def assignment_program(rhs):
    return f"program p\n\nprocedure main()\n  i: int\nbegin\n  i := {rhs}\nend\n"


class TestUnicodeDigits:
    """Integers lex from decimal digits only: the digits ``int()`` accepts."""

    def test_superscript_digit_is_a_lex_error_at_its_location(self):
        # '²' is a digit to str.isdigit but not to int(): it used to end up
        # inside an INT token and crash the parser with ValueError.
        with pytest.raises(LexError) as excinfo:
            parse_program(assignment_program("2\u00b2"))
        assert "unexpected character '\u00b2'" in str(excinfo.value)
        assert (excinfo.value.location.line, excinfo.value.location.column) == (6, 9)

    def test_other_decimal_digits_still_parse(self):
        program = parse_program(assignment_program("\u0661\u0662"))
        assignment = program.callable("main").body.stmts[0]
        assert assignment.rhs.value == 12

    def test_daemon_answers_bad_request_with_the_lex_error(self):
        from repro.server.service import AnalysisService, RequestError

        service = AnalysisService()
        with pytest.raises(RequestError) as excinfo:
            service.reanalyze(
                {
                    "old_source": assignment_program("2"),
                    "new_source": assignment_program("2\u00b2"),
                }
            )
        assert str(excinfo.value).startswith("LexError: ")
        assert "ValueError" not in str(excinfo.value)


class TestTokenHelpers:
    def test_is_keyword_and_is_symbol(self):
        token = tokenize("begin")[0]
        assert token.is_keyword("begin")
        assert not token.is_keyword("end")
        assert not token.is_symbol("begin")
        symbol = tokenize(":=")[0]
        assert symbol.is_symbol(":=")
        assert not symbol.is_keyword(":=")


# ---------------------------------------------------------------------------
# The compiled-pattern lexer against a character-loop reference
# ---------------------------------------------------------------------------


def reference_tokens(source):
    """The character-loop lexer ``tokenize`` replaced, kept as the reference.

    Returns ``(kind, text, line, column)`` per token, like :func:`compiled_tokens`.
    """
    pos, line, column, end = 0, 1, 1, len(source)

    def peek(offset=0):
        return source[pos + offset] if pos + offset < end else ""

    def advance(count=1):
        nonlocal pos, line, column
        for _ in range(count):
            if pos >= end:
                return
            if source[pos] == "\n":
                line, column = line + 1, 1
            else:
                column += 1
            pos += 1

    tokens = []
    while True:
        while pos < end:
            ch = peek()
            if ch in " \t\r\n":
                advance()
            elif ch == "{":
                start = SourceLocation(line, column)
                advance()
                while pos < end and peek() != "}":
                    advance()
                if pos >= end:
                    raise LexError("unterminated comment", start)
                advance()
            elif ch == "/" and peek(1) == "/":
                while pos < end and peek() != "\n":
                    advance()
            else:
                break
        here = (line, column)
        if pos >= end:
            tokens.append((TokenKind.EOF, "") + here)
            return tokens
        ch = peek()
        if ch.isalpha() or ch == "_":
            start = pos
            while peek().isalnum() or peek() == "_":
                advance()
            text = source[start:pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append((kind, text) + here)
        elif ch.isdecimal():
            start = pos
            while peek().isdecimal():
                advance()
            tokens.append((TokenKind.INT, source[start:pos]) + here)
        else:
            for symbol in SYMBOLS:
                if source.startswith(symbol, pos):
                    advance(len(symbol))
                    tokens.append(
                        (TokenKind.SYMBOL, "<>" if symbol == "!=" else symbol) + here
                    )
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", SourceLocation(*here))


def compiled_tokens(source):
    """:func:`tokenize`'s tokens as ``(kind, text, line, column)``."""
    return [(t.kind, t.text, t.location.line, t.location.column) for t in tokenize(source)]


def lexed(lexer, source):
    """``lexer``'s tokens, or its error as ``("error", message, line, column)``."""
    try:
        return lexer(source)
    except LexError as error:
        return [("error", error.message, error.location.line, error.location.column)]


def corpus_sources():
    """Every named workload at depths 4 and 8, every generator family at
    its largest clamped shape, edit-bench programs of 4-64 walkers and a
    40-step edit chain."""
    from repro.workloads import (
        EDIT_KINDS,
        FAMILIES,
        WORKLOADS,
        GeneratorConfig,
        apply_edit_script,
        generate_edit_script,
        generate_scenarios,
        make_edit_bench_scenario,
        source,
    )

    sources = [source(name, depth=depth) for name in WORKLOADS for depth in (4, 8)]
    largest = GeneratorConfig(procedures=99, depth=99).clamped()
    sources += [s.source for s in generate_scenarios(2 * len(FAMILIES), config=largest)]
    sources += [make_edit_bench_scenario(walkers).source for walkers in (4, 8, 16, 32, 64)]
    version = make_edit_bench_scenario(8, seed=3).source
    for step in range(40):
        kind = EDIT_KINDS[step % len(EDIT_KINDS)]
        script = generate_edit_script(version, seed=step, edits=1, kinds=(kind,))
        version = apply_edit_script(version, script)
        sources.append(version)
    return sources


#: Fragments random inputs are drawn from: every symbol and its stray
#: prefixes, comment delimiters, the whitespace set, keywords and words,
#: decimal digits of two scripts, and characters that are word characters
#: or digits to ``str`` but may not start a token (``²``, ``½``, a combining
#: accent).
RANDOM_FRAGMENTS = (
    list(SYMBOLS)
    + ["!", "|", "/", "//", "{", "}", "{ c }", " ", "\t", "\r", "\n", "\r\n"]
    + ["begin", "end", "if", "x", "h_1", "_", "0", "42", "\u0661\u0662"]
    + ["\u00b2", "\u00bd", "\u00e9", "e\u0301", "\u0301", "$", "@"]
)


def random_sources(count, seed=20):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choices(RANDOM_FRAGMENTS, k=rng.randrange(0, 16)))


class TestLexerMatchesReference:
    """``tokenize`` emits exactly what the character-loop lexer emitted:
    kinds, texts, lines and columns, and the same errors at the same
    locations."""

    def test_corpus_programs(self):
        for source in corpus_sources():
            assert lexed(compiled_tokens, source) == lexed(reference_tokens, source)

    def test_random_strings(self):
        raised = 0
        for source in random_sources(50_000):
            expected = lexed(reference_tokens, source)
            assert lexed(compiled_tokens, source) == expected, source
            raised += expected[0][0] == "error"
        # Both outcomes are well represented.
        assert 10_000 < raised < 45_000, raised

    @pytest.mark.parametrize(
        "source, message, location",
        [
            ("x := 2\u00b2", "unexpected character '\u00b2'", (1, 7)),
            ("x :=\n  \u00bd", "unexpected character '\u00bd'", (2, 3)),
            ("a \u00e9\u0301", "unexpected character '\u0301'", (1, 4)),
            ("a\r{ open\n", "unterminated comment", (1, 3)),
            ("a / b", "unexpected character '/'", (1, 3)),
            ("a ! b", "unexpected character '!'", (1, 3)),
            ("a | b", "unexpected character '|'", (1, 3)),
            ("{ a\n b }\n  }", "unexpected character '}'", (3, 3)),
        ],
    )
    def test_errors_at_their_own_location(self, source, message, location):
        expected = [("error", message) + location]
        assert lexed(reference_tokens, source) == expected
        assert lexed(compiled_tokens, source) == expected

    def test_only_newline_starts_a_line(self):
        tokens = tokenize("a\rb\n{ x\n y } c // d\ne")
        assert [(t.text, t.location.line, t.location.column) for t in tokens] == [
            ("a", 1, 1), ("b", 1, 3), ("c", 3, 6), ("e", 4, 1), ("", 4, 2),
        ]
