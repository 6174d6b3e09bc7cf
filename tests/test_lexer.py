"""Unit tests for the SIL lexer."""

import pytest

from repro.sil.errors import LexError
from repro.sil.lexer import Token, TokenKind, tokenize
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
