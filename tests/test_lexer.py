"""Tests for the SIGNAL tokenizer."""

import pytest

from repro.errors import LexerError, SourceLocation
from repro.lang.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokenKinds:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        tokens = tokenize("process FOO when BAR default")
        assert [t.kind for t in tokens[:-1]] == [
            "keyword",
            "identifier",
            "keyword",
            "identifier",
            "keyword",
        ]

    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("WHEN When when")
        assert all(t.is_keyword("when") for t in tokens[:-1])

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind == "integer"
        assert token.value == 42

    def test_real_literal(self):
        token = tokenize("3.25")[0]
        assert token.kind == "real"
        assert token.value == pytest.approx(3.25)

    def test_boolean_literals(self):
        tokens = tokenize("true false")
        assert tokens[0].value is True
        assert tokens[1].value is False

    def test_underscored_identifier(self):
        token = tokenize("BRAKING_NEXT_STATE")[0]
        assert token.kind == "identifier"
        assert token.text == "BRAKING_NEXT_STATE"

    def test_integer_followed_by_dollar(self):
        assert texts("X $ 1") == ["X", "$", "1"]


class TestOperators:
    @pytest.mark.parametrize(
        "symbol",
        [":=", "/=", "<=", ">=", "(|", "|)", "(", ")", "{", "}", "|", ";", ",", "?",
         "!", "=", "<", ">", "+", "-", "*", "/", "$"],
    )
    def test_each_operator_is_one_token(self, symbol):
        tokens = tokenize(symbol)
        assert len(tokens) == 2
        assert tokens[0].is_operator(symbol)

    def test_composition_brackets_not_split(self):
        assert texts("(| X := Y |)") == ["(|", "X", ":=", "Y", "|)"]

    def test_assign_vs_colon(self):
        tokens = tokenize("X := 1")
        assert tokens[1].is_operator(":=")


class TestCommentsAndPositions:
    def test_percent_comment_to_end_of_line(self):
        assert texts("X % comment with := tokens\nY") == ["X", "Y"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("X\n  Y")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_unknown_character_raises(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("X @ Y")
        assert "@" in str(excinfo.value)

    def test_error_carries_location(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("ABC\n  #")
        assert excinfo.value.location.line == 2


class TestAsciiLexicalRules:
    """Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and numerals ASCII digits."""

    @pytest.mark.parametrize(
        "source, column",
        [("b := a + ²", 10), ("b := ⁵", 6), ("a² := 1", 2), ("été", 1)],
    )
    def test_non_ascii_characters_are_located_lexer_errors(self, source, column):
        with pytest.raises(LexerError) as excinfo:
            tokenize("% header\n" + source)
        assert (excinfo.value.location.line, excinfo.value.location.column) == (2, column)

    def test_ascii_identifier_with_digits_and_underscores(self):
        assert texts("_a1 B_2c") == ["_a1", "B_2c"]

    def test_numeral_followed_by_identifier_splits(self):
        tokens = tokenize("12ab 3.5x")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            ("integer", "12"), ("identifier", "ab"), ("real", "3.5"), ("identifier", "x"),
        ]

    def test_eof_location_follows_the_last_line(self):
        eof = tokenize("X\n  % trailing comment\n   ")[-1]
        assert (eof.kind, eof.location.line, eof.location.column) == ("eof", 3, 4)

    def test_tokens_and_locations_are_values(self):
        first, again = tokenize("when X", "p.sig"), tokenize("when X", "p.sig")
        assert first == again and hash(tuple(first)) == hash(tuple(again))
        keyword = first[0]
        assert (keyword.kind, keyword.text, keyword.value) == ("keyword", "when", None)
        assert str(keyword) == "keyword('when')"
        location = first[1].location
        assert location == SourceLocation(1, 6, "p.sig")
        assert hash(location) == hash(SourceLocation(1, 6, "p.sig"))
        assert (location.line, location.column, location.filename) == (1, 6, "p.sig")
        assert str(location) == "p.sig:1:6"
        assert SourceLocation(2, 3).filename == "<signal>"
        assert Token("identifier", "X", location) == first[1]


class TestNonAsciiSourcesThroughTheCompiler:
    """``compile_source`` rejects them with a located :class:`SignalError`.

    ``str.isdigit`` accepts ``²`` and ``⁵`` (``int()`` then raised a bare
    ``ValueError``) and ``str.isalnum`` accepts ``a²`` (the generated Python
    then failed to ``exec``).
    """

    @pytest.mark.parametrize(
        "equation, column",
        [("b := a + ²", 15), ("b := ⁵", 11), ("b := a²", 12)],
    )
    def test_compile_source_raises_a_located_signal_error(self, equation, column):
        from repro import compile_source
        from repro.errors import SignalError

        source = (
            "process P =\n"
            "  ( ? integer a; ! integer b; )\n"
            f"  (| {equation} |)\n"
            "end;\n"
        )
        with pytest.raises(SignalError) as excinfo:
            compile_source(source)
        assert isinstance(excinfo.value, LexerError)
        assert (excinfo.value.location.line, excinfo.value.location.column) == (3, column)

    def test_non_ascii_identifier_declaration_is_rejected(self):
        from repro import compile_source
        from repro.errors import SignalError

        source = "process P = ( ? integer a²; ! integer b; ) (| b := a² + 1 |) end;"
        with pytest.raises(SignalError) as excinfo:
            compile_source(source)
        assert excinfo.value.location is not None
        assert (excinfo.value.location.line, excinfo.value.location.column) == (1, 26)
