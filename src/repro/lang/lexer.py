"""Tokenizer for the SIGNAL surface syntax.

The token stream is deliberately simple: keywords, identifiers, numeric and
boolean literals, operators and punctuation.  Comments follow the SIGNAL
convention of ``%`` to end of line.  Identifiers are ASCII
(``[A-Za-z_][A-Za-z0-9_]*``) and numerals are ASCII digits; any other
character is a :class:`~repro.errors.LexerError` at its line and column.
One compiled regular expression scans the whole source.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Union

from ..errors import LexerError, SourceLocation

__all__ = ["Token", "tokenize", "KEYWORDS"]


KEYWORDS = frozenset(
    {
        "process",
        "end",
        "where",
        "when",
        "default",
        "init",
        "event",
        "cell",
        "synchro",
        "not",
        "and",
        "or",
        "xor",
        "modulo",
        "true",
        "false",
        "boolean",
        "integer",
        "real",
        "at",
    }
)

# One alternative per token class, tried left to right at every position.
# Identifiers and numerals are ASCII only; multi-character operators come
# before their one-character prefixes; any other character is an error.
_TOKEN_PATTERN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|%[^\n]*)+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<real>[0-9]+\.[0-9]+)"
    r"|(?P<integer>[0-9]+)"
    r"|(?P<operator>:=|/=|<=|>=|\(\||\|\)|[(){}|;,?!=<>+\-*/$])"
    r"|(?P<error>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    """A lexical token with its kind, text, literal value and position.

    A named tuple: the lexer makes one per token, and the parser reads its
    fields in C.  Keywords are matched case-insensitively and no identifier
    spells one, so a keyword or operator is known by its text alone.
    """

    kind: str  # "keyword" | "identifier" | "integer" | "real" | "operator" | "eof"
    text: str
    location: SourceLocation
    value: Optional[Union[int, float, bool]] = None

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_operator(self, symbol: str) -> bool:
        return self.kind == "operator" and self.text == symbol

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


#: the literal value of every keyword (``None`` but for ``true``/``false``)
_KEYWORD_VALUES = dict.fromkeys(KEYWORDS)
_KEYWORD_VALUES.update(true=True, false=False)
_NOT_A_KEYWORD = object()


def tokenize(source: str, filename: str = "<signal>") -> List[Token]:
    """Tokenize ``source`` into a list of tokens terminated by an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    # Builds each named tuple in C, without the Python-level ``__new__``.
    new = tuple.__new__
    keyword_value = _KEYWORD_VALUES.get
    line = 1
    line_start = 0  # index of the first character of the current line
    for match in _TOKEN_PATTERN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        start = match.start()
        if kind == "skip":
            # Only whitespace runs hold newlines (a comment stops before one).
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        location = new(SourceLocation, (line, start - line_start + 1, filename))
        if kind == "word":
            lowered = text.lower()
            value = keyword_value(lowered, _NOT_A_KEYWORD)
            if value is _NOT_A_KEYWORD:
                append(new(Token, ("identifier", text, location, None)))
            else:
                append(new(Token, ("keyword", lowered, location, value)))
        elif kind == "operator":
            append(new(Token, ("operator", text, location, None)))
        elif kind == "integer":
            append(new(Token, ("integer", text, location, int(text))))
        elif kind == "real":
            append(new(Token, ("real", text, location, float(text))))
        else:
            raise LexerError(f"unexpected character {text!r}", location)
    append(Token("eof", "", SourceLocation(line, len(source) - line_start + 1, filename)))
    return tokens
