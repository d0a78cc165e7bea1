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
from dataclasses import dataclass
from typing import List, Optional, Union

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


@dataclass(frozen=True)
class Token:
    """A lexical token with its kind, text, literal value and position."""

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


def tokenize(source: str, filename: str = "<signal>") -> List[Token]:
    """Tokenize ``source`` into a list of tokens terminated by an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
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
        location = SourceLocation(line, start - line_start + 1, filename)
        if kind == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                value = (lowered == "true") if lowered in ("true", "false") else None
                append(Token("keyword", lowered, location, value))
            else:
                append(Token("identifier", text, location))
        elif kind == "operator":
            append(Token("operator", text, location))
        elif kind == "integer":
            append(Token("integer", text, location, int(text)))
        elif kind == "real":
            append(Token("real", text, location, float(text)))
        else:
            raise LexerError(f"unexpected character {text!r}", location)
    append(Token("eof", "", SourceLocation(line, len(source) - line_start + 1, filename)))
    return tokens
