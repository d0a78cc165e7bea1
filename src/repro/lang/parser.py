"""Parser for the SIGNAL surface syntax.

Grammar (informal)::

    process      ::= "process" IDENT "=" interface body [ "where" decls ] "end" [";"]
    interface    ::= "(" [ "?" decls ] [ "!" decls ] ")"
    decls        ::= { type IDENT [ "at" IDENT ] { "," IDENT [ "at" IDENT ] } ";" }
    body         ::= "(|" statement { "|" statement } "|)"
    statement    ::= IDENT ":=" expr [ "at" IDENT ]
                   | "synchro" "{" expr { "," expr } "}"
    expr         ::= default-expr
    default-expr ::= when-expr { "default" when-expr }
    when-expr    ::= "when" or-expr
                   | or-expr { "when" or-expr }
    or-expr      ::= and-expr { ("or" | "xor") and-expr }
    and-expr     ::= not-expr { "and" not-expr }
    not-expr     ::= "not" not-expr | rel-expr
    rel-expr     ::= add-expr [ ("=" | "/=" | "<" | "<=" | ">" | ">=") add-expr ]
    add-expr     ::= mul-expr { ("+" | "-") mul-expr }
    mul-expr     ::= unary-expr { ("*" | "/" | "modulo") unary-expr }
    unary-expr   ::= "-" unary-expr | postfix
    postfix      ::= primary { "$" INT [ "init" constant ]
                             | "cell" primary "init" constant }
    primary      ::= constant | IDENT | "(" expr ")" | "event" primary

Operator precedence follows the SIGNAL reference manual ordering used by the
paper's examples: ``default`` binds loosest, then ``when``, then the boolean,
relational and arithmetic operators.

Processes and declarations are parsed by recursive descent.  Expressions
are parsed by one operator-precedence loop over a table of binary operator
levels (``_BINARY_LEVELS``) and a table of the prefixes unary ``when``,
``not`` and ``-`` (``_PREFIX_LEVELS``), each allowed only where the rules
above allow it; the tree it builds is the one the rules describe.  Chains
of operators and prefixes of any length parse in constant stack depth.
Only parentheses nest the parser: an expression nested deeper than
``MAX_NESTING`` (200) parentheses is a :class:`~repro.errors.ParseError` at
the first parenthesis beyond it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ParseError
from .ast import (
    BinaryOp,
    Cell,
    Constant,
    Default,
    Delay,
    Equation,
    EventOf,
    Expression,
    Process,
    SignalDeclaration,
    SignalRef,
    Statement,
    Synchro,
    UnaryOp,
    UnaryWhen,
    When,
)
from .lexer import Token, tokenize

__all__ = ["parse_process", "parse_expression", "Parser"]

_TYPE_NAMES = ("boolean", "integer", "real", "event")

#: deepest nesting of parentheses in an expression
MAX_NESTING = 200

# Expression levels, loosest first: the operand of an operator of level L is
# an expression whose operators all bind at L + 1 or tighter.
_DEFAULT, _WHEN, _OR, _AND, _RELATIONAL, _ADDITIVE, _MULTIPLICATIVE, _UNARY = range(1, 9)

#: binary operator -> its level (a keyword or operator is known by its text)
_BINARY_LEVELS = {
    "default": _DEFAULT,
    "when": _WHEN,
    "or": _OR,
    "xor": _OR,
    "and": _AND,
    **dict.fromkeys(("=", "/=", "<", "<=", ">", ">="), _RELATIONAL),
    "+": _ADDITIVE,
    "-": _ADDITIVE,
    "*": _MULTIPLICATIVE,
    "/": _MULTIPLICATIVE,
    "modulo": _MULTIPLICATIVE,
}

#: prefix -> (a, b): it may start an operand of level a or looser, its own
#: operand has level b, and only operators looser than a apply to its result
_PREFIX_LEVELS = {
    "when": (_WHEN, _OR),
    "not": (_RELATIONAL, _RELATIONAL),
    "-": (_UNARY, _UNARY),
}


class Parser:
    """A parser over a token list (ending with the lexer's EOF token)."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._position = 0
        #: parentheses open around the expression being parsed
        self._depth = 0

    # -- token helpers -----------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != "eof":
            self._position += 1
        return token

    def _expect_operator(self, symbol: str) -> Token:
        token = self._tokens[self._position]
        if token.text != symbol or token.kind != "operator":
            raise ParseError(f"expected {symbol!r} but found {token.text!r}", token.location)
        self._position += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._tokens[self._position]
        if token.text != word or token.kind != "keyword":
            raise ParseError(
                f"expected keyword {word!r} but found {token.text!r}", token.location
            )
        self._position += 1
        return token

    def _expect_identifier(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != "identifier":
            raise ParseError(
                f"expected an identifier but found {token.text!r}", token.location
            )
        self._position += 1
        return token

    def _accept_operator(self, symbol: str) -> bool:
        token = self._tokens[self._position]
        if token.text == symbol and token.kind == "operator":
            self._position += 1
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        token = self._tokens[self._position]
        if token.text == word and token.kind == "keyword":
            self._position += 1
            return True
        return False

    def _at_type_name(self) -> bool:
        token = self._tokens[self._position]
        return token.text in _TYPE_NAMES and token.kind == "keyword"

    # -- declarations ---------------------------------------------------------
    def _parse_declaration_group(self) -> List[SignalDeclaration]:
        """Parse ``type IDENT ["at" IDENT] {"," IDENT ["at" IDENT]} ";"``.

        Returns one declaration per name.  The optional ``at <loc>`` suffix is
        the distribution annotation consumed by :mod:`repro.lang.partition`.
        """
        type_name = self._advance().text  # the caller saw a type name
        declarations = [self._parse_declared_name(type_name)]
        while self._accept_operator(","):
            declarations.append(self._parse_declared_name(type_name))
        self._expect_operator(";")
        return declarations

    def _parse_declared_name(self, type_name: str) -> SignalDeclaration:
        name_token = self._expect_identifier()
        return SignalDeclaration(
            name_token.text, type_name, name_token.location, self._parse_at_annotation()
        )

    def _parse_at_annotation(self) -> Optional[str]:
        """Parse an optional trailing ``at IDENT`` location annotation."""
        if self._accept_keyword("at"):
            return self._expect_identifier().text
        return None

    def _parse_declarations(self) -> List[SignalDeclaration]:
        declarations: List[SignalDeclaration] = []
        while self._at_type_name():
            declarations.extend(self._parse_declaration_group())
        return declarations

    # -- processes ---------------------------------------------------------------
    def parse_process(self) -> Process:
        self._expect_keyword("process")
        name_token = self._expect_identifier()
        self._expect_operator("=")

        inputs: List[SignalDeclaration] = []
        outputs: List[SignalDeclaration] = []
        self._expect_operator("(")
        if self._accept_operator("?"):
            inputs = self._parse_declarations()
        if self._accept_operator("!"):
            outputs = self._parse_declarations()
        self._expect_operator(")")

        statements = self._parse_body()

        locals_: List[SignalDeclaration] = []
        if self._accept_keyword("where"):
            locals_ = self._parse_declarations()

        self._expect_keyword("end")
        self._accept_operator(";")

        return Process(
            name=name_token.text,
            inputs=inputs,
            outputs=outputs,
            locals=locals_,
            statements=statements,
        )

    def _parse_body(self) -> List[Statement]:
        self._expect_operator("(|")
        statements: List[Statement] = []
        # Allow an empty first slot: "(| | X := ... |)" is not legal SIGNAL,
        # so we simply require one statement per "|"-separated slot.
        statements.append(self._parse_statement())
        while self._accept_operator("|"):
            if self._tokens[self._position].text == "|)":
                break
            statements.append(self._parse_statement())
        self._expect_operator("|)")
        return statements

    def _parse_statement(self) -> Statement:
        if self._tokens[self._position].text == "synchro":
            return self._parse_synchro()
        target = self._expect_identifier()
        self._expect_operator(":=")
        expression = self.parse_expression()
        at_location = self._parse_at_annotation()
        return Equation(target.text, expression, target.location, at_location)

    def _parse_synchro(self) -> Synchro:
        keyword = self._expect_keyword("synchro")
        self._expect_operator("{")
        expressions = [self.parse_expression()]
        while self._accept_operator(","):
            expressions.append(self.parse_expression())
        self._expect_operator("}")
        return Synchro(tuple(expressions), keyword.location)

    # -- expressions -----------------------------------------------------------------
    def parse_expression(self) -> Expression:
        """Parse one expression with the operator-precedence loop.

        Binary operators come from ``_BINARY_LEVELS``.  The operators met
        but not yet applied wait on a stack, each with the level the
        expression around it had, so that no operator costs a Python frame
        and chains of any length parse in constant stack depth.
        """
        tokens = self._tokens
        #: (operator token, level around it, left operand or None for a prefix)
        pending: List[Tuple[Token, int, Optional[Expression]]] = []
        level = _DEFAULT
        while True:
            token = tokens[self._position]
            prefix = _PREFIX_LEVELS.get(token.text)
            while prefix is not None and level <= prefix[0]:
                pending.append((token, level, None))
                level = prefix[1]
                self._position += 1
                token = tokens[self._position]
                prefix = _PREFIX_LEVELS.get(token.text)
            left = self._parse_postfix()
            # Only an operator binding looser than ``bound`` may take ``left``
            # as its left operand: a tighter one would be inside ``left``,
            # unless it is a second relational operator, which ends it.
            bound = _UNARY
            while True:
                token = tokens[self._position]
                binding = _BINARY_LEVELS.get(token.text)
                if binding is not None and level <= binding < bound:
                    self._position += 1
                    pending.append((token, level, left))
                    level = binding + 1
                    break
                if not pending:
                    return left
                token, level, operand = pending.pop()
                text = token.text
                if operand is None:
                    if text == "when":
                        left = UnaryWhen(left, token.location)
                    else:
                        left = UnaryOp(text, left, token.location)
                    bound = _PREFIX_LEVELS[text][0]
                    continue
                binding = _BINARY_LEVELS[text]
                if binding == _DEFAULT:
                    left = Default(operand, left, token.location)
                elif binding == _WHEN:
                    left = When(operand, left, token.location)
                else:
                    left = BinaryOp(text, operand, left, token.location)
                # Left-associative; a relational operator does not associate.
                bound = binding if binding == _RELATIONAL else binding + 1

    def _parse_postfix(self) -> Expression:
        expression = self._parse_primary()
        tokens = self._tokens
        while True:
            token = tokens[self._position]
            if token.text == "$":
                self._position += 1
                depth = 1
                if tokens[self._position].kind == "integer":
                    depth = int(tokens[self._position].value)  # type: ignore[arg-type]
                    self._position += 1
                initial: Optional[Constant] = None
                if tokens[self._position].text == "init":
                    self._position += 1
                    initial = self._parse_constant()
                expression = Delay(expression, depth, initial, token.location)
            elif token.text == "cell":
                self._position += 1
                condition = self._parse_primary()
                self._expect_keyword("init")
                initial = self._parse_constant()
                expression = Cell(expression, condition, initial, token.location)
            else:
                return expression

    def _parse_constant(self) -> Constant:
        """An ``init`` constant: a literal, negated by any number of ``-``."""
        tokens = self._tokens
        first = token = tokens[self._position]
        negations = 0
        while token.text == "-":
            negations += 1
            minus = token
            self._position += 1
            token = tokens[self._position]
        if token.kind in ("integer", "real"):
            value = token.value
        elif token.kind == "keyword" and token.text in ("true", "false"):
            if negations:
                raise ParseError(
                    f"cannot negate the boolean constant {token.text!r}", minus.location
                )
            value = bool(token.value)
        else:
            raise ParseError(f"expected a constant but found {token.text!r}", token.location)
        self._position += 1
        if negations % 2:
            value = -value  # type: ignore[operator]
        return Constant(value, first.location)

    def _parse_primary(self) -> Expression:
        token = self._tokens[self._position]
        kind = token.kind
        if kind == "identifier":
            self._position += 1
            return SignalRef(token.text, token.location)
        if kind in ("integer", "real"):
            self._position += 1
            return Constant(token.value, token.location)
        if kind == "keyword":
            if token.text in ("true", "false"):
                self._position += 1
                return Constant(bool(token.value), token.location)
            if token.text == "event":
                return self._parse_event()
        elif token.text == "(" and kind == "operator":
            if self._depth == MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING} parentheses", token.location
                )
            self._position += 1
            self._depth += 1
            expression = self.parse_expression()
            self._expect_operator(")")
            self._depth -= 1
            return expression
        raise ParseError(f"unexpected token {token.text!r} in expression", token.location)

    def _parse_event(self) -> Expression:
        """``event`` applied to a primary, any number of times over."""
        tokens = self._tokens
        events = []
        while tokens[self._position].text == "event":
            events.append(tokens[self._position])
            self._position += 1
        expression = self._parse_primary()
        for token in reversed(events):
            expression = EventOf(expression, token.location)
        return expression

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {self.current.text!r}", self.current.location
            )


def parse_process(source: str, filename: str = "<signal>") -> Process:
    """Parse a complete ``process ... end`` definition from source text."""
    parser = Parser(tokenize(source, filename))
    process = parser.parse_process()
    parser.expect_eof()
    return process


def parse_expression(source: str, filename: str = "<signal>") -> Expression:
    """Parse a single SIGNAL expression (used by tests and the REPL-style API)."""
    parser = Parser(tokenize(source, filename))
    expression = parser.parse_expression()
    parser.expect_eof()
    return expression
