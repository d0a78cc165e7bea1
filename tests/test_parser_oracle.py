"""The parser equals the recursive descent it replaced, locations included.

``RecursiveDescentParser`` keeps the parser as it was first written: one
method per precedence level of the expression grammar, each operand passing
through all ten of them.  It is the oracle.  On the Figure-13 programs, the
differential-fuzz corpus, generated control programs, fleet members, seeded
token-level mutations of all of them (a token deleted, duplicated or
swapped with its neighbour, or an operator replaced by another) and seeded
random expressions, both parsers must build the same AST, with the same
``location`` on every node (AST equality ignores locations, and it equates
``Constant(True)`` with ``Constant(1)``, so the comparison here walks the
nodes itself), or raise the same error class and message at the same line
and column.

The oracle carries one intended change to the parser it keeps: a ``-``
before ``true`` or ``false`` in an ``init`` constant is a ParseError at that
``-`` (the parser once negated the boolean into an integer).

By default a seeded slice of the mutations and random expressions runs;
``REPRO_FUZZ_PARSER=1`` runs all of them.
"""

import dataclasses
import os
import random
from typing import List, Optional

import pytest

from repro.errors import ParseError, SignalError
from repro.lang.ast import (
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
from repro.lang.lexer import Token, tokenize
from repro.lang.parser import Parser
from repro.programs import (
    ACCUMULATOR_SOURCE,
    ALARM_SOURCE,
    COUNTER_SOURCE,
    SIMPLE_ALARM_SOURCE,
    WATCHDOG_SOURCE,
    ControlProgramSpec,
    generate_control_program,
)
from repro.programs.suite import benchmark_names, benchmark_source, fleet_sources

from test_differential_fuzz import NUM_PROGRAMS, spec_for_seed

FULL = os.environ.get("REPRO_FUZZ_PARSER", "0") == "1"
#: mutations of each corpus program
MUTATIONS = 64 if FULL else 6
#: seeded random expressions
EXPRESSIONS = 20000 if FULL else 2500

_TYPE_NAMES = ("boolean", "integer", "real", "event")


class RecursiveDescentParser:
    """The oracle: the recursive-descent parser, one method per level."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._position = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self._position += 1
        return token

    def _expect_operator(self, symbol: str) -> Token:
        if not self.current.is_operator(symbol):
            raise ParseError(
                f"expected {symbol!r} but found {self.current.text!r}",
                self.current.location,
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise ParseError(
                f"expected keyword {word!r} but found {self.current.text!r}",
                self.current.location,
            )
        return self._advance()

    def _expect_identifier(self) -> Token:
        if self.current.kind != "identifier":
            raise ParseError(
                f"expected an identifier but found {self.current.text!r}",
                self.current.location,
            )
        return self._advance()

    def _accept_operator(self, symbol: str) -> bool:
        if self.current.is_operator(symbol):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self._advance()
            return True
        return False

    def _parse_declaration_group(self) -> List[SignalDeclaration]:
        type_token = self.current
        if not any(type_token.is_keyword(name) for name in _TYPE_NAMES):
            raise ParseError(
                f"expected a type name but found {type_token.text!r}", type_token.location
            )
        self._advance()
        declarations = [self._parse_declared_name(type_token.text)]
        while self._accept_operator(","):
            declarations.append(self._parse_declared_name(type_token.text))
        self._expect_operator(";")
        return declarations

    def _parse_declared_name(self, type_name: str) -> SignalDeclaration:
        name_token = self._expect_identifier()
        return SignalDeclaration(
            name_token.text, type_name, name_token.location, self._parse_at_annotation()
        )

    def _parse_at_annotation(self) -> Optional[str]:
        if self._accept_keyword("at"):
            return self._expect_identifier().text
        return None

    def _parse_declarations(self) -> List[SignalDeclaration]:
        declarations: List[SignalDeclaration] = []
        while any(self.current.is_keyword(name) for name in _TYPE_NAMES):
            declarations.extend(self._parse_declaration_group())
        return declarations

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
        statements.append(self._parse_statement())
        while self._accept_operator("|"):
            if self.current.is_operator("|)"):
                break
            statements.append(self._parse_statement())
        self._expect_operator("|)")
        return statements

    def _parse_statement(self) -> Statement:
        if self.current.is_keyword("synchro"):
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

    def parse_expression(self) -> Expression:
        return self._parse_default()

    def _parse_default(self) -> Expression:
        left = self._parse_when()
        while self.current.is_keyword("default"):
            location = self._advance().location
            right = self._parse_when()
            left = Default(left, right, location)
        return left

    def _parse_when(self) -> Expression:
        if self.current.is_keyword("when"):
            location = self._advance().location
            condition = self._parse_or()
            return UnaryWhen(condition, location)
        left = self._parse_or()
        while self.current.is_keyword("when"):
            location = self._advance().location
            condition = self._parse_or()
            left = When(left, condition, location)
        return left

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.current.is_keyword("or") or self.current.is_keyword("xor"):
            operator = self._advance()
            right = self._parse_and()
            left = BinaryOp(operator.text, left, right, operator.location)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.current.is_keyword("and"):
            operator = self._advance()
            right = self._parse_not()
            left = BinaryOp(operator.text, left, right, operator.location)
        return left

    def _parse_not(self) -> Expression:
        if self.current.is_keyword("not"):
            location = self._advance().location
            operand = self._parse_not()
            return UnaryOp("not", operand, location)
        return self._parse_relational()

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        for symbol in ("=", "/=", "<=", ">=", "<", ">"):
            if self.current.is_operator(symbol):
                operator = self._advance()
                right = self._parse_additive()
                return BinaryOp(operator.text, left, right, operator.location)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.current.is_operator("+") or self.current.is_operator("-"):
            operator = self._advance()
            right = self._parse_multiplicative()
            left = BinaryOp(operator.text, left, right, operator.location)
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while (
            self.current.is_operator("*")
            or self.current.is_operator("/")
            or self.current.is_keyword("modulo")
        ):
            operator = self._advance()
            right = self._parse_unary()
            left = BinaryOp(operator.text, left, right, operator.location)
        return left

    def _parse_unary(self) -> Expression:
        if self.current.is_operator("-"):
            location = self._advance().location
            operand = self._parse_unary()
            return UnaryOp("-", operand, location)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expression = self._parse_primary()
        while True:
            if self.current.is_operator("$"):
                location = self._advance().location
                depth = 1
                if self.current.kind == "integer":
                    depth = int(self.current.value)
                    self._advance()
                initial: Optional[Constant] = None
                if self._accept_keyword("init"):
                    initial = self._parse_constant()
                expression = Delay(expression, depth, initial, location)
            elif self.current.is_keyword("cell"):
                location = self._advance().location
                condition = self._parse_primary()
                self._expect_keyword("init")
                initial = self._parse_constant()
                expression = Cell(expression, condition, initial, location)
            else:
                return expression

    def _parse_constant(self) -> Constant:
        token = self.current
        if token.kind in ("integer", "real"):
            self._advance()
            return Constant(token.value, token.location)
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            return Constant(bool(token.value), token.location)
        if token.is_operator("-"):
            self._advance()
            # The one intended change: a boolean cannot be negated.
            if self.current.text in ("true", "false"):
                raise ParseError(
                    f"cannot negate the boolean constant {self.current.text!r}",
                    token.location,
                )
            inner = self._parse_constant()
            return Constant(-inner.value, token.location)
        raise ParseError(f"expected a constant but found {token.text!r}", token.location)

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.kind in ("integer", "real"):
            self._advance()
            return Constant(token.value, token.location)
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            return Constant(bool(token.value), token.location)
        if token.is_keyword("event"):
            self._advance()
            operand = self._parse_primary()
            return EventOf(operand, token.location)
        if token.kind == "identifier":
            self._advance()
            return SignalRef(token.text, token.location)
        if token.is_operator("("):
            self._advance()
            expression = self.parse_expression()
            self._expect_operator(")")
            return expression
        raise ParseError(f"unexpected token {token.text!r} in expression", token.location)

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {self.current.text!r}", self.current.location
            )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def difference(expected, actual) -> Optional[str]:
    """Where two parse results first differ (None when they do not).

    Walks both without recursion, comparing node types, every dataclass
    field (``location`` included) and the type of every leaf value.
    """
    stack = [("", expected, actual)]
    while stack:
        path, left, right = stack.pop()
        if type(left) is not type(right):
            return f"{path or '<root>'}: {left!r} != {right!r}"
        if dataclasses.is_dataclass(left):
            for field in dataclasses.fields(left):
                stack.append(
                    (f"{path}.{field.name}", getattr(left, field.name), getattr(right, field.name))
                )
        elif isinstance(left, (list, tuple)):
            if len(left) != len(right):
                return f"{path}: {len(left)} items != {len(right)}"
            stack.extend((f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(left, right)))
        elif left != right:
            return f"{path}: {left!r} != {right!r}"
    return None


def outcome(parser_class, tokens, expression=False):
    """What a parser makes of a token list: a tree or an error's signature."""
    parser = parser_class(list(tokens))
    try:
        result = parser.parse_expression() if expression else parser.parse_process()
        parser.expect_eof()
    except SignalError as error:
        location = error.location
        return ("error", type(error), error.message, location.line, location.column)
    return ("tree", result)


def assert_same_outcome(tokens, label, expression=False):
    expected = outcome(RecursiveDescentParser, tokens, expression)
    actual = outcome(Parser, tokens, expression)
    if expected[0] == "tree" and actual[0] == "tree":
        problem = difference(expected[1], actual[1])
        assert problem is None, f"{label}: {problem}"
    else:
        assert actual == expected, label


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

GENERATED_SPECS = [
    ControlProgramSpec("GEN_ARITH", modules=4, branching=2, sensors=2, with_arithmetic=True),
    ControlProgramSpec("GEN_DIST", modules=3, branching=2, sensors=1, distributed=True),
    ControlProgramSpec(
        "GEN_PLAIN", modules=2, branching=1, sensors=0, with_filter=False, with_counter=False
    ),
    ControlProgramSpec("GEN_WIDE", modules=9, branching=3, sensors=3, with_arithmetic=True),
]


def corpus():
    """(label, source) of every program the oracle compares on."""
    programs = [(name, benchmark_source(name)) for name in benchmark_names()]
    programs += [
        ("COUNTER", COUNTER_SOURCE),
        ("ACCUMULATOR", ACCUMULATOR_SOURCE),
        ("WATCHDOG", WATCHDOG_SOURCE),
        ("ALARM_FIGURE_5", ALARM_SOURCE),
        ("SIMPLE_ALARM", SIMPLE_ALARM_SOURCE),
    ]
    programs += [(spec.name, generate_control_program(spec)) for spec in GENERATED_SPECS]
    programs += [(f"FLEET{i}", source) for i, source in enumerate(fleet_sources())]
    programs += [
        (f"FUZZ_{seed}", generate_control_program(spec_for_seed(seed)))
        for seed in range(NUM_PROGRAMS)
    ]
    return programs


CORPUS = corpus()

#: tokens an operator may be replaced by (keywords and operator symbols)
REPLACEMENTS = [("keyword", word) for word in (
    "when", "default", "or", "xor", "and", "not", "modulo", "init", "cell", "event",
    "synchro", "at",
)] + [("operator", symbol) for symbol in (
    "=", "/=", "<", "<=", ">", ">=", "+", "-", "*", "/", "$", "(", ")", ",", ";",
    ":=", "|", "(|", "|)", "{", "}",
)]
_REPLACEABLE = {text for _, text in REPLACEMENTS}


def mutate(tokens, rng):
    """One token-level mutation of ``tokens`` (the EOF token stays last)."""
    body, eof = list(tokens[:-1]), tokens[-1]
    kind = rng.choice(("delete", "duplicate", "swap", "replace"))
    index = rng.randrange(len(body))
    if kind == "delete":
        del body[index]
    elif kind == "duplicate":
        body.insert(index, body[index])
    elif kind == "swap":
        other = min(index + 1, len(body) - 1)
        body[index], body[other] = body[other], body[index]
    else:
        positions = [i for i, token in enumerate(body) if token.text in _REPLACEABLE]
        index = rng.choice(positions)
        token_kind, text = rng.choice(REPLACEMENTS)
        body[index] = Token(token_kind, text, body[index].location)
    return body + [eof], f"{kind}@{index}"


@pytest.mark.parametrize("label,source", CORPUS, ids=[label for label, _ in CORPUS])
def test_corpus_program_parses_identically(label, source):
    tokens = tokenize(source)
    assert outcome(RecursiveDescentParser, tokens)[0] == "tree", label
    assert_same_outcome(tokens, label)


@pytest.mark.parametrize("label,source", CORPUS, ids=[label for label, _ in CORPUS])
def test_mutated_program_parses_identically(label, source):
    tokens = tokenize(source)
    rng = random.Random(f"parser-oracle:{label}")
    for _ in range(MUTATIONS):
        mutated, how = mutate(tokens, rng)
        assert_same_outcome(mutated, f"{label} {how}")


#: the leaves, prefixes, infixes and suffixes random expressions draw from
LEAVES = ("A", "B", "C", "1", "2.5", "true", "false", "event A", "(A)")
PREFIXES = ("not", "-", "when", "event")
INFIXES = (
    "default", "when", "or", "xor", "and", "=", "/=", "<", "<=", ">", ">=",
    "+", "-", "*", "/", "modulo",
)
SUFFIXES = (
    "$", "$ 1", "$ 2 init 0", "$ init -3", "$ 1 init - 2.5", "$ 1 init --1",
    "$ 1 init true", "cell B init 0", "cell (A) init false", "cell B", "init 1",
)


def random_expression(rng, depth=0):
    """A seeded random expression text; many are deliberately ill-formed."""
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        text = rng.choice(LEAVES)
    elif roll < 0.45:
        text = f"{rng.choice(PREFIXES)} {random_expression(rng, depth + 1)}"
    elif roll < 0.8:
        left = random_expression(rng, depth + 1)
        right = random_expression(rng, depth + 1)
        text = f"{left} {rng.choice(INFIXES)} {right}"
    elif roll < 0.9:
        text = f"({random_expression(rng, depth + 1)})"
    else:
        text = f"{random_expression(rng, depth + 1)} {rng.choice(SUFFIXES)}"
    if rng.random() < 0.02:
        text += rng.choice((" )", " (", " A", " ,"))
    return text


def test_random_expressions_parse_identically():
    rng = random.Random("parser-oracle:expressions")
    shapes = {"tree": 0, "error": 0}
    for index in range(EXPRESSIONS):
        text = random_expression(rng)
        tokens = tokenize(text)
        assert_same_outcome(tokens, f"#{index}: {text}", expression=True)
        shapes[outcome(Parser, tokens, expression=True)[0]] += 1
    # The sample exercises both well-formed and ill-formed expressions.
    assert min(shapes.values()) > EXPRESSIONS // 10, shapes


PRECEDENCE_CASES = [
    "A default B when C or D and not E = F + G * - H $ 1 init 0",
    "not A and B", "not A = B", "not not A", "- - A", "-A * B", "- A $ 1",
    "when A default B", "when A or B", "when not A", "A default when B default C",
    "A when when B", "when when A", "A = not B", "not when A", "- not A",
    "A < B < C", "A < B and C < D", "X and A < B < C", "not A < B < C",
    "when A < B < C", "A + B < C + D < E", "(A < B) < C", "A when B when C",
    "A or B and C = D + E * F", "A * B + C", "A - B - C", "A modulo B modulo C",
    "event A $ 1", "event event A", "event (A + B)", "event - A", "A cell B cell C init 1",
    "A cell B init 1 cell C init 2", "A $ $ 1", "A $ 1 $ 2 init 3",
    "A $ 1 init -2", "A $ 1 init - 2.5", "A $ 1 init x", "A cell B init - x", "A +", "+ A", "A B", "(A", "A)", "()",
    "", "A default", "default A", "A when", "not", "-", "when", "A cell B init",
    "A cell $ init 0", "A cell B $ 1 init 0", "A $ 1 init", "-(A)", "not (A)",
    "true and false", "1.5 * -2", "A xor B or C", "A = B = C", "A /= B >= C",
]


@pytest.mark.parametrize("text", PRECEDENCE_CASES)
def test_precedence_case_parses_identically(text):
    assert_same_outcome(tokenize(text), text, expression=True)
