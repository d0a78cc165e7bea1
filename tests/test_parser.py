"""Tests for the SIGNAL parser (grammar, precedence, diagnostics)."""

import dataclasses
import time

import pytest

from repro.errors import ParseError
from repro.lang.ast import (
    BinaryOp,
    Cell,
    Constant,
    Default,
    Delay,
    Equation,
    EventOf,
    SignalRef,
    Synchro,
    UnaryOp,
    UnaryWhen,
    When,
)
from repro.lang import parser as parser_module
from repro.lang.parser import MAX_NESTING, parse_expression, parse_process
from repro.programs import ALARM_SOURCE


class TestExpressions:
    def test_signal_reference(self):
        assert parse_expression("X") == SignalRef("X")

    def test_integer_constant(self):
        assert parse_expression("7") == Constant(7)

    def test_boolean_constant(self):
        assert parse_expression("true") == Constant(True)

    def test_when_binds_tighter_than_default(self):
        expression = parse_expression("U when C default V")
        assert isinstance(expression, Default)
        assert isinstance(expression.left, When)

    def test_default_is_left_associative(self):
        expression = parse_expression("A default B default C")
        assert isinstance(expression, Default)
        assert isinstance(expression.left, Default)
        assert expression.right == SignalRef("C")

    def test_unary_when(self):
        expression = parse_expression("when C")
        assert isinstance(expression, UnaryWhen)

    def test_unary_when_of_negation(self):
        expression = parse_expression("when (not C)")
        assert isinstance(expression, UnaryWhen)
        assert isinstance(expression.condition, UnaryOp)

    def test_and_binds_tighter_than_or(self):
        expression = parse_expression("A or B and C")
        assert isinstance(expression, BinaryOp)
        assert expression.operator == "or"
        assert isinstance(expression.right, BinaryOp)
        assert expression.right.operator == "and"

    def test_not_binds_tighter_than_and(self):
        expression = parse_expression("not A and B")
        assert expression.operator == "and"
        assert isinstance(expression.left, UnaryOp)

    def test_relational_inside_boolean(self):
        expression = parse_expression("X >= 3 and Y < 2")
        assert expression.operator == "and"
        assert expression.left.operator == ">="
        assert expression.right.operator == "<"

    def test_arithmetic_precedence(self):
        expression = parse_expression("A + B * C")
        assert expression.operator == "+"
        assert expression.right.operator == "*"

    def test_parentheses_override_precedence(self):
        expression = parse_expression("(A + B) * C")
        assert expression.operator == "*"
        assert expression.left.operator == "+"

    def test_unary_minus(self):
        expression = parse_expression("-X + Y")
        assert expression.operator == "+"
        assert isinstance(expression.left, UnaryOp)
        assert expression.left.operator == "-"

    def test_delay_with_init(self):
        expression = parse_expression("X $ 1 init 0")
        assert isinstance(expression, Delay)
        assert expression.depth == 1
        assert expression.initial == Constant(0)

    def test_delay_without_init(self):
        expression = parse_expression("X $ 1")
        assert isinstance(expression, Delay)
        assert expression.initial is None

    def test_delay_default_depth(self):
        expression = parse_expression("X $ init 5")
        assert isinstance(expression, Delay)
        assert expression.depth == 1

    def test_deep_delay(self):
        expression = parse_expression("X $ 3 init 0")
        assert expression.depth == 3

    def test_delay_negative_init(self):
        expression = parse_expression("X $ 1 init -2")
        assert expression.initial == Constant(-2)

    def test_event_operator(self):
        expression = parse_expression("event X")
        assert isinstance(expression, EventOf)

    def test_cell_operator(self):
        expression = parse_expression("X cell C init false")
        assert isinstance(expression, Cell)
        assert expression.initial == Constant(False)

    def test_equality_and_disequality(self):
        assert parse_expression("A = B").operator == "="
        assert parse_expression("A /= B").operator == "/="

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("X Y")

    def test_missing_operand_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("X +")


class TestProcesses:
    def test_alarm_process_parses(self):
        process = parse_process(ALARM_SOURCE)
        assert process.name == "ALARM"
        assert process.input_names() == ["BRAKE", "STOP_OK", "LIMIT_REACHED"]
        assert process.output_names() == ["ALARM"]
        assert process.local_names() == ["BRAKING_STATE", "BRAKING_NEXT_STATE"]
        assert len(process.statements) == 5
        assert isinstance(process.statements[2], Synchro)

    def test_declarations_by_group(self):
        process = parse_process(
            """
            process P =
              ( ? boolean A, B; integer N;
                ! integer M; )
              (| M := N when A |)
            end;
            """
        )
        assert [d.type_name for d in process.inputs] == ["boolean", "boolean", "integer"]
        assert process.outputs[0].name == "M"

    def test_process_without_inputs(self):
        process = parse_process(
            """
            process TICKER =
              ( ! integer N; )
              (| N := ZN + 1
               | ZN := N $ 1 init 0
               |)
              where integer ZN;
            end;
            """
        )
        assert process.inputs == []
        assert process.output_names() == ["N"]

    def test_missing_end_rejected(self):
        with pytest.raises(ParseError):
            parse_process("process P = ( ? boolean A; ! boolean B; ) (| B := A |)")

    def test_missing_assignment_rejected(self):
        with pytest.raises(ParseError):
            parse_process(
                "process P = ( ? boolean A; ! boolean B; ) (| B = A |) end;"
            )

    def test_statement_str_roundtrip_contains_operators(self):
        process = parse_process(ALARM_SOURCE)
        rendered = str(process)
        assert "BRAKING_NEXT_STATE" in rendered
        assert "default" in rendered
        assert "synchro" in rendered

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_process("process P =\n  ( ? boolean A; ! boolean B )\n  (| B := A |)\nend;")
        # missing ';' after the output declaration
        assert excinfo.value.location is not None


class TestNegatedBooleanInit:
    """``-`` before ``true``/``false`` in an ``init`` constant is an error at
    that ``-``; the parser once negated the boolean into the integer -1/0."""

    @pytest.mark.parametrize(
        "text,column",
        [
            ("X $ 1 init -true", 12),
            ("X $ 1 init - false", 12),
            ("X cell C init -false", 15),
            ("X cell C init -true", 15),
            ("X $ 1 init - - true", 14),
        ],
    )
    def test_minus_before_a_boolean_is_located(self, text, column):
        with pytest.raises(ParseError) as excinfo:
            parse_expression(text)
        word = text.split()[-1].lstrip("-")
        assert excinfo.value.message == f"cannot negate the boolean constant {word!r}"
        assert (excinfo.value.location.line, excinfo.value.location.column) == (1, column)

    def test_in_a_process_the_error_points_at_the_minus(self):
        source = (
            "process P = ( ? boolean A; ! boolean B; )\n"
            "  (| B := A $ 1 init -true |) end;"
        )
        with pytest.raises(ParseError) as excinfo:
            parse_process(source)
        assert (excinfo.value.location.line, excinfo.value.location.column) == (2, 22)

    def test_negated_numbers_still_parse(self):
        assert parse_expression("X $ 1 init -2").initial == Constant(-2)
        assert parse_expression("X $ 1 init - - 3").initial == Constant(3)
        assert parse_expression("X cell C init -2.5").initial == Constant(-2.5)
        initial = parse_expression("X $ 1 init true").initial
        assert initial.value is True


def walk(expression):
    """(node count, depth) of an expression tree, walked without recursion."""
    count, deepest = 0, 0
    stack = [(expression, 1)]
    while stack:
        node, depth = stack.pop()
        count += 1
        deepest = max(deepest, depth)
        for field in dataclasses.fields(node):
            child = getattr(node, field.name)
            if dataclasses.is_dataclass(child) and field.name != "location":
                stack.append((child, depth + 1))
    return count, deepest


class TestNoRecursionError:
    """Deep inputs return or raise a located ParseError, never RecursionError."""

    N = 10_000

    def parse_quickly(self, text):
        started = time.process_time()
        try:
            return parse_expression(text)
        finally:
            assert time.process_time() - started < 10.0

    def test_the_limit_is_in_the_docstring(self):
        assert f"``MAX_NESTING`` ({MAX_NESTING})" in parser_module.__doc__

    def test_nested_parentheses_stop_at_the_limit(self):
        text = "(" * self.N + "x" + ")" * self.N
        with pytest.raises(ParseError) as excinfo:
            self.parse_quickly(text)
        location = excinfo.value.location
        assert (location.line, location.column) == (1, MAX_NESTING + 1)
        assert str(MAX_NESTING) in excinfo.value.message

    def test_parentheses_up_to_the_limit_parse(self):
        text = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert self.parse_quickly(text) == SignalRef("x")
        cell = "x cell " + "(" * MAX_NESTING + "c" + ")" * MAX_NESTING + " init 0"
        assert self.parse_quickly(cell).condition == SignalRef("c")

    @pytest.mark.parametrize("prefix", ["not ", "- ", "event "])
    def test_prefix_chains(self, prefix):
        count, depth = walk(self.parse_quickly(prefix * self.N + "x"))
        assert count == depth == self.N + 1

    @pytest.mark.parametrize("operator", ["+", "default", "when", "and", "*"])
    def test_binary_chains(self, operator):
        expression = self.parse_quickly(f" {operator} ".join(["a"] * self.N))
        count, depth = walk(expression)
        assert (count, depth) == (2 * self.N - 1, self.N)

    def test_negated_init_chain(self):
        expression = self.parse_quickly("X $ 1 init " + "- " * self.N + "1")
        assert expression.initial == Constant(1)
