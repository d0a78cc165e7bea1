"""Tests for the step IR builders and the boolean value encoding."""

import pytest

from repro import GenerationStyle, compile_source
from repro.bdd import BDDManager
from repro.clocks.encoding import ValueEncoder
from repro.codegen.c_backend import generate_c_shared_source, generate_c_source
from repro.codegen.ir import (
    ComputeValue,
    EmitOutput,
    Guard,
    ReadInput,
    ReadRegister,
    SetFlagFormula,
    SetFlagPartition,
    SetFlagRoot,
    UpdateRegister,
    build_step_ir,
)
from repro.codegen.linker import ir_to_payload
from repro.codegen.python_backend import generate_python_source
from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.lang.types import infer_types
from repro.programs import (
    ALARM_SOURCE,
    COUNTER_SOURCE,
    ControlProgramSpec,
    generate_control_program,
)
from repro.programs.suite import benchmark_source


def flatten(statements):
    for statement in statements:
        yield statement
        if isinstance(statement, Guard):
            yield from flatten(statement.body)


def max_guard_depth(statements, depth=0):
    maximum = depth
    for statement in statements:
        if isinstance(statement, Guard):
            maximum = max(maximum, max_guard_depth(statement.body, depth + 1))
    return maximum


class TestStepIR:
    def test_registers_collected_with_initial_values(self, counter_result):
        ir = counter_result.step_ir()
        assert len(ir.registers) == 1
        register = ir.registers[0]
        assert register.target == "ZN"
        assert register.source == "N"
        assert register.initial == 0

    def test_flat_ir_has_no_nested_guards(self, counter_result):
        ir = counter_result.step_ir(GenerationStyle.FLAT)
        assert max_guard_depth(ir.statements) == 1
        assert ir.initialized_flags == []

    def test_hierarchical_ir_nests_guards(self, alarm_result):
        ir = alarm_result.step_ir(GenerationStyle.HIERARCHICAL)
        assert max_guard_depth(ir.statements) >= 2
        assert ir.initialized_flags  # non-root flags need initialization

    def test_every_scheduled_signal_is_assigned_once(self, alarm_result):
        for style in (GenerationStyle.FLAT, GenerationStyle.HIERARCHICAL):
            ir = alarm_result.step_ir(style)
            assigned = [
                s.signal
                for s in flatten(ir.statements)
                if isinstance(s, (ComputeValue, ReadInput, ReadRegister))
            ]
            assert sorted(assigned) == sorted(alarm_result.schedule.signal_class)

    def test_outputs_emitted_for_output_signals_only(self, alarm_result):
        ir = alarm_result.step_ir()
        emitted = {s.signal for s in flatten(ir.statements) if isinstance(s, EmitOutput)}
        assert emitted == {"ALARM"}

    def test_register_updates_present_in_both_styles(self, counter_result):
        for style in (GenerationStyle.FLAT, GenerationStyle.HIERARCHICAL):
            ir = counter_result.step_ir(style)
            updates = [s for s in flatten(ir.statements) if isinstance(s, UpdateRegister)]
            assert len(updates) == 1
            assert updates[0].register == "z_ZN"

    def test_flag_statements_cover_all_classes_in_flat_style(self, alarm_result):
        ir = alarm_result.step_ir(GenerationStyle.FLAT)
        flag_statements = [
            s
            for s in flatten(ir.statements)
            if isinstance(s, (SetFlagRoot, SetFlagPartition, SetFlagFormula))
        ]
        classes = [c for c in alarm_result.hierarchy.classes if not c.is_null]
        assert len(flag_statements) == len(classes)

    def test_root_flags_listed(self, alarm_result):
        ir = alarm_result.step_ir()
        assert len(ir.root_flags) == 1
        class_id, key, default = ir.root_flags[0]
        assert default is True

    def test_partition_guard_inside_parent_omits_parent_test(self, alarm_result):
        """Inside its parent's guard, a partition flag needs no parent conjunct."""
        ir = alarm_result.step_ir(GenerationStyle.HIERARCHICAL)

        def partitions_inside_guards(statements, inside):
            for statement in statements:
                if isinstance(statement, SetFlagPartition) and inside:
                    yield statement
                if isinstance(statement, Guard):
                    yield from partitions_inside_guards(statement.body, True)

        nested_partitions = list(partitions_inside_guards(ir.statements, False))
        assert nested_partitions
        assert any(p.parent_id is None for p in nested_partitions)


class TestValueEncoder:
    def _encoder(self, source):
        program = normalize(parse_process(source))
        types = infer_types(program)
        return program, ValueEncoder(BDDManager(), program, types)

    def test_input_gets_opaque_variable(self):
        _, encoder = self._encoder(
            "process P = ( ? boolean C; ! boolean X; ) (| X := C |) end;"
        )
        assert encoder.value_of("C") == encoder.value_of("C")
        assert encoder.is_opaque("C")

    def test_negation_shares_the_variable(self):
        _, encoder = self._encoder(
            "process P = ( ? boolean C; ! boolean X; ) (| X := not C |) end;"
        )
        assert encoder.value_of("X") == ~encoder.value_of("C")
        assert not encoder.is_opaque("X")

    def test_conjunction_and_disjunction_structural(self):
        _, encoder = self._encoder(
            "process P = ( ? boolean A, B; ! boolean X, Y; )"
            " (| X := A and B | Y := A or B |) end;"
        )
        a, b = encoder.value_of("A"), encoder.value_of("B")
        assert encoder.value_of("X") == (a & b)
        assert encoder.value_of("Y") == (a | b)

    def test_event_is_constant_true(self):
        _, encoder = self._encoder(
            "process P = ( ? integer N; ! boolean E; ) (| E := event N |) end;"
        )
        assert encoder.value_of("E").is_true

    def test_when_passes_the_source_value_through(self):
        _, encoder = self._encoder(
            "process P = ( ? boolean A, C; ! boolean X; ) (| X := A when C |) end;"
        )
        assert encoder.value_of("X") == encoder.value_of("A")

    def test_delay_and_default_are_opaque(self):
        _, encoder = self._encoder(
            "process P = ( ? boolean A, B; ! boolean X, Y; )"
            " (| X := A default B | Y := A $ 1 init false |) end;"
        )
        assert encoder.is_opaque("X") is False or encoder.value_of("X") is not None
        encoder.value_of("X")
        encoder.value_of("Y")
        assert encoder.is_opaque("X")
        assert encoder.is_opaque("Y")

    def test_non_boolean_signal_rejected(self):
        _, encoder = self._encoder(
            "process P = ( ? integer N; ! integer M; ) (| M := N + 1 |) end;"
        )
        with pytest.raises(ValueError):
            encoder.value_of("N")


MIXED_SPEC = ControlProgramSpec(
    "MIXED", modules=3, with_filter=True, with_counter=True, with_arithmetic=True
)


@pytest.mark.parametrize(
    "source",
    [benchmark_source("STOPWATCH"), generate_control_program(MIXED_SPEC)],
    ids=["STOPWATCH", "MIXED"],
)
@pytest.mark.parametrize("style", list(GenerationStyle))
def test_emitters_do_not_mutate_the_step_ir(source, style):
    """Every backend renders from one shared IR; none may change it."""
    result = compile_source(source)
    ir = build_step_ir(result.schedule, result.types, style)
    before = ir_to_payload(ir)
    emitters = {
        "python": generate_python_source,
        "c": generate_c_source,
        "c_shared": generate_c_shared_source,
    }
    forward = {name: emit(ir) for name, emit in emitters.items()}
    backward = {name: emitters[name](ir) for name in reversed(list(emitters))}
    assert forward == backward
    assert ir_to_payload(ir) == before
