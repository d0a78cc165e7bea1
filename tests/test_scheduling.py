"""Tests for the triangular scheduling of clock and signal computations."""

import pytest

from repro.clocks.equations import extract_clock_system
from repro.clocks.resolution import PartitionDefinition, FormulaDefinition, resolve
from repro.errors import CausalityError
from repro.graph.dependency import build_dependency_graph
from repro.graph.scheduling import ComputeClock, ComputeSignal, build_schedule
from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.lang.types import infer_types
from repro.programs import ALARM_SOURCE, COUNTER_SOURCE, WATCHDOG_SOURCE


def schedule_of(source):
    program = normalize(parse_process(source))
    types = infer_types(program)
    hierarchy = resolve(extract_clock_system(program, types))
    graph = build_dependency_graph(program)
    return build_schedule(program, hierarchy, graph)


def positions(schedule):
    return {action: index for index, action in enumerate(schedule.actions)}


class TestOrderingInvariants:
    @pytest.mark.parametrize("source", [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE])
    def test_clock_before_its_signals(self, source):
        schedule = schedule_of(source)
        where = positions(schedule)
        for signal, clock_class in schedule.signal_class.items():
            assert where[ComputeClock(clock_class.id)] < where[ComputeSignal(signal)]

    @pytest.mark.parametrize("source", [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE])
    def test_partition_after_its_parent_and_condition(self, source):
        schedule = schedule_of(source)
        where = positions(schedule)
        hierarchy = schedule.hierarchy
        for clock_class in hierarchy.classes:
            if clock_class.is_null:
                continue
            definition = clock_class.definition
            if isinstance(definition, PartitionDefinition):
                condition_action = ComputeSignal(definition.condition)
                if condition_action in where:
                    assert where[condition_action] < where[ComputeClock(clock_class.id)]

    @pytest.mark.parametrize("source", [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE])
    def test_value_dependencies_respected(self, source):
        schedule = schedule_of(source)
        where = positions(schedule)
        for edge in schedule.graph.edges:
            if isinstance(edge.source, str) and isinstance(edge.target, str):
                source_action = ComputeSignal(edge.source)
                target_action = ComputeSignal(edge.target)
                if source_action in where and target_action in where:
                    assert where[source_action] < where[target_action]

    def test_every_scheduled_signal_has_a_class(self):
        schedule = schedule_of(ALARM_SOURCE)
        scheduled = {a.signal for a in schedule.actions if isinstance(a, ComputeSignal)}
        assert scheduled == set(schedule.signal_class)

    def test_null_clocked_signals_are_not_scheduled(self):
        schedule = schedule_of(
            "process P = ( ? integer A; boolean C; ! integer X, Y; )"
            " (| X := (A when C) when (not C) | Y := A |) end;"
        )
        assert "X" not in schedule.signal_class
        assert "Y" in schedule.signal_class

    def test_depends_on_transitivity(self):
        schedule = schedule_of(COUNTER_SOURCE)
        n_class = schedule.signal_class["N"]
        assert schedule.depends_on(ComputeSignal("N"), ComputeClock(n_class.id))
        assert not schedule.depends_on(ComputeClock(n_class.id), ComputeSignal("N"))

    def test_instantaneous_cycle_is_rejected(self):
        with pytest.raises(CausalityError):
            schedule_of(
                "process P = ( ? integer A; ! integer X, Y; )"
                " (| X := Y + A | Y := X + A |) end;"
            )

    def test_cycle_left_by_the_causality_check_is_named(self):
        # X reads Y only when C and Y reads X only when not C: the meet of
        # the cycle's edge labels is empty, so the causality check passes.
        # The schedule ignores labels; its sort names every action it
        # cannot place, in declaration order.
        program = normalize(parse_process(
            "process P = ( ? boolean C; integer A; ! integer X, Y; )"
            " (| X := (Y when C) default A | Y := (X when (not C)) default A"
            " | synchro {X, Y, A} |) end;"
        ))
        hierarchy = resolve(extract_clock_system(program, infer_types(program)))
        graph = build_dependency_graph(program)
        graph.check_causality(hierarchy)
        with pytest.raises(CausalityError) as excinfo:
            build_schedule(program, hierarchy, graph)
        assert excinfo.value.message == (
            "cannot order computations (instantaneous cycle): "
            "signal X, signal Y, signal w_k1, signal w_k3"
        )

    def test_ordered_accessors(self):
        schedule = schedule_of(COUNTER_SOURCE)
        assert set(schedule.ordered_signals()) == set(schedule.signal_class)
        assert len(schedule.ordered_classes()) == len(
            [c for c in schedule.hierarchy.placement_order if not c.is_null]
        )
