"""Tests for the Figure 13 benchmark program suite and the program generator."""

import pytest

from repro.compiler import analyze_source, compile_source
from repro.programs import (
    BENCHMARK_PROGRAMS,
    ControlProgramSpec,
    benchmark_names,
    benchmark_source,
    generate_control_program,
    paper_reference,
)
from repro.runtime import ReactiveExecutor, random_oracle


class TestGenerator:
    def test_single_module_program(self):
        source = generate_control_program(ControlProgramSpec("ONE", modules=1))
        result = compile_source(source)
        assert result.hierarchy.is_resolved
        assert result.hierarchy.master_class() is not None

    def test_module_count_scales_variables(self):
        small = analyze_source(
            generate_control_program(ControlProgramSpec("S", modules=2))
        )[2].variable_count()
        large = analyze_source(
            generate_control_program(ControlProgramSpec("L", modules=6))
        )[2].variable_count()
        assert large > 2 * small

    def test_invalid_module_count_rejected(self):
        with pytest.raises(ValueError):
            generate_control_program(ControlProgramSpec("BAD", modules=0))

    def test_parent_of_tree_shape(self):
        spec = ControlProgramSpec("T", modules=7, branching=2)
        assert spec.parent_of(0) is None
        assert spec.parent_of(1) == 0
        assert spec.parent_of(2) == 0
        assert spec.parent_of(3) == 1
        assert spec.parent_of(6) == 2

    def test_options_change_program_content(self):
        with_extras = generate_control_program(ControlProgramSpec("A", modules=1))
        without = generate_control_program(
            ControlProgramSpec("B", modules=1, with_counter=False, with_filter=False)
        )
        assert "CNT_0" in with_extras and "FLT_0" in with_extras
        assert "CNT_0" not in without and "FLT_0" not in without

    def test_generated_program_is_executable(self):
        source = generate_control_program(ControlProgramSpec("RUN", modules=2, sensors=2))
        result = compile_source(source)
        result.executable.reset()
        trace = ReactiveExecutor(result.executable).run(
            10, random_oracle(result.types, seed=1)
        )
        # The root module's alarm is emitted whenever its mode is on.
        assert len(trace) == 10

    def test_nested_module_clock_is_included_in_parent_mode(self):
        source = generate_control_program(ControlProgramSpec("NEST", modules=2))
        result = compile_source(source)
        hierarchy = result.hierarchy
        from repro.clocks.algebra import CondTrue, SignalClock

        child_clock = hierarchy.encode(SignalClock("MODE_1"))
        parent_on = hierarchy.encode(CondTrue("MODE_0"))
        assert (child_clock & ~parent_on).is_false


class TestSuite:
    def test_paper_order_and_names(self):
        assert benchmark_names() == [
            "STOPWATCH",
            "WATCH",
            "ALARM",
            "CHRONO",
            "SUPERVISOR",
            "PACE_MAKER",
            "ROBOT",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            benchmark_source("TEAPOT")

    def test_paper_reference_rows(self):
        for name in benchmark_names():
            reference = paper_reference(name)
            assert reference["variables"] > 0
            assert reference["tbdd_nodes"] > 0

    @pytest.mark.parametrize("name", ["ROBOT", "PACE_MAKER", "SUPERVISOR", "CHRONO"])
    def test_small_programs_resolve_with_one_master_clock(self, name):
        _, _, system, hierarchy = analyze_source(benchmark_source(name))
        assert hierarchy.is_resolved
        assert hierarchy.master_class() is not None
        assert hierarchy.forest.tree_count() == 1

    @pytest.mark.parametrize("name", ["ROBOT", "PACE_MAKER", "SUPERVISOR", "CHRONO"])
    def test_variable_counts_match_paper_within_tolerance(self, name):
        _, _, system, _ = analyze_source(benchmark_source(name))
        target = paper_reference(name)["variables"]
        assert abs(system.variable_count() - target) / target < 0.20

    @pytest.mark.parametrize("name", benchmark_names())
    def test_bdd_node_count_is_the_union_of_per_class_walks(self, name):
        """One shared walk counts exactly the nodes of the per-class walks."""
        _, _, _, hierarchy = analyze_source(benchmark_source(name))
        refs = set()
        for clock_class in hierarchy.classes:
            if clock_class.bdd is not None:
                refs.update(ref for ref, *_ in hierarchy.manager.iter_nodes(clock_class.bdd))
        assert hierarchy.statistics()["bdd_nodes"] == len(refs) > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["ALARM", "WATCH", "STOPWATCH"])
    def test_large_programs_resolve(self, name):
        _, _, system, hierarchy = analyze_source(benchmark_source(name))
        assert hierarchy.is_resolved
        target = paper_reference(name)["variables"]
        assert abs(system.variable_count() - target) / target < 0.20
