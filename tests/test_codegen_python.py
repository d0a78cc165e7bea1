"""Behavioural tests of the generated Python code (both styles)."""

import pytest

from repro import GenerationStyle, compile_source
from repro.errors import SimulationError
from repro.programs import ACCUMULATOR_SOURCE, COUNTER_SOURCE, WATCHDOG_SOURCE


class TestCounter:
    def test_counts_and_resets(self, counter_step):
        values = [
            counter_step.step({"RESET": r})["N"]
            for r in [False, False, True, False, True, False, False]
        ]
        assert values == [1, 2, 0, 1, 0, 1, 2]

    def test_reset_method_restores_initial_state(self, counter_step):
        counter_step.step({"RESET": False})
        counter_step.step({"RESET": False})
        counter_step.reset()
        assert counter_step.step({"RESET": False})["N"] == 1

    def test_missing_input_raises(self, counter_step):
        with pytest.raises(SimulationError):
            counter_step.step({})

    def test_oracle_supplies_missing_inputs(self, counter_step):
        outputs = counter_step.step({}, oracle=lambda name: False)
        assert outputs["N"] == 1

    def test_observe_collects_every_present_signal(self, counter_step):
        observed = {}
        counter_step.step({"RESET": False}, observe=observed)
        assert observed["RESET"] is False
        assert observed["N"] == 1
        assert observed["ZN"] == 0

    def test_run_convenience(self, counter_step):
        outputs = counter_step.run([{"RESET": False}] * 3)
        assert [o["N"] for o in outputs] == [1, 2, 3]


class TestAccumulator:
    def test_total_emitted_only_on_emit(self, accumulator_result):
        process = accumulator_result.executable
        process.reset()
        assert process.step({"X": 5, "EMIT": False}) == {}
        assert process.step({"X": 7, "EMIT": True}) == {"TOTAL": 12}
        assert process.step({"X": 1, "EMIT": False}) == {}
        assert process.step({"X": 2, "EMIT": True}) == {"TOTAL": 15}

    def test_flat_style_behaves_identically(self, accumulator_result):
        flat = accumulator_result.executable_flat
        flat.reset()
        assert flat.step({"X": 5, "EMIT": True}) == {"TOTAL": 5}


class TestWatchdog:
    def test_alarm_after_limit_missed_ticks(self, watchdog_result):
        process = watchdog_result.executable
        process.reset()
        outputs = []
        for life in [True, False, False, False, True, False]:
            outputs.append(process.step({"LIFE_SIGN": life, "LIMIT": 3})["ALARM"])
        assert outputs == [False, False, False, True, False, False]


class TestGeneratedSource:
    def test_python_source_is_valid_and_documented(self, counter_result):
        source = counter_result.python_source()
        assert "class COUNT_step" in source
        assert "def step" in source
        compile(source, "<check>", "exec")

    def test_hierarchical_source_nests_guards(self, alarm_result):
        source = alarm_result.python_source(GenerationStyle.HIERARCHICAL)
        # There is at least one guard nested inside another guard.
        assert "\n            if h" in source or "\n                if h" in source

    def test_flat_source_has_single_level_guards(self, alarm_result):
        source = alarm_result.python_source(GenerationStyle.FLAT)
        # Flat code never nests two levels of clock tests inside the body.
        assert "\n                if h" not in source

    def test_registers_initialized_with_declared_init(self, counter_result):
        source = counter_result.python_source()
        assert "self.z_ZN = 0" in source

    def test_every_step_is_observable(self):
        result = compile_source(COUNTER_SOURCE)
        observed = {}
        outputs = result.executable.step({"RESET": False}, observe=observed)
        assert outputs["N"] == 1
        assert observed["N"] == 1 and observed["RESET"] is False
        assert "def step(self, inputs, oracle=None, observe=None):" in result.python_source()

    def test_inputs_and_outputs_lists(self, accumulator_result):
        assert accumulator_result.executable.inputs == ["X", "EMIT"]
        assert accumulator_result.executable.outputs == ["TOTAL"]

    def test_root_flags_exposed(self, alarm_result):
        flags = alarm_result.executable.root_flags
        assert len(flags) == 1
        _, key, default = flags[0]
        assert default is True
        assert key.startswith("h_")


class TestMultiRootPrograms:
    SOURCE = """
    process PAIR =
      ( ? integer A, B;
        ! integer X, Y; )
      (| X := A + 1
       | Y := B + 2
       |)
    end;
    """

    def test_independent_clocks_driven_separately(self):
        result = compile_source(self.SOURCE)
        process = result.executable
        flags = {key: True for _, key, _ in process.root_flags}
        some_flag = process.root_flags[0][1]
        # Drive only one of the two free clocks.
        only_first = dict(flags)
        for key in only_first:
            only_first[key] = key == some_flag
        outputs = process.step({**only_first, "A": 1, "B": 5}, oracle=lambda n: 0)
        assert len(outputs) == 1

    def test_both_clocks_active(self):
        result = compile_source(self.SOURCE)
        process = result.executable
        flags = {key: True for _, key, _ in process.root_flags}
        outputs = process.step({**flags, "A": 1, "B": 5})
        assert outputs == {"X": 2, "Y": 7}
