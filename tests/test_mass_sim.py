"""The mass-simulation runtime: loaded C populations vs reference behaviour.

The contract under test (ROADMAP item 1, paper Section 2.6): stepping a
population of N instances through the columnar C runtime is
observationally identical to N *independent* single-instance runs of the
generated Python step -- same presence, same values, tick for tick --
while the machine code actually executes the C backend's arithmetic.

Everything that needs a C toolchain is skipped cleanly when none is
installed; the Python population backend is exercised unconditionally.
"""

import random

import pytest

from repro import compile_source
from repro.codegen.ir import GenerationStyle
from repro.compiler import compile_modular_source
from repro.errors import SimulationError
from repro.programs import (
    ALARM_SOURCE,
    COUNTER_SOURCE,
    WATCHDOG_SOURCE,
    ControlProgramSpec,
    generate_control_program,
)
from repro.runtime import (
    LoadedCProcess,
    MassSimulation,
    ReactiveExecutor,
    SharedCProgram,
    find_c_compiler,
    random_input_schedule,
)
from repro.service import CompilationService
from repro.service.store import record_from_result

CC = find_c_compiler()
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler installed")

#: a hierarchical control program exercising modes, counters, filters and
#: the floored-arithmetic block (negative dividends and divisors)
CONTROL_SPEC = ControlProgramSpec(
    name="MASSCTL",
    modules=2,
    branching=2,
    sensors=2,
    with_filter=True,
    with_counter=True,
    with_arithmetic=True,
)

XOR_SOURCE = """process XORPIN =
  ( ? boolean A, B;
    ! boolean X; )
  (| X := A xor B
   |)
end;
"""


CONTROL_SOURCE = generate_control_program(CONTROL_SPEC)


@pytest.fixture(scope="module")
def control_result():
    return compile_source(CONTROL_SOURCE, build_flat=True)


@pytest.fixture(scope="module")
def counter_result():
    return compile_source(COUNTER_SOURCE)


def schedules(result, executable, instances, ticks, seed):
    return [
        random_input_schedule(
            result.types,
            executable.inputs,
            executable.root_flags,
            steps=ticks,
            seed=random.Random(f"mass:{seed}:{index}"),
        )
        for index in range(instances)
    ]


def independent_python_runs(executable, per_instance_schedules):
    """Reference: each instance stepped alone on a fresh Python step."""
    traces = []
    for schedule in per_instance_schedules:
        process = executable.fresh()
        traces.append([process.step(dict(instant)) for instant in schedule])
    return traces


def population_trace(simulation, per_instance_schedules, ticks):
    """Transposed population run: ``[instance][tick] -> outputs``."""
    instances = len(per_instance_schedules)
    per_instance = [[] for _ in range(instances)]
    for tick in range(ticks):
        record = simulation.step(
            [per_instance_schedules[index][tick] for index in range(instances)]
        )
        for index, outputs in enumerate(record):
            per_instance[index].append(outputs)
    return per_instance


# -- population == N independent single runs ---------------------------------
@needs_cc
def test_c_population_equals_independent_single_runs(control_result):
    ticks, instances = 24, 6
    executable = control_result.executable
    per_instance = schedules(control_result, executable, instances, ticks, seed=1)
    simulation = MassSimulation.from_result(control_result, instances, backend="c")
    assert simulation.backend == "c"
    got = population_trace(simulation, per_instance, ticks)
    expected = independent_python_runs(executable, per_instance)
    assert got == expected


def test_python_population_equals_independent_single_runs(control_result):
    ticks, instances = 16, 4
    executable = control_result.executable
    per_instance = schedules(control_result, executable, instances, ticks, seed=2)
    simulation = MassSimulation.from_result(control_result, instances, backend="python")
    assert simulation.backend == "python"
    got = population_trace(simulation, per_instance, ticks)
    assert got == independent_python_runs(executable, per_instance)


@needs_cc
def test_flat_style_population_matches_hierarchical(control_result):
    ticks, instances = 12, 3
    executable = control_result.executable
    per_instance = schedules(control_result, executable, instances, ticks, seed=3)
    nested = MassSimulation.from_result(control_result, instances, backend="c")
    flat = MassSimulation.from_result(
        control_result, instances, backend="c", style=GenerationStyle.FLAT
    )
    assert population_trace(nested, per_instance, ticks) == population_trace(
        flat, per_instance, ticks
    )


# -- absent-value handling ---------------------------------------------------
@needs_cc
def test_absent_tick_produces_no_outputs(counter_result):
    (_, root_key, _), = counter_result.executable.root_flags
    loaded = SharedCProgram.from_result(counter_result).process()
    assert loaded.step({root_key: False, "RESET": True}) == {}
    # The absent tick must not have advanced the state either.
    assert loaded.step({root_key: True, "RESET": True}) == {"N": 0}
    assert loaded.step({root_key: True, "RESET": False}) == {"N": 1}
    assert loaded.step({root_key: False, "RESET": False}) == {}
    assert loaded.step({root_key: True, "RESET": False}) == {"N": 2}


@needs_cc
def test_per_instance_presence_is_independent(counter_result):
    (_, root_key, _), = counter_result.executable.root_flags
    simulation = MassSimulation.from_result(counter_result, 2, backend="c")
    # Instance 0 ticks every instant; instance 1 is absent on even instants.
    for tick in range(6):
        record = simulation.step(
            [
                {root_key: True, "RESET": False},
                {root_key: tick % 2 == 1, "RESET": False},
            ]
        )
        assert record[0] == {"N": tick + 1}
        if tick % 2 == 1:
            assert record[1] == {"N": (tick + 1) // 2}
        else:
            assert record[1] == {}
    assert record.present_count("N") == 2


# -- state isolation ---------------------------------------------------------
@needs_cc
def test_state_isolation_between_instances(counter_result):
    (_, root_key, _), = counter_result.executable.root_flags
    simulation = MassSimulation.from_result(counter_result, 3, backend="c")
    for _ in range(5):
        simulation.step(
            [
                {root_key: True, "RESET": False},
                {root_key: True, "RESET": True},  # permanently reset
                {root_key: False},  # never present
            ]
        )
    record = simulation.step(
        [{root_key: True, "RESET": False}] * 3
    )
    assert record.outputs == [{"N": 6}, {"N": 1}, {"N": 1}]


@needs_cc
def test_loaded_process_fresh_is_isolated(counter_result):
    (_, root_key, _), = counter_result.executable.root_flags
    first = SharedCProgram.from_result(counter_result).process()
    for _ in range(4):
        first.step({root_key: True, "RESET": False})
    second = first.fresh()
    assert second.step({root_key: True, "RESET": False}) == {"N": 1}
    assert first.step({root_key: True, "RESET": False}) == {"N": 5}


@needs_cc
def test_reset_restores_initial_registers(control_result):
    ticks, instances = 8, 3
    executable = control_result.executable
    per_instance = schedules(control_result, executable, instances, ticks, seed=4)
    simulation = MassSimulation.from_result(control_result, instances, backend="c")
    before = population_trace(simulation, per_instance, ticks)
    simulation.reset()
    assert population_trace(simulation, per_instance, ticks) == before


# -- semantics pinned at the value level -------------------------------------
@needs_cc
def test_loaded_c_uses_floored_division_and_modulo():
    source = """process FLOORED =
      ( ? integer A;
        ! integer Q, R, QN, RN; )
      (| Q := A / 3
       | R := A modulo 3
       | QN := A / (0 - 2)
       | RN := A modulo (0 - 2)
       |)
    end;
    """
    result = compile_source(source)
    loaded = SharedCProgram.from_result(result).process()
    for a in range(-7, 8):
        outputs = loaded.step({"A": a})
        assert outputs == {
            "Q": a // 3,
            "R": a % 3,
            "QN": a // -2,
            "RN": a % -2,
        }, f"A={a}: {outputs}"


@needs_cc
def test_xor_traces_identical_across_backends():
    result = compile_source(XOR_SOURCE, build_flat=True)
    loaded = SharedCProgram.from_result(result).process()
    python = result.executable.fresh()
    table = [(a, b) for a in (False, True) for b in (False, True)]
    for a, b in table:
        inputs = {"A": a, "B": b}
        expected = {"X": a != b}
        assert loaded.step(inputs) == expected
        assert python.step(dict(inputs)) == expected


# -- executor integration ----------------------------------------------------
@needs_cc
def test_reactive_executor_drives_loaded_c(control_result):
    executable = control_result.executable
    schedule = schedules(control_result, executable, 1, 16, seed=5)[0]
    loaded = SharedCProgram.from_result(control_result).process()
    c_trace = ReactiveExecutor(loaded).run(16, inputs_per_step=schedule)
    python_trace = ReactiveExecutor(executable.fresh()).run(
        16, inputs_per_step=schedule
    )
    assert [step.outputs for step in c_trace] == [
        step.outputs for step in python_trace
    ]


# -- records, backends and fallback ------------------------------------------
@needs_cc
def test_population_from_artifact_record(control_result):
    record = record_from_result(
        control_result, GenerationStyle.HIERARCHICAL, source=CONTROL_SOURCE
    )
    ticks, instances = 10, 3
    executable = control_result.executable
    per_instance = schedules(control_result, executable, instances, ticks, seed=6)
    from_record = MassSimulation.from_record(record, instances, backend="c")
    assert from_record.backend == "c"
    assert population_trace(
        from_record, per_instance, ticks
    ) == independent_python_runs(executable, per_instance)


@needs_cc
@pytest.mark.parametrize("modular", [False, True])
def test_lean_record_steps_like_a_direct_c_shared_build(modular):
    """A record without ``c_shared`` is completed from its source: it loads
    exactly the text of the compile it came from and steps like that text
    built directly."""
    service = CompilationService()
    record = service.compile_record(ALARM_SOURCE, modular=modular)
    assert "c_shared" not in record["artifacts"]
    compile_ = compile_modular_source if modular else compile_source
    direct = compile_(ALARM_SOURCE)
    assert service.complete_record(record)["artifacts"]["c_shared"] == (
        direct.c_shared_source()
    )
    executable = direct.executable
    ticks, instances = 12, 3
    per_instance = schedules(direct, executable, instances, ticks, seed=9)
    lean = MassSimulation.from_record(record, instances, backend="c")
    built = SharedCProgram.from_metadata(
        direct.c_shared_source(),
        name=executable.name,
        style=GenerationStyle.HIERARCHICAL,
        inputs=executable.inputs,
        outputs=executable.outputs,
        root_flags=executable.root_flags,
        types=direct.types,
    )
    direct_run = MassSimulation(instances, "c", population=built.population(instances))
    assert population_trace(lean, per_instance, ticks) == population_trace(
        direct_run, per_instance, ticks
    )


@pytest.mark.parametrize("backend", ["python", "c"])
def test_malformed_record_raises_simulation_error_on_both_backends(backend):
    record = record_from_result(
        compile_source(ALARM_SOURCE), GenerationStyle.HIERARCHICAL, source=ALARM_SOURCE
    )
    hollow = {key: record[key] for key in ("format", "kind", "fingerprint", "style",
                                           "build_flat")}
    if backend == "c" and CC is None:
        pytest.skip("no C compiler installed")
    with pytest.raises(SimulationError, match="not a loadable artifact record"):
        MassSimulation.from_record(hollow, 2, backend=backend)


@pytest.mark.parametrize("source", ["process X = (", WATCHDOG_SOURCE])
def test_lean_record_whose_source_does_not_compile_to_it_raises_simulation_error(source):
    """The C backend completes a lean record from its source; a source that
    does not parse, or that compiles to another program, is a malformed
    record there.  (The Python backend reads no source.)"""
    record = record_from_result(
        compile_source(ALARM_SOURCE), GenerationStyle.HIERARCHICAL, source=ALARM_SOURCE
    )
    if CC is None:
        pytest.skip("no C compiler installed")
    with pytest.raises(SimulationError, match="not a loadable artifact record"):
        MassSimulation.from_record({**record, "source": source}, 2, backend="c")


def test_auto_backend_falls_back_without_compiler(control_result, monkeypatch):
    monkeypatch.setenv("REPRO_CC", "")
    assert find_c_compiler() is None
    simulation = MassSimulation.from_result(control_result, 2, backend="auto")
    assert simulation.backend == "python"


def test_c_backend_without_compiler_raises(control_result, monkeypatch):
    monkeypatch.setenv("REPRO_CC", "")
    with pytest.raises(SimulationError, match="no C compiler"):
        MassSimulation.from_result(control_result, 2, backend="c")


def test_unknown_backend_rejected(control_result):
    with pytest.raises(ValueError, match="unknown backend"):
        MassSimulation.from_result(control_result, 2, backend="fortran")


def test_population_needs_matching_input_count(control_result):
    simulation = MassSimulation.from_result(control_result, 3, backend="python")
    with pytest.raises(ValueError, match="expected 3"):
        simulation.step([{}, {}])


@needs_cc
def test_broadcast_single_mapping(counter_result):
    (_, root_key, _), = counter_result.executable.root_flags
    simulation = MassSimulation.from_result(counter_result, 4, backend="c")
    record = simulation.step({root_key: True, "RESET": False})
    assert record.outputs == [{"N": 1}] * 4
    assert len(record) == 4
    assert list(record) == record.outputs


@needs_cc
def test_packed_drive_matches_dict_drive(control_result):
    """The benchmark's fast columnar path is the same machine as step()."""
    ticks, instances = 12, 5
    executable = control_result.executable
    per_instance = schedules(control_result, executable, instances, ticks, seed=7)
    program = SharedCProgram.from_result(control_result)

    population = program.population(instances)
    packed = population.pack_schedule(per_instance)
    assert len(packed) == ticks
    snapshots = []
    for roots, columns in packed:
        population.step_packed(roots, columns)
        snapshots.append(population.output_snapshot())
    packed_trace = [population.decode_outputs(snapshot) for snapshot in snapshots]

    reference = program.population(instances)
    dict_trace = [
        reference.step([per_instance[index][tick] for index in range(instances)])
        for tick in range(ticks)
    ]
    assert packed_trace == dict_trace
