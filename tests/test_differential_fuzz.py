"""Differential fuzzing: interpreter vs hierarchical vs flat compiled code.

Every test case is derived from a single integer seed: the seed drives the
shape of a randomly generated hierarchical control program (via
:class:`~repro.programs.ControlProgramSpec`) *and* the random input oracle.
Each program is compiled twice -- through a shared
:class:`~repro.CompilationService` and once standalone -- and executed for
``REACTIONS`` reactions in both generation styles; the observations are
replayed on the reference :class:`KernelInterpreter`.  A separate pass
pushes the whole corpus through ``compile_batch_records(jobs=N)`` and
proves the worker processes' artifact records rebuild executables with
identical behaviour.
Any divergence is a compilation bug, and the failing seed reproduces the
whole case.

A further pass (skipped cleanly when no C toolchain is installed) builds
the reentrant C of a subset of the corpus with ``cc -shared``, loads it
through :mod:`ctypes` and proves the *machine code* produces exactly the
Python backend's outputs tick for tick -- including the floored
integer-division/modulo corpus with negative operands that a naive C
lowering gets wrong.

Environment knobs (used by the CI parallel matrix entry):

* ``REPRO_FUZZ_PROCESS_JOBS`` -- worker processes for the batch pass
  (default 2, CI also runs 4);
* ``REPRO_FUZZ_C_STRIDE`` -- seed stride of the loaded-C pass (default 4:
  every fourth seed; CI runs 1 = the whole corpus);
* ``REPRO_FUZZ_MODULAR`` -- when ``1``, the modular-compilation pass runs
  the whole corpus instead of every fourth seed;
* ``REPRO_FUZZ_DISTRIBUTED`` -- when ``1``, the distributed (partitioned)
  pass runs the whole corpus instead of every fourth seed.
"""

import dataclasses
import os
import random

import pytest

from repro import CompilationService, compile_source
from repro.codegen.ir import GenerationStyle
from repro.lang import normalize, parse_process
from repro.lang.units import split_units
from repro.programs import (
    ControlProgramSpec,
    FleetSpec,
    fleet_member_modules,
    generate_control_program,
    generate_fleet,
)
from repro.runtime import (
    ReactiveExecutor,
    SharedCProgram,
    find_c_compiler,
    random_input_schedule,
    random_oracle,
)
from repro.service import (
    CompileStore,
    executable_from_record,
    record_from_result,
    types_from_record,
    unit_store_key,
)

MASTER_SEED = 19950621  # PLDI'95
NUM_PROGRAMS = 52
REACTIONS = 32
PROCESS_JOBS = int(os.environ.get("REPRO_FUZZ_PROCESS_JOBS", "2"))
C_STRIDE = int(os.environ.get("REPRO_FUZZ_C_STRIDE", "4"))
CC = find_c_compiler()

#: One shared service for the whole module: its cache hits must behave
#: exactly like the standalone compiles they replace.
_SHARED_SERVICE = CompilationService(max_entries=NUM_PROGRAMS * 2)


def spec_for_seed(seed):
    """A seeded random program shape (kept small so the suite stays fast)."""
    rng = random.Random(f"{MASTER_SEED}:{seed}")
    return ControlProgramSpec(
        name=f"FUZZ_{seed}",
        modules=rng.randint(1, 3),
        branching=rng.randint(1, 3),
        sensors=rng.randint(0, 3),
        with_filter=rng.choice([True, False]),
        with_counter=rng.choice([True, False]),
        # Drawn last so the shapes of pre-existing seeds are unchanged --
        # only the arithmetic block is new.  It combines / and modulo with
        # negative dividends *and* divisors, the corpus that catches
        # truncate-toward-zero C lowerings of SIGNAL's floored division.
        with_arithmetic=rng.choice([True, False]),
    )


def oracle_for_seed(types, seed):
    """The input oracle of one run, derived from the case seed."""
    return random_oracle(types, seed=random.Random(f"{MASTER_SEED}:{seed}:inputs"))


def run_executable(result, executable, seed):
    executable.reset()
    executor = ReactiveExecutor(executable)
    return executor.run(REACTIONS, oracle_for_seed(result.types, seed))


def assert_matches_interpreter(result, trace, seed, label):
    """Replay a compiled-code trace on the reference interpreter."""
    interpreter = result.interpreter()
    for index, step in enumerate(trace):
        expected = interpreter.step(step.inputs, present=step.observations.keys())
        assert set(expected) == set(step.observations), (
            f"seed {seed} [{label}]: presence mismatch at reaction {index}: "
            f"{set(expected) ^ set(step.observations)}"
        )
        for name, value in step.observations.items():
            assert expected.get(name) == value, (
                f"seed {seed} [{label}]: reaction {index}: {name} = {value!r}, "
                f"interpreter says {expected.get(name)!r}"
            )


def observations(trace):
    return [(step.observations, step.outputs) for step in trace]


@pytest.mark.parametrize("seed", range(NUM_PROGRAMS))
def test_differential_fuzz(seed):
    source = generate_control_program(spec_for_seed(seed))

    pooled = _SHARED_SERVICE.compile(source, build_flat=True)
    unpooled = compile_source(source, build_flat=True)

    # Hierarchical style vs the reference interpreter, pooled and unpooled.
    pooled_nested = run_executable(pooled, pooled.executable, seed)
    assert_matches_interpreter(pooled, pooled_nested, seed, "pooled/nested")
    unpooled_nested = run_executable(unpooled, unpooled.executable, seed)
    assert_matches_interpreter(unpooled, unpooled_nested, seed, "unpooled/nested")

    # Flat style agrees with the hierarchical style (same seed, same oracle).
    pooled_flat = run_executable(pooled, pooled.executable_flat, seed)
    assert observations(pooled_flat) == observations(pooled_nested), (
        f"seed {seed}: flat and hierarchical styles diverge (pooled manager)"
    )
    unpooled_flat = run_executable(unpooled, unpooled.executable_flat, seed)
    assert observations(unpooled_flat) == observations(unpooled_nested), (
        f"seed {seed}: flat and hierarchical styles diverge (unpooled manager)"
    )

    # The service must not change the generated behaviour at all.
    assert observations(pooled_nested) == observations(unpooled_nested), (
        f"seed {seed}: service and standalone compilations disagree"
    )
    assert pooled.python_source() == unpooled.python_source(), (
        f"seed {seed}: service and standalone generated Python differ"
    )


def test_fuzz_program_count():
    """The harness really covers the advertised number of seeded programs."""
    assert NUM_PROGRAMS >= 50


def test_fuzz_specs_are_deterministic():
    assert spec_for_seed(3) == spec_for_seed(3)
    assert [spec_for_seed(s) for s in range(5)] != [spec_for_seed(s + 1) for s in range(5)]


def test_process_parallel_batch_matches_reference():
    """The whole corpus through worker processes: records == serial == oracle.

    ``compile_batch_records(jobs=N)`` returns artifact records built in
    worker processes (each with its own BDD manager and cache).  For every
    seed, the record must carry exactly the generated Python a standalone
    compile produces, and the executable rebuilt from the record must
    replay cleanly on the reference interpreter -- no execution mode ships
    unproven.
    """
    seeds = list(range(NUM_PROGRAMS))
    sources = [generate_control_program(spec_for_seed(seed)) for seed in seeds]
    with CompilationService(max_entries=NUM_PROGRAMS * 2) as service:
        records = service.compile_batch_records(
            sources, jobs=PROCESS_JOBS, build_flat=True
        )
    assert len(records) == len(seeds)
    for seed, source, record in zip(seeds, sources, records):
        reference = compile_source(source, build_flat=True)
        assert record["artifacts"]["python"] == reference.python_source(), (
            f"seed {seed}: process-parallel generated Python differs"
        )
        assert record["fingerprint"] == reference.program.fingerprint()

        executable = executable_from_record(record)
        executable.reset()
        trace = ReactiveExecutor(executable).run(
            REACTIONS, oracle_for_seed(types_from_record(record), seed)
        )
        assert_matches_interpreter(reference, trace, seed, "process/nested")

        flat = executable_from_record(record, flat=True)
        flat.reset()
        flat_trace = ReactiveExecutor(flat).run(
            REACTIONS, oracle_for_seed(types_from_record(record), seed)
        )
        assert observations(flat_trace) == observations(trace), (
            f"seed {seed}: process-parallel flat and hierarchical styles diverge"
        )


def test_shared_service_kept_programs_isolated():
    """After the fuzz run, spot-check that programs never share a manager."""
    sources = [generate_control_program(spec_for_seed(seed)) for seed in (0, 1)]
    results = [_SHARED_SERVICE.compile(source, build_flat=True) for source in sources]
    assert results[0].hierarchy.manager is not results[1].hierarchy.manager


# -- loaded-C execution ------------------------------------------------------
#
# The C backend used to be emit-only; these tests run it.  Both backends are
# driven from one pre-drawn input schedule (a complete assignment per tick)
# because the loaded C consumes inputs positionally while the Python step
# pulls them on demand -- a shared stateful oracle would desynchronize.

ARITHMIX_SOURCE = """process ARITHMIX =
  ( ? integer A, B;
    ! integer Q1, R1, Q2, R2, Q3, R3;
    boolean X1; )
  (| D := (B * B) + 1
   | ND := 0 - D
   | Q1 := A / 3
   | R1 := A modulo 3
   | Q2 := A / ND
   | R2 := A modulo ND
   | Q3 := (A - 5) / (0 - 2)
   | R3 := (A + 5) modulo (0 - 3)
   | X1 := (A >= 0) xor (B >= 0)
   |)
  where integer D, ND;
end;
"""


def schedule_for_seed(result, executable, seed, label):
    return random_input_schedule(
        result.types,
        executable.inputs,
        executable.root_flags,
        steps=REACTIONS,
        seed=random.Random(f"{MASTER_SEED}:{seed}:{label}"),
    )


def assert_replay_on_interpreter(result, trace, seed, label):
    """Like :func:`assert_matches_interpreter` for schedule-driven traces.

    Schedules draw free-clock presence, so whole reactions may be absent;
    undetermined signals of such instants are forced absent on replay
    (``unknown_as_absent``) instead of being rejected.
    """
    interpreter = result.interpreter()
    for index, step in enumerate(trace):
        expected = interpreter.step(
            step.inputs,
            present=step.observations.keys(),
            unknown_as_absent=True,
        )
        assert expected == dict(step.observations), (
            f"seed {seed} [{label}]: reaction {index}: compiled code observed "
            f"{step.observations}, interpreter says {expected}"
        )


@pytest.mark.skipif(CC is None, reason="no C compiler installed")
@pytest.mark.parametrize("seed", range(0, NUM_PROGRAMS, C_STRIDE))
def test_differential_fuzz_loaded_c(seed):
    """Loaded C == Python backend == reference interpreter, per tick."""
    source = generate_control_program(spec_for_seed(seed))
    result = _SHARED_SERVICE.compile(source, build_flat=True)

    executable = result.executable.fresh()
    schedule = schedule_for_seed(result, executable, seed, "schedule")
    python_trace = ReactiveExecutor(executable).run(
        REACTIONS, inputs_per_step=schedule
    )
    # The Python leg ties the schedule-driven run back to the reference
    # semantics; the C legs below then only need to match the Python leg.
    assert_replay_on_interpreter(result, python_trace, seed, "python/scheduled")

    shared = SharedCProgram.from_result(result)
    c_trace = ReactiveExecutor(shared.process()).run(
        REACTIONS, inputs_per_step=schedule
    )
    assert [step.outputs for step in c_trace] == [
        step.outputs for step in python_trace
    ], f"seed {seed}: loaded C diverges from the Python backend"

    flat = SharedCProgram.from_result(result, style=GenerationStyle.FLAT)
    c_flat_trace = ReactiveExecutor(flat.process()).run(
        REACTIONS, inputs_per_step=schedule
    )
    assert [step.outputs for step in c_flat_trace] == [
        step.outputs for step in python_trace
    ], f"seed {seed}: loaded flat C diverges from the Python backend"


def test_fuzz_corpus_exercises_arithmetic():
    """The strided loaded-C subset must include arithmetic programs."""
    specs = [spec_for_seed(seed) for seed in range(0, NUM_PROGRAMS, C_STRIDE)]
    assert any(spec.with_arithmetic for spec in specs)
    assert any(not spec.with_arithmetic for spec in specs)


@pytest.mark.skipif(CC is None, reason="no C compiler installed")
def test_arithmix_negative_operands_loaded_c():
    """Dense negative-operand sweep: every (A, B) pair, all three engines.

    ``ARITHMIX`` divides by positive and negative constants and by a
    signal-derived strictly-negative divisor.  A C backend emitting plain
    ``/`` and ``%`` fails this on the first negative dividend (C truncates
    toward zero, SIGNAL's reference semantics floor); ``X1`` pins the xor
    lowering to Python's ``bool`` coercion.
    """
    result = compile_source(ARITHMIX_SOURCE, build_flat=True)
    loaded = SharedCProgram.from_result(result).process()
    python = result.executable.fresh()
    interpreter = result.interpreter()
    for a in range(-9, 10):
        for b in range(-3, 4):
            inputs = {"A": a, "B": b}
            expected = {
                "Q1": a // 3,
                "R1": a % 3,
                "Q2": a // -(b * b + 1),
                "R2": a % -(b * b + 1),
                "Q3": (a - 5) // -2,
                "R3": (a + 5) % -3,
                "X1": (a >= 0) != (b >= 0),
            }
            c_outputs = loaded.step(inputs)
            python_outputs = python.step(inputs)
            reference = interpreter.step(inputs)
            reference = {
                name: reference[name] for name in expected if name in reference
            }
            assert c_outputs == expected, f"A={a} B={b}: loaded C {c_outputs}"
            assert python_outputs == expected, f"A={a} B={b}: python {python_outputs}"
            assert reference == expected, f"A={a} B={b}: interpreter {reference}"


# -- modular compilation -----------------------------------------------------
#
# The compositional pipeline (split into canonical units, compile per unit
# against the shared unit cache, link) must be *behaviourally invisible*:
# whatever the corpus, a modular compile's executables trace-match the
# monolithic compile and replay on the reference interpreter.  Fleet members
# share library modules, so their modular legs also exercise genuine
# cross-program unit-cache hits.  Runs are schedule-driven
# (complete assignments, free-clock presence drawn per root key): fleet
# members have several free roots, whose linked defaults differ from the
# single-root convention.

MODULAR_FULL = os.environ.get("REPRO_FUZZ_MODULAR", "0") == "1"
MODULAR_STRIDE = 1 if MODULAR_FULL else 4

#: Modular compiles share units across the whole corpus through this service.
_MODULAR_SERVICE = CompilationService(max_entries=NUM_PROGRAMS * 2)

#: Six programs drawn from an eight-module library with a two-module shared
#: core: every member after the first hits the unit cache.
FLEET_SPEC = FleetSpec(
    name="FUZZFLEET",
    programs=6,
    library_size=8,
    units_per_program=4,
    shared_units=2,
    seed=MASTER_SEED,
)


def assert_modular_matches_monolithic(source, seed, label, service):
    """Modular == monolithic == interpreter for one source, both styles."""
    monolithic = compile_source(source, build_flat=True)
    linked = service.compile_modular(source, build_flat=True)
    # The executable runs exactly the Python text the result reports.
    assert linked.executable.source == linked.python_source(
        GenerationStyle.HIERARCHICAL
    ), f"seed {seed} [{label}]: linked executable drifts from its python source"

    mono_step = monolithic.executable.fresh()
    linked_step = linked.executable.fresh()
    assert [flag[1] for flag in linked_step.root_flags] == [
        flag[1] for flag in mono_step.root_flags
    ], f"seed {seed} [{label}]: linked root keys diverge from monolithic"

    schedule = random_input_schedule(
        monolithic.types,
        mono_step.inputs,
        mono_step.root_flags,
        steps=REACTIONS,
        seed=random.Random(f"{MASTER_SEED}:{seed}:{label}"),
    )
    mono_trace = ReactiveExecutor(mono_step).run(REACTIONS, inputs_per_step=schedule)
    linked_trace = ReactiveExecutor(linked_step).run(
        REACTIONS, inputs_per_step=schedule
    )
    assert [step.outputs for step in linked_trace] == [
        step.outputs for step in mono_trace
    ], f"seed {seed} [{label}]: modular hierarchical trace diverges"

    flat_trace = ReactiveExecutor(linked.executable_flat.fresh()).run(
        REACTIONS, inputs_per_step=schedule
    )
    assert [step.outputs for step in flat_trace] == [
        step.outputs for step in mono_trace
    ], f"seed {seed} [{label}]: modular flat trace diverges"

    # Anchor the linked trace itself to the reference semantics.
    assert_replay_on_interpreter(linked, linked_trace, seed, f"{label}/modular")
    return monolithic, linked


@pytest.mark.parametrize("member", range(FLEET_SPEC.programs))
def test_modular_fleet_differential(member):
    """Every fleet member, modular through the shared unit cache."""
    source = generate_fleet(FLEET_SPEC)[member]
    assert_modular_matches_monolithic(source, member, "fleet", _MODULAR_SERVICE)


def test_modular_fleet_cold_then_warm_records_identical():
    """Cold records == warm records, with exact unit-compile accounting.

    A fresh service compiles the whole fleet twice.  The cold round may
    only compile each *distinct* library module once (everything else must
    be unit-cache hits); the warm round compiles nothing.  Both rounds --
    and a batch -- produce byte-identical records.
    """
    sources = generate_fleet(FLEET_SPEC)
    members = fleet_member_modules(FLEET_SPEC)
    distinct_modules = len({m for modules in members for m in modules})
    total_units = sum(len(modules) for modules in members)
    with CompilationService() as service:
        cold = [
            service.compile_record(source, build_flat=True, modular=True)
            for source in sources
        ]
        stats = service.statistics()
        assert stats["unit_misses"] == distinct_modules
        assert stats["unit_hits"] == total_units - distinct_modules

        warm = [
            service.compile_record(source, build_flat=True, modular=True)
            for source in sources
        ]
        assert warm == cold
        assert service.statistics()["unit_misses"] == distinct_modules

        batched = service.compile_batch(sources, build_flat=True, modular=True)
        assert [
            record_from_result(
                linked, GenerationStyle.HIERARCHICAL, build_flat=True, source=source
            )
            for source, linked in zip(sources, batched)
        ] == cold


@pytest.mark.parametrize("seed", range(0, NUM_PROGRAMS, MODULAR_STRIDE))
def test_modular_corpus_differential(seed):
    """The seeded corpus through the modular pipeline (strided by default,
    complete with ``REPRO_FUZZ_MODULAR=1``)."""
    source = generate_control_program(spec_for_seed(seed))
    assert_modular_matches_monolithic(source, seed, "corpus", _MODULAR_SERVICE)


def test_modular_process_worker_batch_matches_reference(tmp_path):
    """The fleet through ``compile_batch_records(jobs=N, modular=True)``.

    Worker processes compile modular against the shared on-disk store, so
    unit artifacts cross process boundaries; the records they return must
    rebuild executables that trace-match a monolithic compile, and the
    store must end up warm at *module* granularity.
    """
    sources = generate_fleet(FLEET_SPEC)
    with CompilationService(store=str(tmp_path)) as service:
        records = service.compile_batch_records(
            sources, jobs=PROCESS_JOBS, build_flat=True, modular=True
        )
    assert len(records) == len(sources)
    for index, (source, record) in enumerate(zip(sources, records)):
        reference = compile_source(source, build_flat=True)
        assert record["fingerprint"] == reference.program.fingerprint()

        mono_step = reference.executable.fresh()
        executable = executable_from_record(record)
        executable.reset()
        assert [flag[1] for flag in executable.root_flags] == [
            flag[1] for flag in mono_step.root_flags
        ]
        schedule = random_input_schedule(
            reference.types,
            mono_step.inputs,
            mono_step.root_flags,
            steps=REACTIONS,
            seed=random.Random(f"{MASTER_SEED}:{index}:process-modular"),
        )
        mono_trace = ReactiveExecutor(mono_step).run(
            REACTIONS, inputs_per_step=schedule
        )
        trace = ReactiveExecutor(executable).run(REACTIONS, inputs_per_step=schedule)
        assert [step.outputs for step in trace] == [
            step.outputs for step in mono_trace
        ], f"member {index}: process-modular record diverges from monolithic"

        flat = executable_from_record(record, flat=True)
        flat.reset()
        flat_trace = ReactiveExecutor(flat).run(REACTIONS, inputs_per_step=schedule)
        assert [step.outputs for step in flat_trace] == [
            step.outputs for step in mono_trace
        ], f"member {index}: process-modular flat record diverges"

    # The workers spilled their unit artifacts into the shared store.
    store = CompileStore(tmp_path)
    for unit in split_units(normalize(parse_process(sources[0]))):
        assert store.get(unit_store_key(unit.fingerprint())) is not None


def test_modular_corpus_stride_still_covers_multiple_shapes():
    """The strided modular subset must span both arithmetic and plain
    shapes, like the loaded-C stride."""
    specs = [spec_for_seed(seed) for seed in range(0, NUM_PROGRAMS, MODULAR_STRIDE)]
    assert any(spec.with_arithmetic for spec in specs)
    assert any(not spec.with_arithmetic for spec in specs)


# -- distributed execution ---------------------------------------------------
#
# The same seeded corpus, location-annotated (``distributed=True`` pins the
# inputs at the edge and adds a cloud post-processing layer per module) and
# cut by the partitioner: the composite trace of the per-location fragments,
# stepped lock-step with channel values copied within each instant, must be
# byte-identical to the monolithic reference on the same schedule, and the
# monolithic leg itself replays on the reference interpreter.  Strided by
# default, the whole corpus with ``REPRO_FUZZ_DISTRIBUTED=1``; one seed also
# runs across real OS processes.

DISTRIBUTED_FULL = os.environ.get("REPRO_FUZZ_DISTRIBUTED", "0") == "1"
DISTRIBUTED_STRIDE = 1 if DISTRIBUTED_FULL else 4

#: Fragments compile modularly through this service, so edge fragments of
#: different seeds sharing module shapes hit the fleet-wide unit cache.
_DISTRIBUTED_SERVICE = CompilationService(max_entries=NUM_PROGRAMS * 4)


def distributed_spec_for_seed(seed):
    """The seeded shape, location-annotated (same shape draw as the plain
    corpus -- only the annotations and the cloud layer are added)."""
    return dataclasses.replace(
        spec_for_seed(seed), name=f"DFUZZ_{seed}", distributed=True
    )


def _distributed_case(seed):
    from repro.runtime.distributed import build_distributed

    source = generate_control_program(distributed_spec_for_seed(seed))
    distributed = build_distributed(source=source, service=_DISTRIBUTED_SERVICE)
    assert distributed.locations == ["edge", "cloud"], (
        f"seed {seed}: annotated corpus must cut into edge -> cloud"
    )
    reference = distributed.reference
    step = reference.executable.fresh()
    schedule = schedule_for_seed(reference, step, seed, "distributed")
    python_trace = ReactiveExecutor(step).run(REACTIONS, inputs_per_step=schedule)
    # Anchor the monolithic leg to the reference semantics; the composite
    # legs then only need to match it.
    assert_replay_on_interpreter(reference, python_trace, seed, "distributed/mono")
    outputs = set(distributed.program.outputs)
    monolithic = [
        {name: value for name, value in trace_step.outputs.items() if name in outputs}
        for trace_step in python_trace
    ]
    return distributed, schedule, monolithic


@pytest.mark.parametrize("seed", range(0, NUM_PROGRAMS, DISTRIBUTED_STRIDE))
def test_distributed_corpus_differential(seed):
    """Split == unsplit on the seeded corpus (strided by default, complete
    with ``REPRO_FUZZ_DISTRIBUTED=1``)."""
    distributed, schedule, monolithic = _distributed_case(seed)
    assert distributed.run(schedule) == monolithic, (
        f"seed {seed}: composite trace diverges from the monolithic reference"
    )


@pytest.mark.parametrize("seed", [0] if not DISTRIBUTED_FULL else [0, 17, 34])
def test_distributed_corpus_across_os_processes(seed):
    """At least one corpus program proves the cut over real OS processes."""
    distributed, schedule, monolithic = _distributed_case(seed)
    assert distributed.run_multiprocess(schedule) == monolithic, (
        f"seed {seed}: OS-process composite trace diverges"
    )


def test_distributed_fragments_share_the_unit_cache():
    """Edge fragments across seeds reuse unit artifacts: after the corpus
    passes, the service must have recorded cross-program unit hits."""
    for seed in (1, 2):
        _distributed_case(seed)
    assert _DISTRIBUTED_SERVICE.statistics()["unit_hits"] >= 1
