"""Workload ``simulate``: populations of compiled programs stepped in C.

Set-up compiles three seeded control programs (modes, counters, filters
and floored arithmetic), builds their reentrant ``c_shared`` libraries with
``cc`` and packs pre-drawn input schedules into columns.  The timed window
then steps each program's population, one ``CPopulation.step_packed`` call
plus an output snapshot per tick, round after round until ``--seconds``
have passed.  The compiler runs only in set-up; the runtime and the
quality of the generated code do the work.

A tick's service time is its CPU time at the reference speed (see
:class:`perfbench.common.Speed`), and each tick position reports the
median over all rounds; throughput counts instance-steps per second of
service time.

The traced run adds the legs that explain those numbers: per-instance
generated Python on the same schedules, flat against hierarchical code
(Figure 9), the in-process distributed composite against its monolithic
program, and the reference interpreter's speed.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import List

from repro import compile_source
from repro.programs import generate_control_program
from repro.runtime.distributed import build_distributed
from repro.runtime.executor import random_input_schedule
from repro.runtime.mass import SharedCProgram, find_c_compiler

from . import checks
from .common import (
    Speed,
    WorkloadResult,
    loglog_slope,
    median_setup,
    peak_rss_mib,
    percentile,
)
from .corpus import distributed_spec, simulate_specs
from .tracing import Tracer, paired_cpu, probe_seconds, stage_metrics

#: population size of every program
INSTANCES = 256
#: ticks per round
TICKS = 64
#: distinct instance schedules (instance ``i`` replays schedule ``i % SCHEDULES``)
SCHEDULES = 32
#: instants of the distributed leg
DISTRIBUTED_INSTANTS = 400
#: instances whose C outputs are checked against Python and the interpreter
CHECKED_INSTANCES = 3


@dataclass
class Simulated:
    name: str
    signals: int
    result: object
    shared: SharedCProgram
    population: object
    schedules: List[List[dict]]
    packed: list


@dataclass
class Setup:
    programs: List[Simulated]
    distributed: object
    distributed_schedule: List[dict]
    pack_seconds: float

    def close(self) -> None:
        for program in self.programs:
            tempdir = program.shared._tempdir
            if tempdir is not None:
                tempdir.cleanup()


def _setup(seed: int, tiny: bool) -> Setup:
    if find_c_compiler() is None:
        raise RuntimeError("the simulate workload needs a C compiler (cc)")
    programs = []
    pack_seconds = 0.0
    instances = 8 if tiny else INSTANCES
    for spec in simulate_specs(seed, tiny):
        result = compile_source(generate_control_program(spec), build_flat=True)
        shared = SharedCProgram.from_result(result)
        population = shared.population(instances)
        executable = result.executable
        distinct = [
            random_input_schedule(result.types, executable.inputs, executable.root_flags,
                                  steps=TICKS, seed=random.Random(f"{seed}:{spec.name}:{index}"))
            for index in range(SCHEDULES)
        ]
        schedules = [distinct[index % SCHEDULES] for index in range(instances)]
        started = time.process_time()
        packed = population.pack_schedule(schedules)
        pack_seconds += time.process_time() - started
        programs.append(Simulated(spec.name, len(result.program.signals), result, shared,
                                  population, schedules, packed))
    distributed = build_distributed(source=generate_control_program(distributed_spec(seed)))
    reference = distributed.reference.executable
    schedule = random_input_schedule(
        distributed.reference.types, list(reference.inputs), list(reference.root_flags),
        steps=DISTRIBUTED_INSTANTS, seed=random.Random(f"{seed}:distributed"),
    )
    return Setup(programs, distributed, schedule, pack_seconds)


def _round(program: Simulated, timings: List[float], snapshots: list = None) -> None:
    """Step the whole population through the packed schedule once."""
    population = program.population
    population.reset()
    for roots, columns in program.packed:
        started = time.process_time()
        population.step_packed(roots, columns)
        snapshot = population.output_snapshot()
        timings.append(time.process_time() - started)
        if snapshots is not None:
            snapshots.append(snapshot)


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: bool = False) -> WorkloadResult:
    out = WorkloadResult()
    if trace:
        setup = _traced_setup(out, seed, tiny)
    else:
        setup_s, setup = median_setup(lambda: _setup(seed, tiny), discard=Setup.close)
    try:
        if trace:
            _traced_legs(out, setup)
        else:
            _window(out, setup, seconds)
            out.end_to_end["setup_s"] = setup_s
        _check(out, setup, seed, corrupt)
    finally:
        setup.close()
    return out


def _window(out: WorkloadResult, setup: Setup, seconds: float) -> None:
    """Rounds of every population until ``seconds`` have passed."""
    normalized: List[List[List[float]]] = [[[] for _ in range(TICKS)] for _ in setup.programs]
    speed = Speed(interval=0.05, window=5)
    rounds = 0
    started = time.perf_counter()
    deadline = started + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for program, positions in zip(setup.programs, normalized):
            timings: List[float] = []
            _round(program, timings)
            factor = speed.normalize(1.0)
            for position, elapsed in zip(positions, timings):
                position.append(elapsed * factor)
        rounds += 1
    window = time.perf_counter() - started
    instances = setup.programs[0].population.instances
    out.operations(rounds * len(setup.programs) * TICKS)
    out.details.update(window_s=window, rounds=rounds, instances=instances,
                       ticks=TICKS, tail_percentile=90)
    typical = [[statistics.median(position) for position in positions] for positions in normalized]
    ticks = [elapsed for positions in typical for elapsed in positions]
    out.end_to_end.update({
        "peak_rss_mib": peak_rss_mib(),
        "service_ms.p50": 1000.0 * statistics.median(ticks),
        "service_ms.tail": 1000.0 * percentile(ticks, 90),
        "throughput_per_s": instances * len(ticks) / sum(ticks),
        "size_exponent": loglog_slope([
            (program.signals, sum(positions)) for program, positions in zip(setup.programs, typical)
        ]),
    })


def _check(out: WorkloadResult, setup: Setup, seed: int, corrupt: bool) -> None:
    """Columnar C == per-instance Python == interpreter; composite == monolithic."""
    rng = random.Random(f"simulate:{seed}:oracle")
    for program in setup.programs:
        snapshots: list = []
        _round(program, [], snapshots)
        decoded = [program.population.decode_outputs(snapshot) for snapshot in snapshots]
        for instance in checks.sample(rng, range(program.population.instances), CHECKED_INSTANCES):
            schedule = program.schedules[instance]
            python = checks.run_schedule(program.result.executable, schedule)
            if corrupt and not out.failed:
                checks.corrupt(python)
            label = f"{program.name}[{instance}]"
            problem = checks.outputs_mismatch([tick[instance] for tick in decoded],
                                              checks.output_rows(python))
            out.check(problem is None, f"{label}: columnar C against Python: {problem}")
            problem = checks.interpreter_mismatch(program.result.interpreter(), python)
            out.check(problem is None, f"{label}: {problem}")
    composite = setup.distributed.run(setup.distributed_schedule)
    problem = checks.outputs_mismatch(composite, _monolithic(setup))
    out.check(problem is None, f"distributed composite against monolithic: {problem}")


def _monolithic(setup: Setup) -> List[dict]:
    """The unsplit program's outputs over the distributed leg's schedule."""
    step = setup.distributed.reference.executable.fresh()
    outputs = set(setup.distributed.program.outputs)
    return [
        {name: value for name, value in step.step(instant).items() if name in outputs}
        for instant in setup.distributed_schedule
    ]


def _best_of(repeats: int, action) -> float:
    """The smallest CPU time of ``repeats`` runs of ``action``."""
    fastest = float("inf")
    for _ in range(repeats):
        started = time.process_time()
        action()
        fastest = min(fastest, time.process_time() - started)
    return fastest


def _traced_setup(out: WorkloadResult, seed: int, tiny: bool) -> Setup:
    """Untraced and traced set-ups (:func:`perfbench.tracing.paired_cpu`); a traced one is kept."""
    tracer = Tracer()
    untraced, traced, setup = paired_cpu(lambda: _setup(seed, tiny), tracer, discard=Setup.close)
    out.per_layer.update(stage_metrics(tracer))
    out.per_layer.update({
        "runtime.cc_build_s": sum(span.duration for span in tracer.select("runtime.cc_build")),
        "runtime.pack_ms": 1000.0 * setup.pack_seconds,
        "trace.traced_s": traced,
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.probe_s": probe_seconds(tracer),
        "trace.spans": len(tracer.spans),
    })
    out.tracer = tracer
    return setup


def _traced_legs(out: WorkloadResult, setup: Setup) -> None:
    """Per-layer runtime numbers, each the best of a few repeats."""
    programs = setup.programs
    instance_steps = sum(p.population.instances for p in programs) * TICKS
    step_seconds = snapshot_seconds = decode_seconds = 0.0
    for program in programs:
        population = program.population

        def steps_only():
            population.reset()
            for roots, columns in program.packed:
                population.step_packed(roots, columns)

        step_seconds += _best_of(5, steps_only)
        snapshots: list = []
        timings: List[float] = []
        _round(program, timings, snapshots)
        snapshot_seconds += sum(timings)
        decode_seconds += _best_of(
            3, lambda: [population.decode_outputs(snapshot) for snapshot in snapshots])
    snapshot_seconds = max(snapshot_seconds - step_seconds, 0.0)

    # Per-instance generated Python on the same schedules, hierarchical and flat.
    python_seconds = flat_seconds = 0.0
    python_steps = 0
    for program in programs:
        schedules = program.schedules[:SCHEDULES]
        python_steps += len(schedules) * TICKS

        def python_leg(executable):
            instances = [executable.fresh() for _ in schedules]
            for tick in range(TICKS):
                for instance, schedule in zip(instances, schedules):
                    instance.step(schedule[tick])

        python_seconds += _best_of(3, lambda: python_leg(program.result.executable))
        flat_seconds += _best_of(3, lambda: python_leg(program.result.executable_flat))

    distributed = setup.distributed
    composite = _best_of(3, lambda: distributed.run(setup.distributed_schedule))
    monolithic = _best_of(3, lambda: _monolithic(setup))

    smallest = min(programs, key=lambda p: p.signals)
    python = checks.run_schedule(smallest.result.executable, smallest.schedules[0])

    def interpret():
        interpreter = smallest.result.interpreter()
        for step in python:
            interpreter.step(step.inputs, present=step.observations.keys(),
                             unknown_as_absent=True)

    interpreter_seconds = _best_of(3, interpret)
    out.per_layer.update({
        "runtime.c_step_ns": 1e9 * step_seconds / instance_steps,
        "runtime.snapshot_ms": 1000.0 * snapshot_seconds,
        "runtime.decode_ms": 1000.0 * decode_seconds,
        "runtime.py_step_us": 1e6 * python_seconds / python_steps,
        "runtime.py_instance_steps_per_s": python_steps / python_seconds,
        "runtime.flat_over_hier": flat_seconds / python_seconds,
        "runtime.composite_overhead": composite / monolithic,
        "runtime.distributed_instants_per_s": len(setup.distributed_schedule) / composite,
        "runtime.interpreter_steps_per_s": len(python) / interpreter_seconds,
    })
