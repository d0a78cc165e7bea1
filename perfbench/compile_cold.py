"""Workload ``compile_cold``: programs compiled once each from source.

Each compile is ``repro.compile_source`` on a fresh ``BDDManager``: parse,
clock calculus, graph, schedule, IR, Python emission and ``exec``.  No
service, cache, pool or daemon is involved, so this is the workload on
which any change to those must show no effect, while resolution, the IR
builder and scheduling do nearly all the work.

The timed window compiles the seeded program list in order, round-robin,
until ``--seconds`` have passed (always at least one whole pass), after a
``gc.collect()`` that keeps one compile's garbage out of the next.  A
compile's service time is its CPU time at the reference speed (see
:class:`perfbench.common.Speed`); each program reports the median of its
compiles.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, List

from repro import compile_source
from repro import compiler
from repro.programs.suite import PAPER_FIGURE_13, benchmark_names

from . import checks
from .common import (
    WorkloadResult,
    loglog_slope,
    Speed,
    median_setup,
    peak_rss_mib,
    percentile,
    start_interpreter,
)
from .corpus import Program, cold_programs
from .tracing import (
    Tracer,
    install_compiler_probes,
    paired_cpu,
    probe_seconds,
    stage_metrics,
)

#: programs whose compiled steps are replayed on the interpreter
ORACLE_SAMPLE = 12


def _setup(seed: int, tiny: bool) -> List[Program]:
    start_interpreter()
    return cold_programs(seed, tiny)


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: bool = False) -> WorkloadResult:
    out = WorkloadResult()
    setup_s, programs = median_setup(lambda: _setup(seed, tiny))
    rng = random.Random(f"compile_cold:{seed}:oracle")
    sampled = set(checks.sample(
        rng, [p.label for p in programs if p.kind != "ladder"], ORACLE_SAMPLE
    ))

    kept = {}
    if trace:
        _traced(out, programs, sampled, kept)
        _check(out, kept, seed, corrupt)
        return out

    times: Dict[str, List[float]] = {program.label: [] for program in programs}
    raw: Dict[str, List[float]] = {program.label: [] for program in programs}
    signals: Dict[str, int] = {}
    speed = Speed(window=5)
    gc.collect()
    started = time.perf_counter()
    deadline = started + seconds
    whole_pass = False
    while not (whole_pass and time.perf_counter() >= deadline):
        for program in programs:
            if whole_pass and time.perf_counter() >= deadline:
                break
            gc.collect()
            speed.sample()
            compile_started = time.process_time()
            try:
                result = compile_source(program.source)
            except Exception as error:  # noqa: BLE001 - a failed compile is a counted failure
                out.check(False, f"{program.label}: compile raised {error!r}")
                continue
            cpu = time.process_time() - compile_started
            raw[program.label].append(cpu)
            times[program.label].append(speed.normalize(cpu))
            signals.setdefault(program.label, len(result.program.signals))
            del result
        whole_pass = True
    window = time.perf_counter() - started
    rss = peak_rss_mib()
    out.operations(sum(len(samples) for samples in times.values()))

    typical = {label: statistics.median(samples) for label, samples in times.items() if samples}
    latencies = list(typical.values())
    # The ladder closes every pass, so its rungs run back to back on one
    # core speed: each pass gives one slope of raw CPU times, which is
    # steadier than a slope of times normalized one by one.
    ladder = [program.label for program in programs if program.kind == "ladder"]
    slopes = [loglog_slope(list(zip((signals[label] for label in ladder), rung_times)))
              for rung_times in zip(*(raw[label] for label in ladder))]
    out.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "service_ms.p50": 1000.0 * statistics.median(latencies),
        "service_ms.tail": 1000.0 * percentile(latencies, 90),
        "throughput_per_s": sum(signals[label] for label in typical) / sum(latencies),
        "size_exponent": statistics.median(slopes),
    }
    raw_latencies = [statistics.median(samples) for samples in raw.values() if samples]
    out.details.update(window_s=window, compiles=out.attempted, programs=len(typical),
                       tail_percentile=90, ladder_slopes=slopes,
                       raw_cpu_ms_p50=1000.0 * statistics.median(raw_latencies))

    for program in programs:
        if program.kind == "ladder" and program.label in signals:
            expected = int(program.label.split("-")[1])
            out.check(signals[program.label] == expected,
                      f"{program.label}: compiled {signals[program.label]} signals")
    # Recompiled here rather than kept from the window, so that holding
    # them does not raise the peak RSS measured above.
    for program in programs:
        if program.label in sampled:
            kept[program.label] = compile_source(program.source)
    _check(out, kept, seed, corrupt)
    return out


def _check(out: WorkloadResult, kept: dict, seed: int, corrupt: bool) -> None:
    """Replay each sampled program's compiled step on the interpreter."""
    for index, (label, result) in enumerate(sorted(kept.items())):
        run_trace = checks.scheduled_run(result.executable, result.types,
                                         random.Random(f"{seed}:{label}"))
        if corrupt and index == 0:
            checks.corrupt(run_trace)
        problem = checks.interpreter_mismatch(result.interpreter(), run_trace)
        out.check(problem is None, f"{label}: {problem}")


def _traced(out: WorkloadResult, programs: List[Program], sampled: set, kept: dict) -> None:
    """Each program's untraced and traced compiles, with layer counts and sizes.

    Every program is compiled untraced and traced back to back, as
    :func:`perfbench.tracing.paired_cpu` orders them, so neither side pays
    for the first compile after another program.  The first traced compile
    gives the spans, counts and sizes.
    """
    counts = dict.fromkeys(
        ("lang.signals", "clocks.variables", "clocks.classes", "clocks.forest_nodes",
         "bdd.nodes", "bdd.ite_cache_entries", "graph.edges",
         "codegen.python_bytes", "codegen.c_bytes"), 0)
    fig13 = {}
    untraced: Dict[str, float] = {}
    traced_seconds = 0.0
    tracer = Tracer()
    for program in programs:
        tracer.group = program.label
        untraced[program.label], traced, result = paired_cpu(
            lambda: compile_source(program.source), tracer)
        traced_seconds += traced
        out.operations(5)
        install_compiler_probes(tracer)
        with tracer:
            ir = result.executable.ir
            c_bytes = len(compiler.generate_c_source(ir)) + len(
                compiler.generate_c_shared_source(ir))
        hierarchy = result.hierarchy
        stats = hierarchy.statistics()
        manager = hierarchy.manager.statistics()
        counts["lang.signals"] += len(result.program.signals)
        counts["clocks.variables"] += stats["variables"]
        counts["clocks.classes"] += stats["classes"]
        counts["clocks.forest_nodes"] += stats["forest_nodes"]
        counts["bdd.nodes"] += manager["nodes"]
        counts["bdd.ite_cache_entries"] += manager["ite_cache_entries"]
        counts["graph.edges"] += result.graph.edge_count()
        counts["codegen.python_bytes"] += len(result.executable.source)
        counts["codegen.c_bytes"] += c_bytes
        if program.kind == "fig13":
            fig13[program.label.split("-", 1)[1]] = stats
        if program.label in sampled:
            kept[program.label] = result
    out.per_layer.update(stage_metrics(tracer))
    out.per_layer.update(counts)
    for stage in ("clocks.resolve", "codegen.ir"):
        out.per_layer[f"{stage}_ms.ladder-1079"] = tracer.self_ms(stage, "ladder-1079")
    for name in benchmark_names():
        if name in fig13:
            out.per_layer[f"fig13.{name}.variables"] = fig13[name]["variables"]
            out.per_layer[f"fig13.{name}.bdd_nodes"] = fig13[name]["bdd_nodes"]
    out.per_layer.update({
        "compile.largest_s": max(untraced.values()),
        "trace.traced_s": traced_seconds,
        "trace.untraced_s": sum(untraced.values()),
        "trace.overhead_s": traced_seconds - sum(untraced.values()),
        "trace.probe_s": probe_seconds(tracer),
        "trace.spans": len(tracer.spans),
    })
    out.details["fig13"] = {
        name: {"variables": stats["variables"], "bdd_nodes": stats["bdd_nodes"],
               "paper_variables": PAPER_FIGURE_13[name]["variables"],
               "paper_tbdd_nodes": PAPER_FIGURE_13[name]["tbdd_nodes"]}
        for name, stats in fig13.items()
    }
    out.tracer = tracer
