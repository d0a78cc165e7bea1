#!/usr/bin/env python
"""Serial vs process-parallel batch compilation of the Figure-13 suite.

The GIL caps in-process batches at one core, so
``compile_batch_records(sources, jobs=N)`` with ``N > 1`` runs on worker
processes, each running the full pipeline on its own core and sending back
JSON artifact records.  This
benchmark compiles the Figure-13 generated suite (optionally padded with
seeded fuzz programs so the batch is large enough to amortize pool
startup) twice on cold services -- once serially, once process-parallel
with ``--jobs`` workers -- verifies both paths produced identical
generated code, and fails (exit code 1) when the parallel speedup drops
below ``--min-speedup`` (default 1.5x).

On a machine with fewer than ``--jobs`` cores the measurement is
meaningless (worker processes would time-slice one core and the "speedup"
would be noise), so the gate **skips gracefully**: it prints why and exits
0 without measuring.  Pass ``--no-check`` to measure anyway.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_batch.py            # gate at 1.5x
    PYTHONPATH=src python benchmarks/bench_parallel_batch.py --jobs 8
    PYTHONPATH=src python benchmarks/bench_parallel_batch.py --json
    PYTHONPATH=src python benchmarks/bench_parallel_batch.py --quick    # smoke subset
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, List

try:
    import repro  # noqa: F401
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.service import CompilationService
from repro.programs import (
    ControlProgramSpec,
    benchmark_names,
    benchmark_source,
    generate_control_program,
)

QUICK_PROGRAMS = ["ROBOT", "PACE_MAKER", "SUPERVISOR", "CHRONO"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="number of worker processes for the parallel run (default 4)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when serial/parallel falls below this factor (default 1.5)",
    )
    parser.add_argument(
        "--pad-programs",
        type=int,
        default=16,
        help=(
            "seeded generated programs appended to the Figure-13 suite so "
            "the batch amortizes worker startup (default 16)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"use the small smoke subset {QUICK_PROGRAMS} and no padding",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="report only; measure even on few cores, never fail the gate",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser.parse_args(argv)


def suite_sources(arguments: argparse.Namespace) -> Dict[str, str]:
    """The Figure-13 suite, plus deterministic fuzz-shaped padding programs."""
    names = QUICK_PROGRAMS if arguments.quick else benchmark_names()
    sources = {name: benchmark_source(name) for name in names}
    padding = 0 if arguments.quick else arguments.pad_programs
    for seed in range(padding):
        spec = ControlProgramSpec(
            name=f"PAD_{seed}",
            modules=1 + seed % 3,
            branching=1 + (seed // 3) % 3,
            sensors=seed % 4,
            with_filter=bool(seed % 2),
            with_counter=bool((seed // 2) % 2),
        )
        sources[spec.name] = generate_control_program(spec)
    return sources


def run(argv=None) -> int:
    arguments = parse_args(argv)
    cores = os.cpu_count() or 1
    if cores < arguments.jobs and not arguments.no_check:
        print(
            f"SKIP: {cores} core(s) available, --jobs {arguments.jobs} requested; "
            "a parallel-speedup gate needs at least as many cores as workers "
            "(pass --no-check to measure anyway)"
        )
        return 0

    sources = suite_sources(arguments)
    order = list(sources)
    batch = [sources[name] for name in order]

    # Serial baseline: one cold service, one worker, records rendered so the
    # two paths do identical work per program.  Both render C (the parallel
    # run in its worker processes), so the check below compares C too.
    serial_service = CompilationService(max_entries=max(len(batch) * 2, 16))
    started = time.perf_counter()
    serial_records = serial_service.compile_batch_records(batch, jobs=1, kinds=["c"])
    serial_seconds = time.perf_counter() - started

    # Process-parallel run: a second cold service fans the same batch out to
    # --jobs worker processes (pool startup included -- honest wall-clock).
    parallel_records: List[Dict[str, object]] = []
    with CompilationService(max_entries=max(len(batch) * 2, 16)) as parallel_service:
        started = time.perf_counter()
        parallel_records = parallel_service.compile_batch_records(
            batch, jobs=arguments.jobs, kinds=["c"]
        )
        parallel_seconds = time.perf_counter() - started

    mismatched = [
        name
        for name, serial, parallel in zip(order, serial_records, parallel_records)
        if serial["artifacts"]["python"] != parallel["artifacts"]["python"]
        or serial["artifacts"]["c"] != parallel["artifacts"]["c"]
        or serial["fingerprint"] != parallel["fingerprint"]
    ]
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")

    report = {
        "programs": order,
        "program_count": len(order),
        "cores": cores,
        "jobs": arguments.jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "serial_throughput_per_s": (
            len(order) / serial_seconds if serial_seconds else float("inf")
        ),
        "parallel_throughput_per_s": (
            len(order) / parallel_seconds if parallel_seconds else float("inf")
        ),
        "records_match": not mismatched,
    }

    if arguments.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"{len(order)} programs on {cores} core(s): "
            f"serial {serial_seconds * 1000.0:.1f} ms, "
            f"process-parallel (--jobs {arguments.jobs}) "
            f"{parallel_seconds * 1000.0:.1f} ms -> {speedup:.2f}x"
        )
        print(
            f"generated code identical across backends: "
            f"{'yes' if not mismatched else f'NO ({mismatched})'}"
        )

    failed = False
    if mismatched:
        print(
            f"FAIL: serial and process-parallel batches disagree on {mismatched}",
            file=sys.stderr,
        )
        failed = True
    if not arguments.no_check and speedup < arguments.min_speedup:
        print(
            f"FAIL: process-parallel speedup {speedup:.2f}x is below the "
            f"required {arguments.min_speedup:.1f}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
