#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload with spans around every layer and reports
the per-layer metrics instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment and run details, which are also
appended to ``.perfbench-out/results.jsonl``.  Spans of a traced run are
written to ``.perfbench-out/trace-<workload>-seed<seed>.jsonl``.

Only the standard library and a C compiler (for ``simulate``) are needed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("compile_cold", "serve_mix", "simulate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's own smoke test)")
    return parser.parse_args(argv)


def _command_output(command) -> str:
    try:
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   stdin=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return completed.stdout.strip() if completed.returncode == 0 else ""


def environment() -> dict:
    cc = shutil.which("cc")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cc": cc,
        "cc_version": _command_output([cc, "--version"]).splitlines()[0] if cc else None,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]) or None,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    arguments = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no compiler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)  # daemon sockets and stores live at short relative paths
    # One core for the benchmark and every child it starts, so the speed
    # reference (perfbench.common.Speed) runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from perfbench import common

    workload = importlib.import_module(f"perfbench.{arguments.workload}")
    common.OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    result = workload.run(
        arguments.seed, arguments.seconds, bool(arguments.trace), tiny=arguments.tiny
    )
    wall = time.perf_counter() - started

    kind = "per_layer" if arguments.trace else "end_to_end"
    measured = result.per_layer if arguments.trace else result.end_to_end
    names = {metric["name"] for metric in declared[kind]}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise SystemExit(f"error: {arguments.workload} measured undeclared metrics {unknown}")
    if not arguments.trace and set(measured) != names:
        raise SystemExit(f"error: {arguments.workload} did not measure {sorted(names - set(measured))}")
    # A layer the workload never calls reports 0: that is the measurement.
    metrics = {
        metric["name"]: {"value": float(measured.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in declared[kind]
    }
    if result.tracer is not None:
        result.tracer.dump(common.OUT / f"trace-{arguments.workload}-seed{arguments.seed}.jsonl")

    record = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "tiny": arguments.tiny,
        "wall_s": wall,
        "environment": environment(),
        "details": result.details,
        "failures": result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    with open(common.OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, default=str) + "\n")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{arguments.workload:>12} {name:<40} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("workload", "seed", "wall_s", "environment",
                                                   "details")}, default=str))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
