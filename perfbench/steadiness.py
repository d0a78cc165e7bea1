#!/usr/bin/env python3
"""Steadiness report: every workload on several seeds, each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py

For each workload of ``BENCHMARK.json`` this runs ``perfbench/run.py``
untraced on seeds 1..10 and traced on seed 1, each with the declared
``run_seconds`` window, and writes ``perfbench/STEADINESS.md``: per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median``, the bound from ``BENCHMARK.json`` and
whether the spread is under a third of it; then the traced-minus-untraced
wall time per workload.  Raw results go to ``perfbench/steadiness.json``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
#: untraced runs per workload, on seeds 1..RUNS
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=900,
    )
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr[-3000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])
    return {"workload": workload, "seed": seed, "trace": trace, "process_wall_s": wall,
            "run_wall_s": details["wall_s"], "environment": details["environment"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()}}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    seconds = declared["run_seconds"]
    workloads = [workload["name"] for workload in declared["workloads"]]

    runs = []
    for workload in workloads:
        for seed in range(1, RUNS + 1):
            runs.append(run_once(workload, seed, seconds, 0))
            print(json.dumps(runs[-1]["metrics"]), file=sys.stderr)
        runs.append(run_once(workload, 1, seconds, 1))

    environment = runs[0]["environment"]
    lines = [
        "# Steadiness of the benchmark",
        "",
        f"{RUNS} untraced runs per workload, seeds 1..{RUNS}, {seconds:g} s windows, "
        f"one traced run on seed 1, run one after "
        f"another on {environment['cores']} cores, Python {environment['python']}, "
        f"{environment['cc_version']}, commit {environment['git_commit']}.",
        "",
        "Spread is `(q3 - q1) / median` over the runs, with quartiles from "
        "`statistics.quantiles(values, n=4)`; `ok` means under a third of the bound. "
        "Set-up times are not held to their bound's spread.",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound | ok |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload in workloads:
        untraced = [r for r in runs if r["workload"] == workload and not r["trace"]]
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in untraced]
            median, q1, q3, spread = summarize(values)
            ok = "yes" if spread < metric["bound"] / 3 else "no"
            lines.append(f"| {workload} | {metric['name']} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                         f"| {spread:.3f} | {metric['bound']} | {ok} |")
    failed = [f"{r['workload']} seed {r['seed']}: {r['failed']}/{r['attempted']}"
              for r in runs if r["failed"]]
    lines += ["", "Failed checks: " + (", ".join(failed) if failed else "none."), ""]
    lines += ["## Tracing overhead", "",
              "Traced-minus-untraced CPU time of the same work inside each traced run "
              "(`trace.traced_s - trace.untraced_s`), the probes' own cost "
              "(`trace.probe_s`: spans times the measured cost of one probe), and "
              "whole-run wall times.  The probes cost far less than the run-to-run noise "
              "of the same work, so the overhead column is a difference within that noise "
              "(see perfbench/README.md).", "",
              "| workload | traced work s | untraced work s | overhead s | probe s | spans "
              "| traced run s | median untraced run s |", "|---|---|---|---|---|---|---|---|"]
    for workload in workloads:
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        untraced = [r for r in runs if r["workload"] == workload and not r["trace"]]
        for r in traced:
            m = r["metrics"]
            lines.append(f"| {workload} | {m['trace.traced_s']:.3f} | {m['trace.untraced_s']:.3f} "
                         f"| {m['trace.overhead_s']:.3f} | {m['trace.probe_s']:.4f} "
                         f"| {m['trace.spans']:.0f} | {r['run_wall_s']:.1f} "
                         f"| {statistics.median(u['run_wall_s'] for u in untraced):.1f} |")
    (HERE / "STEADINESS.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(HERE / "steadiness.json", "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
