#!/usr/bin/env python3
"""The benchmark's own smoke test (stdlib ``unittest``, about a minute).

Usage (from the repository root)::

    python3 perfbench/smoke.py

Checks that every workload runs at a tiny size, untraced and traced; that
each run emits every metric of ``BENCHMARK.json`` with its unit; that every
declared metric has a unit and a better-direction; that a deliberately
corrupted trace is counted as a failure; and that the benchmark refuses to
run without the compiler sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def run_benchmark(*arguments: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments], cwd=cwd, capture_output=True,
        text=True, stdin=subprocess.DEVNULL, timeout=300,
    )


class DeclarationTest(unittest.TestCase):
    def test_every_metric_has_unit_and_direction(self):
        names = []
        for kind in ("end_to_end", "per_layer"):
            for metric in DECLARED[kind]:
                self.assertTrue(metric["unit"], metric)
                self.assertIn(metric["better"], ("higher", "lower"), metric)
                names.append(metric["name"])
        for metric in DECLARED["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25, metric)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


class TinyRunTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        completed = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", str(trace), "--tiny")
        self.assertEqual(completed.returncode, 0, completed.stderr[-2000:])
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], completed.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [metric["name"] for metric in declared])
        for metric in declared:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        return {name: metric["value"] for name, metric in result["metrics"].items()}

    def test_untraced_runs_measure_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0)
                for name, value in metrics.items():
                    self.assertGreater(value, 0, f"{workload} {name}")

    def test_traced_runs_measure_their_layers(self):
        owned = {
            "compile_cold": ("clocks.resolve_ms", "codegen.ir_ms", "bdd.nodes",
                             "fig13.ROBOT.variables", "trace.spans"),
            "serve_mix": ("service.memory_hits", "service.engine_hit_ms.p50",
                          "service.store_get_ms", "bdd.pool_nodes", "trace.spans"),
            "simulate": ("runtime.c_step_ns", "runtime.py_step_us",
                         "runtime.composite_overhead", "runtime.cc_build_s", "trace.spans"),
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1)
                for name in owned[workload]:
                    self.assertGreater(metrics[name], 0, f"{workload} {name}")
        self.assertTrue((common.OUT / "trace-simulate-seed3.jsonl").is_file())


class CorruptedTraceTest(unittest.TestCase):
    def test_corrupted_trace_counts_as_failure(self):
        import importlib

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                module = importlib.import_module(f"perfbench.{workload}")
                result = module.run(3, 1.0, False, tiny=True, corrupt=True)
                self.assertGreater(result.failed, 0)


class BareCheckoutTest(unittest.TestCase):
    def test_refuses_to_run_without_compiler_sources(self):
        bare = common.scratch_dir("bare")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark("--workload", "compile_cold", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    common.OUT.mkdir(exist_ok=True)
    unittest.main()
