#!/usr/bin/env python
"""Unit-cache and result-cache leverage of modular compilation on a fleet.

A fleet of programs assembled from one module library (by default 20
programs, 6 units each, 4 of them a shared core drawn from a 10-module
library) is compiled through three pipelines: monolithically (every
program compiles all of its units from scratch), modularly through the
service (units come from the shared unit cache; only *novel* library
modules are ever compiled, and a repeat is a result-cache hit), and a bare
re-link baseline (every request parses, normalizes, splits, looks its
pre-compiled unit records up in a plain dict and links -- no digest memo,
no locked LRU, no counters).  The script prints a per-member table and
fails (exit code 1) when:

* the modular pipeline does not perform at least ``--min-unit-reduction``
  (default 3x) fewer unit compiles than the monolithic pipeline's
  ``programs x units_per_program`` unit workload;
* the unit accounting is off by even one unit: member ``i`` must compile
  exactly the library modules no earlier member used (in particular the
  second member compiles exactly ``units_per_program - overlap`` units);
* a warm modular round recompiles anything at all;
* a fully-warm modular round is not at least ``--min-link-speedup``
  (default 2x) faster than the re-link baseline;
* a fully-warm modular round is slower than a fully-warm monolithic
  round by more than ``--latency-tolerance`` (default 25%);
* the records served by the result cache are not byte-identical to the
  records the re-link baseline composes.

Usage::

    PYTHONPATH=src python benchmarks/bench_modular_cache.py           # full fleet
    PYTHONPATH=src python benchmarks/bench_modular_cache.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_modular_cache.py --json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List

try:
    import repro  # noqa: F401
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.codegen.ir import GenerationStyle
from repro.compiler import compile_unit_record, link_units
from repro.lang import normalize, parse_process
from repro.lang.units import split_units
from repro.programs import FleetSpec, fleet_member_modules, generate_fleet
from repro.service import CompilationService, record_from_result
from repro.service.store import ON_DEMAND_KINDS

FULL_PROGRAMS = 20
QUICK_PROGRAMS = 6

#: timed warm rounds per pipeline; the minimum is gated (noise-resistant)
WARM_ROUNDS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--programs",
        type=int,
        default=None,
        metavar="N",
        help=f"fleet size (default {FULL_PROGRAMS})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"use a {QUICK_PROGRAMS}-member fleet (CI smoke)",
    )
    parser.add_argument(
        "--min-unit-reduction",
        type=float,
        default=3.0,
        help=(
            "fail when (monolithic unit workload) / (modular unit compiles) "
            "falls below this factor (default 3.0)"
        ),
    )
    parser.add_argument(
        "--min-link-speedup",
        type=float,
        default=2.0,
        help=(
            "fail when the fully-warm modular round is not this many times "
            "faster than the re-link baseline (default 2.0)"
        ),
    )
    parser.add_argument(
        "--latency-tolerance",
        type=float,
        default=0.25,
        help=(
            "fail when the fully-warm modular round is slower than the "
            "fully-warm monolithic round by more than this fraction "
            "(default 0.25)"
        ),
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="report only; never fail on the gates",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser.parse_args(argv)


def _warm_rounds(compile_one, sources: List[str]) -> float:
    """Best-of-N wall time for one full fully-warm round over the fleet."""
    best = float("inf")
    for _ in range(WARM_ROUNDS):
        started = time.perf_counter()
        for source in sources:
            compile_one(source)
        best = min(best, time.perf_counter() - started)
    return best


def run(argv=None) -> int:
    arguments = parse_args(argv)
    programs = arguments.programs or (
        QUICK_PROGRAMS if arguments.quick else FULL_PROGRAMS
    )
    spec = FleetSpec(
        name="BENCHFLEET",
        programs=programs,
        library_size=10,
        units_per_program=6,
        shared_units=4,
        seed=1995,
    )
    sources = generate_fleet(spec)
    members = fleet_member_modules(spec)
    monolithic_units = spec.programs * spec.units_per_program

    # -- monolithic cold + warm ---------------------------------------------
    mono_service = CompilationService(max_entries=max(2 * programs, 16))
    mono_cold: List[float] = []
    for source in sources:
        started = time.perf_counter()
        mono_service.compile(source, build_flat=True)
        mono_cold.append(time.perf_counter() - started)
    mono_warm_total = _warm_rounds(
        lambda source: mono_service.compile(source, build_flat=True), sources
    )

    # -- modular cold + warm, with per-member unit accounting ---------------
    service = CompilationService(max_entries=max(2 * programs, 16))
    modular_cold: List[float] = []
    member_compiles: List[int] = []
    member_expected: List[int] = []
    seen: set = set()
    for source, modules in zip(sources, members):
        misses_before = service.statistics()["unit_misses"]
        started = time.perf_counter()
        service.compile_modular(source, build_flat=True)
        modular_cold.append(time.perf_counter() - started)
        member_compiles.append(service.statistics()["unit_misses"] - misses_before)
        member_expected.append(len(set(modules) - seen))
        seen |= set(modules)
    cold_stats = service.statistics()

    modular_warm_total = _warm_rounds(
        lambda source: service.compile_modular(source, build_flat=True), sources
    )
    warm_stats = service.statistics()

    # -- re-link baseline: every request re-links from warm unit records ----
    # Each distinct unit is compiled once up front; a timed request then
    # pays parse + normalize + split + dict lookups + a full link, the least
    # work a modular request can do without a whole-result cache.
    unit_records: Dict[str, dict] = {}
    for source in sources:
        for unit in split_units(normalize(parse_process(source))):
            if unit.fingerprint() not in unit_records:
                unit_records[unit.fingerprint()] = compile_unit_record(unit)

    def relink(source: str):
        process = parse_process(source)
        program = normalize(process)
        units = split_units(program)
        records = [unit_records[unit.fingerprint()] for unit in units]
        return link_units(program, units, records, build_flat=True, process=process)

    relink_warm_total = _warm_rounds(relink, sources)

    # -- byte identity: cached linked results vs re-linked ones --------------
    record_drift = []
    for index, source in enumerate(sources):
        # Every on-demand text too, so the C, tree and clock texts are compared.
        cached = record_from_result(
            service.compile_modular(source, build_flat=True),
            GenerationStyle.HIERARCHICAL,
            build_flat=True,
            source=source,
            kinds=ON_DEMAND_KINDS,
        )
        relinked = record_from_result(
            relink(source),
            GenerationStyle.HIERARCHICAL,
            build_flat=True,
            source=source,
            kinds=ON_DEMAND_KINDS,
        )
        if cached != relinked:
            record_drift.append(index)

    unit_compiles = cold_stats["unit_misses"]
    reduction = monolithic_units / unit_compiles if unit_compiles else float("inf")
    warm_recompiles = warm_stats["unit_misses"] - cold_stats["unit_misses"]
    link_speedup = (
        relink_warm_total / modular_warm_total
        if modular_warm_total
        else float("inf")
    )

    report: Dict[str, object] = {
        "spec": {
            "programs": spec.programs,
            "library_size": spec.library_size,
            "units_per_program": spec.units_per_program,
            "shared_units": spec.shared_units,
            "seed": spec.seed,
        },
        "monolithic_unit_workload": monolithic_units,
        "modular_unit_compiles": unit_compiles,
        "unit_reduction": reduction,
        "member_unit_compiles": member_compiles,
        "member_expected_novel_units": member_expected,
        "unit_hits": cold_stats["unit_hits"],
        "warm_unit_recompiles": warm_recompiles,
        "warm_link_hits": warm_stats["link_hits"],
        "monolithic_cold_seconds": sum(mono_cold),
        "monolithic_warm_seconds": mono_warm_total,
        "modular_cold_seconds": sum(modular_cold),
        "modular_warm_seconds": modular_warm_total,
        "relink_warm_seconds": relink_warm_total,
        "link_speedup": link_speedup,
        "record_drift_members": record_drift,
    }

    if arguments.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"fleet: {spec.programs} programs x {spec.units_per_program} units "
            f"({spec.shared_units} shared) from a {spec.library_size}-module library"
        )
        print(f"{'member':>6}  {'modules':<22} {'compiled':>8}  {'expected':>8}")
        for index, (modules, compiled, expected) in enumerate(
            zip(members, member_compiles, member_expected)
        ):
            print(
                f"{index:>6}  {str(modules):<22} {compiled:>8}  {expected:>8}"
            )
        print(
            f"unit compiles: {unit_compiles} modular vs {monolithic_units} "
            f"monolithic workload = {reduction:.1f}x reduction "
            f"({cold_stats['unit_hits']} unit cache hit(s))"
        )
        print(
            f"cold: modular {sum(modular_cold) * 1000.0:.1f} ms vs monolithic "
            f"{sum(mono_cold) * 1000.0:.1f} ms"
        )
        print(
            f"warm: modular {modular_warm_total * 1000.0:.1f} ms vs monolithic "
            f"{mono_warm_total * 1000.0:.1f} ms vs re-link "
            f"{relink_warm_total * 1000.0:.1f} ms "
            f"(result-cache speedup {link_speedup:.1f}x)"
        )

    failed = False
    if not arguments.no_check:
        if member_compiles != member_expected:
            print(
                "FAIL: unit accounting is off: per-member compiles "
                f"{member_compiles} != expected novel units {member_expected}",
                file=sys.stderr,
            )
            failed = True
        if reduction < arguments.min_unit_reduction:
            print(
                f"FAIL: unit-compile reduction {reduction:.1f}x is below the "
                f"required {arguments.min_unit_reduction:.1f}x",
                file=sys.stderr,
            )
            failed = True
        if warm_recompiles != 0:
            print(
                f"FAIL: a warm modular round recompiled {warm_recompiles} unit(s)",
                file=sys.stderr,
            )
            failed = True
        if link_speedup < arguments.min_link_speedup:
            print(
                f"FAIL: warm modular round is only {link_speedup:.2f}x faster "
                f"than the re-link baseline (required "
                f"{arguments.min_link_speedup:.1f}x)",
                file=sys.stderr,
            )
            failed = True
        if modular_warm_total > mono_warm_total * (1.0 + arguments.latency_tolerance):
            print(
                f"FAIL: warm modular round ({modular_warm_total * 1000.0:.1f} ms) "
                f"is more than {arguments.latency_tolerance:.0%} slower than the "
                f"warm monolithic round ({mono_warm_total * 1000.0:.1f} ms)",
                file=sys.stderr,
            )
            failed = True
        if record_drift:
            print(
                "FAIL: result-cache records drift from re-linked records for "
                f"member(s) {record_drift}",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
