"""Command-line interface of the reproduction compiler.

``python -m repro <file.sig>`` compiles a SIGNAL process and prints the
requested artifact::

    python -m repro program.sig --emit tree      # forest of clock trees
    python -m repro program.sig --emit clocks    # the clock equations (Table 1)
    python -m repro program.sig --emit python    # generated Python step
    python -m repro program.sig --emit c         # generated C step
    python -m repro program.sig --emit stats     # size statistics
    python -m repro program.sig --flat ...       # flat (single-loop) style
    python -m repro program.sig --simulate 10    # run 10 reactions with random inputs

``python -m repro simulate`` runs a *population* of instances of one
compiled process -- through the mass-simulation runtime, which builds the
reentrant C with ``cc -shared`` and steps all instances per tick inside the
loaded library (falling back to per-instance Python stepping when no C
toolchain is installed)::

    python -m repro simulate program.sig --instances 64 --ticks 100
    python -m repro simulate program.sig --backend c        # require the C runtime
    python -m repro simulate program.sig --backend python   # force the fallback
    python -m repro simulate --record artifact.json         # from a stored record
    python -m repro simulate program.sig --json             # machine-readable summary

``python -m repro batch <files...>`` compiles many processes through one
:class:`~repro.service.CompilationService` (compile cache), optionally on
worker processes::

    python -m repro batch a.sig b.sig c.sig      # serial, in this process
    python -m repro batch *.sig --jobs 4         # 4 worker processes
    python -m repro batch *.sig --repeat 3       # demonstrate cache hits
    python -m repro batch *.sig --cache-stats    # print service statistics

``python -m repro serve`` keeps one service alive behind a JSON-line socket
protocol so many OS processes share its caches, and
``python -m repro remote-compile`` is the matching client::

    python -m repro serve --port 7420 --store .repro-cache
    python -m repro remote-compile a.sig --port 7420 --emit python
    python -m repro remote-compile a.sig --port 7420 --simulate 10 --stats

``python -m repro gateway`` federates several daemons behind one address:
compiles are routed by consistent hashing of the kernel fingerprint, dead
backends are failed over, and the gateway compiles locally when the whole
fleet is down::

    python -m repro gateway --port 7400 --backend 127.0.0.1:7420 \\
        --backend 127.0.0.1:7421 --store .repro-cache
    python -m repro remote-compile a.sig --port 7400 --emit python

``python -m repro partition`` splits a location-annotated process into one
compiled program per ``at`` location plus typed channels, and can run the
fragments lock-step (optionally one OS process each) against the unsplit
reference; ``simulate --distributed`` steps a population of such composite
instances::

    python -m repro partition program.sig
    python -m repro partition program.sig --run 64 --processes
    python -m repro simulate program.sig --distributed --ticks 100

The single-file mode is a thin layer over
:func:`repro.compiler.compile_source`; it exists so the compiler can be used
like the original batch SIGNAL compiler.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Optional

from .codegen.ir import GenerationStyle
from .compiler import compile_source
from .errors import SignalError
from .runtime import (
    MassSimulation,
    ReactiveExecutor,
    random_input_schedule,
    random_oracle,
    timing_diagram,
)
from .service import (
    CompilationDaemon,
    CompilationService,
    CompileGateway,
    RemoteCompiler,
    RemoteError,
)
from .service.daemon import pin_allocator
from .service.store import step_interface, types_from_record

__all__ = [
    "main",
    "run_batch",
    "run_serve",
    "run_gateway",
    "run_remote_compile",
    "run_simulate",
    "run_partition",
    "build_argument_parser",
    "build_batch_argument_parser",
    "build_serve_argument_parser",
    "build_gateway_argument_parser",
    "build_remote_argument_parser",
    "build_simulate_argument_parser",
    "build_partition_argument_parser",
]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer (got {text!r})") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the PLDI'95 SIGNAL compiler",
        epilog=(
            "Subcommands: 'repro batch <files...>' compiles many processes "
            "through one compilation service, 'repro serve' starts the "
            "compilation daemon, 'repro gateway' federates several daemons "
            "behind one address, 'repro remote-compile <files...>' compiles "
            "on a running daemon or gateway, 'repro partition' splits a "
            "location-annotated process into per-location programs (see "
            "'repro <subcommand> --help'); a source file literally named "
            "like a subcommand must be passed as './batch', './serve', ..."
        ),
    )
    parser.add_argument("source", help="path to a SIGNAL source file, or - for stdin")
    parser.add_argument(
        "--emit",
        choices=["tree", "clocks", "python", "c", "c_shared", "stats", "kernel"],
        default="tree",
        help="artifact to print (default: the forest of clock trees)",
    )
    parser.add_argument(
        "--flat",
        action="store_true",
        help="generate flat single-loop code instead of nested code",
    )
    parser.add_argument(
        "--simulate",
        type=int,
        metavar="N",
        default=0,
        help="additionally run N reactions with random inputs and print a timing diagram",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the --simulate random inputs"
    )
    return parser


def build_batch_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Compile many SIGNAL processes through one CompilationService",
    )
    parser.add_argument("sources", nargs="+", help="paths to SIGNAL source files")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "number of worker processes (default 1: compile serially in this "
            "process)"
        ),
    )
    parser.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        metavar="R",
        help="compile the whole batch R times (later rounds hit the compile cache)",
    )
    parser.add_argument(
        "--flat",
        action="store_true",
        help="generate flat single-loop code instead of nested code",
    )
    parser.add_argument(
        "--max-entries",
        type=_positive_int,
        default=128,
        help="capacity of the LRU compile cache (default 128, minimum 1)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "compile-store directory that a --jobs > 1 batch probes before "
            "compiling and fills with what its worker processes compile "
            "(e.g. a daemon's --store), so cross-process batches start warm"
        ),
    )
    parser.add_argument(
        "--modular",
        action="store_true",
        help=(
            "compile each program per kernel unit (connected component) and "
            "link the cached unit artifacts; programs sharing modules reuse "
            "each other's unit compiles"
        ),
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the service statistics (JSON) after compiling",
    )
    return parser


def build_serve_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the compilation daemon: one long-lived CompilationService "
            "behind a JSON-line TCP or unix-socket protocol"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="TCP port (default 0: pick a free port and print it)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "directory of the persistent compile store; the daemon starts "
            "warm from it and spills new compilations into it"
        ),
    )
    parser.add_argument(
        "--max-entries",
        type=_positive_int,
        default=128,
        help=(
            "capacity of the daemon's in-memory record LRU (default 128, "
            "minimum 1; the unit-record LRU holds 4x); misses compile on a "
            "fresh manager, render the record and drop the result"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "number of concurrent request workers (default 1: serialized); "
            "with N > 1, cache misses compile in N worker processes"
        ),
    )
    parser.add_argument(
        "--log-requests",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "append one JSON line per request (op, outcome, origin, "
            "duration) to PATH, or to stdout when PATH is omitted"
        ),
    )
    parser.add_argument(
        "--store-max-bytes",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "disk-store budget: after each spill, prune least-recently-used "
            "entries until the store is at most N bytes (requires --store)"
        ),
    )
    return parser


def build_gateway_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro gateway",
        description=(
            "Run the compile gateway: one protocol-compatible front-end "
            "routing compiles across a fleet of compilation daemons by "
            "consistent hashing of the kernel fingerprint, with health "
            "checks, failover and local graceful degradation"
        ),
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=[],
        metavar="HOST:PORT|SOCKET",
        help=(
            "a backend daemon address (repeatable); HOST:PORT for TCP, a "
            "path for a unix socket"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="TCP port (default 0: pick a free port and print it)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "shared compile-store directory (point the backends at the same "
            "directory to make it a fleet-wide artifact tier); also warms "
            "the gateway's local-fallback engine"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=8,
        metavar="N",
        help=(
            "concurrent request workers (default 8; forwarding threads "
            "mostly wait on backend I/O, so more than one core's worth is "
            "fine); with N > 1 a local-fallback compile runs in one of N "
            "worker processes, spawned on first use"
        ),
    )
    parser.add_argument(
        "--backend-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request timeout towards a backend (default 60)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="backend connection-establishment timeout (default 5)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between background backend health sweeps (default 2)",
    )
    parser.add_argument(
        "--no-local-fallback",
        action="store_true",
        help=(
            "answer 'no-backend' errors instead of compiling locally when "
            "every backend is down"
        ),
    )
    parser.add_argument(
        "--max-entries",
        type=_positive_int,
        default=128,
        help="capacity of the gateway's in-memory caches (default 128)",
    )
    parser.add_argument(
        "--log-requests",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "append one JSON line per request (op, outcome, origin, "
            "duration) to PATH, or to stdout when PATH is omitted"
        ),
    )
    return parser


def build_remote_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro remote-compile",
        description="Compile SIGNAL sources on a running compilation daemon",
    )
    parser.add_argument("sources", nargs="+", help="paths to SIGNAL source files")
    parser.add_argument("--host", default="127.0.0.1", help="daemon host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None, metavar="N", help="daemon TCP port")
    parser.add_argument(
        "--socket", default=None, metavar="PATH", help="daemon unix socket path"
    )
    parser.add_argument(
        "--emit",
        choices=["tree", "clocks", "python", "c", "c_shared", "stats", "kernel"],
        default="tree",
        help="artifact to print per file (default: the forest of clock trees)",
    )
    parser.add_argument(
        "--flat",
        action="store_true",
        help="generate flat single-loop code instead of nested code",
    )
    parser.add_argument(
        "--simulate",
        type=int,
        metavar="N",
        default=0,
        help="additionally run N reactions on the daemon and print the timing diagram",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the --simulate random inputs"
    )
    parser.add_argument(
        "--modular",
        action="store_true",
        help=(
            "compile misses unit-by-unit on the daemon (shared modules hit "
            "its unit cache; repeats hit its record tiers like any compile)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's cache statistics (JSON) after compiling",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="connect/request timeout per round-trip (default 60)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "reconnect and resend up to N times after a transport failure "
            "(timeouts, resets; daemon-reported errors are never retried)"
        ),
    )
    return parser


def build_simulate_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro simulate",
        description=(
            "Run a population of instances of one compiled process through "
            "the mass-simulation runtime (loaded C when a compiler is "
            "available, per-instance Python otherwise)"
        ),
    )
    parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="path to a SIGNAL source file, or - for stdin (omit with --record)",
    )
    parser.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help=(
            "simulate a persisted artifact record (JSON, as written by the "
            "compile store or 'batch --jobs N') instead of "
            "compiling a source file"
        ),
    )
    parser.add_argument(
        "--instances",
        type=_positive_int,
        default=16,
        metavar="N",
        help="population size (default 16)",
    )
    parser.add_argument(
        "--ticks",
        type=_positive_int,
        default=32,
        metavar="N",
        help="reactions to run per instance (default 32)",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "c", "python"],
        default="auto",
        help=(
            "execution engine: 'c' builds the reentrant C with cc -shared "
            "and steps the whole population in the loaded library, 'python' "
            "steps independent generated-Python instances, 'auto' (default) "
            "picks 'c' when a compiler is found"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the per-instance random input schedules (default 0)",
    )
    parser.add_argument(
        "--flat",
        action="store_true",
        help="simulate the flat single-loop style instead of nested code",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of text",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "partition the program at its 'at' location annotations and "
            "step each instance as the lock-step composite of the "
            "per-location fragments (see 'repro partition')"
        ),
    )
    return parser


def run_simulate(argv: List[str]) -> int:
    """The ``simulate`` subcommand: mass-simulate one compiled process."""
    parser = build_simulate_argument_parser()
    arguments = parser.parse_args(argv)
    if (arguments.source is None) == (arguments.record is None):
        print("error: exactly one of a source file or --record is required", file=sys.stderr)
        return 2
    if arguments.record is not None and arguments.flat:
        print("error: --flat cannot be combined with --record", file=sys.stderr)
        return 2
    if arguments.distributed:
        if arguments.record is not None:
            print("error: --distributed requires a source file", file=sys.stderr)
            return 2
        return _run_simulate_distributed(arguments)

    style = GenerationStyle.FLAT if arguments.flat else GenerationStyle.HIERARCHICAL
    if arguments.record is not None:
        try:
            with open(arguments.record, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            interface = step_interface(record)
        except (OSError, ValueError) as error:
            print(f"error: {arguments.record}: {error}", file=sys.stderr)
            return 2
    try:
        if arguments.record is not None:
            simulation = MassSimulation.from_record(
                record, arguments.instances, backend=arguments.backend
            )
            name = interface["name"]
            types = types_from_record(record)
            inputs = interface["inputs"]
            root_flags = interface["root_flags"]
        else:
            source = _read_source(arguments.source)
            result = compile_source(source, style=style, build_flat=arguments.flat)
            simulation = MassSimulation.from_result(
                result, arguments.instances, backend=arguments.backend, style=style
            )
            executable = result.executable_flat if arguments.flat else result.executable
            name = result.name
            types = result.types
            inputs = list(executable.inputs)
            root_flags = list(executable.root_flags)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SignalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if arguments.backend == "auto" and simulation.backend == "python":
        print(
            "note: no C compiler found; stepping the population in Python "
            "(set REPRO_CC or install cc to use the C runtime)",
            file=sys.stderr,
        )

    def run(schedules):
        for tick in range(arguments.ticks):
            yield from simulation.step([schedule[tick] for schedule in schedules])

    return _simulate_population(
        arguments, name, simulation.backend, types, inputs, root_flags, run
    )


def _run_simulate_distributed(arguments) -> int:
    """``simulate --distributed``: step a population of composite instances."""
    from .runtime.distributed import build_distributed

    style = GenerationStyle.FLAT if arguments.flat else GenerationStyle.HIERARCHICAL
    try:
        source = _read_source(arguments.source)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        distributed = build_distributed(source=source, style=style)
    except SignalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    reference = distributed.reference  # compiled in the requested style

    def run(schedules):
        for schedule in schedules:
            yield from distributed.run(schedule)

    locations = distributed.locations
    return _simulate_population(
        arguments,
        reference.name,
        "distributed",
        reference.types,
        list(reference.executable.inputs),
        list(reference.executable.root_flags),
        run,
        details={
            "locations": locations,
            "channels": len(distributed.partitioned.channels),
        },
        backend_note=f" ({len(locations)} location(s): {', '.join(locations)})",
    )


def _simulate_population(
    arguments,
    name: str,
    backend: str,
    types,
    inputs: List[str],
    root_flags: list,
    run,
    details: Optional[dict] = None,
    backend_note: str = "",
) -> int:
    """Step one random input schedule per instance and print how often each
    output was present, as text or (``--json``) as a summary merged with
    ``details``.  ``run(schedules)`` yields the outputs of every step."""
    schedules = [
        random_input_schedule(
            types,
            inputs,
            root_flags,
            steps=arguments.ticks,
            seed=random.Random(f"{arguments.seed}:{index}"),
        )
        for index in range(arguments.instances)
    ]
    presence: Dict[str, int] = {}
    started = time.perf_counter()
    for outputs in run(schedules):
        for signal in outputs:
            presence[signal] = presence.get(signal, 0) + 1
    elapsed = time.perf_counter() - started

    instance_steps = arguments.instances * arguments.ticks
    if arguments.json:
        summary = {
            "name": name,
            "backend": backend,
            "instances": arguments.instances,
            "ticks": arguments.ticks,
            "instance_steps": instance_steps,
            "seed": arguments.seed,
            "outputs": {signal: presence[signal] for signal in sorted(presence)},
            **(details or {}),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        rate = instance_steps / elapsed if elapsed > 0 else float("inf")
        print(
            f"process {name}: {arguments.instances} instance(s) x "
            f"{arguments.ticks} tick(s), backend {backend}{backend_note}"
        )
        print(
            f"  {instance_steps} instance-steps in {elapsed * 1000.0:.1f} ms "
            f"({rate:,.0f}/s)"
        )
        for signal in sorted(presence):
            print(f"  {signal}: present {presence[signal]}/{instance_steps}")
        if not presence:
            print("  (no output was ever present)")
    return 0


def build_partition_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro partition",
        description=(
            "Partition a location-annotated SIGNAL process into one "
            "compiled program per 'at' location plus typed channels, and "
            "optionally run the fragments lock-step against the monolithic "
            "reference"
        ),
    )
    parser.add_argument("source", help="path to a SIGNAL source file, or - for stdin")
    parser.add_argument(
        "--run",
        type=int,
        metavar="N",
        default=0,
        help=(
            "additionally run N instants with random inputs and check the "
            "composite trace against the unsplit reference"
        ),
    )
    parser.add_argument(
        "--processes",
        action="store_true",
        help=(
            "with --run: execute each fragment in its own OS process, "
            "channels as multiprocessing pipes (default: in-process lock-step)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the --run random inputs"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of text",
    )
    return parser


def run_partition(argv: List[str]) -> int:
    """The ``partition`` subcommand: split a program at its 'at' annotations."""
    from .runtime.distributed import build_distributed

    parser = build_partition_argument_parser()
    arguments = parser.parse_args(argv)
    try:
        source = _read_source(arguments.source)
    except OSError as error:
        print(f"error: cannot read {arguments.source}: {error}", file=sys.stderr)
        return 2
    try:
        distributed = build_distributed(source=source)
    except SignalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    partitioned = distributed.partitioned
    summary = {
        "name": partitioned.program.name,
        "locations": distributed.locations,
        "fragments": [
            {
                "location": runtime.location,
                "processes": len(runtime.fragment.program.processes),
                "inputs": list(runtime.fragment.program.inputs),
                "outputs": list(runtime.fragment.program.outputs),
                "external_inputs": list(runtime.fragment.external_inputs),
                "channel_inputs": list(runtime.fragment.channel_inputs),
                "channel_outputs": list(runtime.fragment.channel_outputs),
            }
            for runtime in distributed.runtimes
        ],
        "channels": [
            {
                "producer": channel.producer,
                "consumer": channel.consumer,
                "signals": [
                    {"name": s.name, "type": s.type_name} for s in channel.signals
                ],
            }
            for channel in partitioned.channels
        ],
    }

    check: Optional[bool] = None
    if arguments.run > 0:
        reference = distributed.reference
        schedule = random_input_schedule(
            reference.types,
            list(reference.executable.inputs),
            list(reference.executable.root_flags),
            steps=arguments.run,
            seed=arguments.seed,
        )
        outputs = set(partitioned.program.outputs)
        monolithic = [
            {name: value for name, value in step.items() if name in outputs}
            for step in reference.executable.fresh().run(list(schedule))
        ]
        if arguments.processes:
            composite = distributed.run_multiprocess(schedule)
        else:
            composite = distributed.run(schedule)
        check = composite == monolithic
        summary["run"] = {
            "instants": arguments.run,
            "seed": arguments.seed,
            "mode": "processes" if arguments.processes else "in-process",
            "matches_monolithic": check,
        }

    if arguments.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(partitioned.describe())
        if check is not None:
            mode = "OS processes" if arguments.processes else "in-process lock-step"
            verdict = "matches" if check else "DIVERGES FROM"
            print(
                f"ran {arguments.run} instant(s) ({mode}): composite trace "
                f"{verdict} the monolithic reference"
            )
    return 0 if check is not False else 1


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def run_batch(argv: List[str]) -> int:
    """The ``batch`` subcommand: compile many files on one service."""
    parser = build_batch_argument_parser()
    arguments = parser.parse_args(argv)

    sources = []
    for path in arguments.sources:
        try:
            sources.append(_read_source(path))
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2

    style = GenerationStyle.FLAT if arguments.flat else GenerationStyle.HIERARCHICAL
    service = CompilationService(max_entries=arguments.max_entries, store=arguments.store)
    with service:  # shuts the worker-process pool down on exit
        for round_index in range(arguments.repeat):
            started = time.perf_counter()
            before = service.statistics()
            try:
                if arguments.jobs > 1:
                    results = service.compile_batch_records(
                        sources, jobs=arguments.jobs, style=style, modular=arguments.modular
                    )
                else:
                    results = service.compile_batch(
                        sources, style=style, modular=arguments.modular
                    )
            except SignalError as error:
                culprit = arguments.sources[error.batch_index]
                print(f"error: {culprit}: {error}", file=sys.stderr)
                return 1
            elapsed = time.perf_counter() - started
            if arguments.jobs > 1:
                # Process batches bypass the result cache; hit counts would
                # be misleading here.
                summary = f"{arguments.jobs} process worker(s)"
            else:
                after = service.statistics()
                delta = {
                    key: after[key] - before[key]
                    for key in ("cache_hits", "unit_hits", "unit_misses", "links")
                }
                summary = f"{delta['cache_hits']} cache hit(s)"
                if arguments.modular:
                    summary += (
                        f", {delta['unit_hits']} unit hit(s), "
                        f"{delta['unit_misses']} unit compile(s), "
                        f"{delta['links']} link(s)"
                    )
            print(
                f"round {round_index + 1}: compiled {len(results)} program(s) "
                f"in {elapsed * 1000.0:.1f} ms ({summary})"
            )
            for path, result in zip(arguments.sources, results):
                # Serial batches yield live results, process batches yield
                # artifact records; both carry the same statistics.
                if isinstance(result, dict):
                    name, stats = result["name"], result["statistics"]
                else:
                    name, stats = result.name, result.statistics()
                print(
                    f"  {path}: process {name}, {stats['classes']} classes, "
                    f"{stats['free_clocks']} free clock(s), {stats['unresolved']} unresolved"
                )
        if arguments.cache_stats:
            print(json.dumps(service.statistics(), indent=2, sort_keys=True))
    return 0


def run_serve(argv: List[str]) -> int:
    """The ``serve`` subcommand: run the compilation daemon until killed."""
    pin_allocator()
    parser = build_serve_argument_parser()
    arguments = parser.parse_args(argv)
    if arguments.store_max_bytes is not None and arguments.store is None:
        print("error: --store-max-bytes requires --store", file=sys.stderr)
        return 2

    daemon = CompilationDaemon(
        store=arguments.store,
        max_entries=arguments.max_entries,
        jobs=arguments.jobs,
        request_log=arguments.log_requests,
        store_max_bytes=arguments.store_max_bytes,
    )

    def announce() -> None:
        if arguments.socket is not None:
            print(f"repro daemon listening on unix socket {arguments.socket}", flush=True)
        else:
            host, port = daemon.address
            print(f"repro daemon listening on {host}:{port}", flush=True)
        if arguments.store is not None:
            store_stats = daemon.store.statistics()
            print(
                f"compile store: {arguments.store} "
                f"({store_stats['entries']} entr{'y' if store_stats['entries'] == 1 else 'ies'} "
                f"on disk)",
                flush=True,
            )

    try:
        daemon.run(
            host=arguments.host,
            port=arguments.port,
            socket_path=arguments.socket,
            on_ready=announce,
        )
    except OSError as error:
        print(f"error: cannot bind: {error}", file=sys.stderr)
        return 2
    return 0


def run_gateway(argv: List[str]) -> int:
    """The ``gateway`` subcommand: front a fleet of compilation daemons."""
    pin_allocator()
    parser = build_gateway_argument_parser()
    arguments = parser.parse_args(argv)

    try:
        gateway = CompileGateway(
            backends=arguments.backend,
            local_fallback=not arguments.no_local_fallback,
            backend_timeout=arguments.backend_timeout,
            connect_timeout=arguments.connect_timeout,
            health_interval=arguments.health_interval,
            store=arguments.store,
            max_entries=arguments.max_entries,
            jobs=arguments.jobs,
            request_log=arguments.log_requests,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def announce() -> None:
        if arguments.socket is not None:
            print(f"repro gateway listening on unix socket {arguments.socket}", flush=True)
        else:
            host, port = gateway.address
            print(f"repro gateway listening on {host}:{port}", flush=True)
        specs = gateway.backends
        if specs:
            print(f"routing over {len(specs)} backend(s): {', '.join(specs)}", flush=True)
        else:
            print("no backends registered; compiling locally", flush=True)

    try:
        gateway.run(
            host=arguments.host,
            port=arguments.port,
            socket_path=arguments.socket,
            on_ready=announce,
        )
    except OSError as error:
        print(f"error: cannot bind: {error}", file=sys.stderr)
        return 2
    return 0


def run_remote_compile(argv: List[str]) -> int:
    """The ``remote-compile`` subcommand: compile on a running daemon."""
    parser = build_remote_argument_parser()
    arguments = parser.parse_args(argv)
    if (arguments.port is None) == (arguments.socket is None):
        print("error: exactly one of --port or --socket is required", file=sys.stderr)
        return 2

    style = GenerationStyle.FLAT if arguments.flat else GenerationStyle.HIERARCHICAL
    if arguments.retries < 0:
        print("error: --retries must be non-negative", file=sys.stderr)
        return 2
    try:
        client = RemoteCompiler(
            host=arguments.host,
            port=arguments.port,
            socket_path=arguments.socket,
            timeout=arguments.timeout,
            retries=arguments.retries,
        )
    except OSError as error:
        print(f"error: cannot connect to the daemon: {error}", file=sys.stderr)
        return 2

    status = 0
    with client:
        for path in arguments.sources:
            try:
                source = _read_source(path)
            except OSError as error:
                print(f"error: cannot read {path}: {error}", file=sys.stderr)
                return 2
            try:
                result = client.compile(
                    source,
                    style=style,
                    emit=[arguments.emit],
                    simulate=arguments.simulate,
                    seed=arguments.seed,
                    modular=arguments.modular,
                )
            except RemoteError as error:
                print(f"error: {path}: {error}", file=sys.stderr)
                status = 1
                continue
            if len(arguments.sources) > 1:
                print(f"== {path}: process {result.name} [{result.origin}]")
            artifact = result.artifacts[arguments.emit]
            if arguments.emit == "stats":
                print(json.dumps(artifact, indent=2, sort_keys=True))
            else:
                print(artifact)
            if result.simulation is not None:
                print()
                print(
                    f"simulation ({result.simulation['reactions']} reactions, "
                    f"seed {result.simulation['seed']}):"
                )
                print(result.simulation["diagram"])
        if arguments.stats:
            try:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            except RemoteError as error:
                print(f"error: {error}", file=sys.stderr)
                status = 1
    return status


#: names reserved by ``main`` and their runners (a source file with one of
#: these names must be passed as ``./<name>``)
SUBCOMMANDS = {
    "batch": run_batch,
    "serve": run_serve,
    "gateway": run_gateway,
    "remote-compile": run_remote_compile,
    "simulate": run_simulate,
    "partition": run_partition,
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](list(argv[1:]))
    parser = build_argument_parser()
    arguments = parser.parse_args(argv)

    try:
        source = _read_source(arguments.source)
    except OSError as error:
        print(f"error: cannot read {arguments.source}: {error}", file=sys.stderr)
        return 2

    style = GenerationStyle.FLAT if arguments.flat else GenerationStyle.HIERARCHICAL
    try:
        result = compile_source(source, style=style)
    except SignalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if arguments.emit == "tree":
        print(result.tree_text())
    elif arguments.emit == "clocks":
        print(result.clock_system)
    elif arguments.emit == "kernel":
        print(result.program)
    elif arguments.emit == "python":
        print(result.python_source(style))
    elif arguments.emit == "c":
        print(result.c_source(style))
    elif arguments.emit == "c_shared":
        print(result.c_shared_source(style))
    elif arguments.emit == "stats":
        print(json.dumps(result.statistics(), indent=2, sort_keys=True))

    if arguments.simulate > 0:
        executor = ReactiveExecutor(result.executable)
        oracle = random_oracle(result.types, seed=arguments.seed)
        trace = executor.run(arguments.simulate, oracle)
        print()
        print(f"simulation ({arguments.simulate} reactions, seed {arguments.seed}):")
        print(timing_diagram(trace.observations()))

    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
