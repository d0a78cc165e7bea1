"""Lock-step execution of a partitioned program across OS processes.

The partitioner (:mod:`repro.lang.partition`) cuts a program into one
kernel program per location plus typed channels at the cuts.  This module
compiles every fragment through the :class:`~repro.service.service.
CompilationService` (the modular path, so fragments sharing modules
dedupe against the fleet-wide unit cache) and advances the
fragments **instant by instant**:

* each instant, fragments step in the topological order of the location
  graph; a channel carries, per instant, the pair (presence, value) of
  every cut signal -- absence is transmitted explicitly as a missing key,
  so the consumer's clocks see exactly what the monolithic program saw;
* free clocks of a fragment are resolved from two sources: classes
  containing a channel signal take their presence from the producer
  ("did the value arrive this instant"), all other classes map back onto
  a free clock of the *monolithic* program and read the driving schedule
  directly.  A fragment clock that is neither is constrained at another
  location -- the partition is rejected when the harness is built;
* :meth:`DistributedProgram.run` steps everything inside one process (the
  deterministic baseline); :meth:`DistributedProgram.run_multiprocess`
  spawns one OS process per fragment, wires the channels as
  :func:`multiprocessing.Pipe` pairs, and drives the children over a
  control pipe.  Children are always reaped: the parent sends a shutdown
  sentinel, joins, and terminates stragglers even on ``KeyboardInterrupt``
  or ``SIGTERM``.

The wire format on every pipe is one picklable dict per instant:
``{"inputs": {...}, "flags": {...}}`` parent-to-child, ``{signal: value}``
(present signals only) child-to-parent and on every channel pipe.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..clocks.algebra import ClockAtom, SignalClock
from ..errors import PartitionError
from ..lang.ast import Process
from ..lang.kernel import KernelProgram, normalize
from ..lang.parser import parse_process
from ..lang.partition import Fragment, PartitionedProgram, partition_program
from ..lang.types import SignalType

__all__ = [
    "FragmentRuntime",
    "DistributedProgram",
    "build_distributed",
]


@dataclass
class FragmentRuntime:
    """One compiled fragment plus its channel wiring and clock plans."""

    fragment: Fragment
    result: object
    #: per root flag of the fragment executable: ``("channel", members)`` or
    #: ``("external", monolithic_key)``
    flag_plans: List[Tuple[str, str, object]] = field(default_factory=list)
    #: channel outputs grouped by consumer location, in topological order
    sends: List[Tuple[str, List[str]]] = field(default_factory=list)

    @property
    def location(self) -> str:
        return self.fragment.location

    @property
    def executable(self):
        return self.result.executable

    def worker_payload(self) -> dict:
        """Everything a child process needs to rebuild and run the step."""
        executable = self.executable
        return {
            "source": executable.source,
            "name": executable.name,
            "style": executable.style.value,
            "inputs": list(executable.inputs),
            "outputs": list(executable.outputs),
            "root_flags": [list(flag) for flag in executable.root_flags],
            "types": {name: t.value for name, t in executable.types.items()},
            "flag_plans": list(self.flag_plans),
            "sends": [(consumer, list(signals)) for consumer, signals in self.sends],
        }


@dataclass
class DistributedProgram:
    """A partitioned program, compiled per fragment and ready to run."""

    partitioned: PartitionedProgram
    #: monolithic reference compilation (drives schedules and external clocks)
    reference: object
    runtimes: List[FragmentRuntime]

    @property
    def program(self) -> KernelProgram:
        return self.partitioned.program

    @property
    def locations(self) -> List[str]:
        return [runtime.location for runtime in self.runtimes]

    def interpreter(self):
        """A fresh reference interpreter for the unsplit program."""
        return self.reference.interpreter()

    # -- stepping (shared by both execution modes) -------------------------
    def _fragment_inputs(
        self,
        runtime: FragmentRuntime,
        instant: Mapping[str, object],
        channel_env: Mapping[str, object],
    ) -> Dict[str, object]:
        values: Dict[str, object] = {}
        for name in runtime.fragment.external_inputs:
            if name in instant:
                values[name] = instant[name]
        for name in runtime.fragment.channel_inputs:
            if name in channel_env:
                values[name] = channel_env[name]
        for (key, kind, payload), _flag in zip(
            runtime.flag_plans, runtime.executable.root_flags
        ):
            if kind == "channel":
                values[key] = any(member in channel_env for member in payload)
            else:
                values[key] = bool(instant.get(payload, False))
        return values

    def run(self, schedule: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
        """Step every fragment in one process, instant by instant.

        ``schedule`` is a monolithic driving schedule (input values plus
        presence booleans for the monolithic program's free clocks, as
        produced by :func:`repro.runtime.executor.random_input_schedule`
        for the reference compilation).  Returns, per instant, the present
        *program* outputs of the composite system.
        """
        steps = [runtime.executable.fresh() for runtime in self.runtimes]
        program_outputs = set(self.program.outputs)
        composite: List[Dict[str, object]] = []
        for instant in schedule:
            channel_env: Dict[str, object] = {}
            observed: Dict[str, object] = {}
            for runtime, step in zip(self.runtimes, steps):
                outputs = step.step(
                    self._fragment_inputs(runtime, instant, channel_env)
                )
                for name in runtime.fragment.channel_outputs:
                    if name in outputs:
                        channel_env[name] = outputs[name]
                for name, value in outputs.items():
                    if name in program_outputs:
                        observed[name] = value
            composite.append(observed)
        return composite

    # -- multi-process execution -------------------------------------------
    def run_multiprocess(
        self,
        schedule: Sequence[Mapping[str, object]],
        join_timeout: float = 10.0,
    ) -> List[Dict[str, object]]:
        """Like :meth:`run`, with one OS process per fragment.

        Channels are anonymous pipes wired producer-to-consumer; the parent
        only distributes the external schedule and collects outputs.
        Children are reaped on every exit path, including
        ``KeyboardInterrupt``.
        """
        context = multiprocessing.get_context("spawn")
        # One control pipe per fragment, one data pipe per channel pair.
        channel_pipes: Dict[Tuple[str, str], Tuple] = {}
        for runtime in self.runtimes:
            for consumer, _signals in runtime.sends:
                receive_end, send_end = context.Pipe(duplex=False)
                channel_pipes[(runtime.location, consumer)] = (receive_end, send_end)

        children: List = []
        controls: List = []
        program_outputs = set(self.program.outputs)
        try:
            for runtime in self.runtimes:
                parent_end, child_end = context.Pipe()
                in_conns = [
                    receive_end
                    for (producer, consumer), (receive_end, _s) in channel_pipes.items()
                    if consumer == runtime.location
                ]
                out_conns = [
                    (channel_pipes[(runtime.location, consumer)][1], signals)
                    for consumer, signals in runtime.sends
                ]
                child = context.Process(
                    target=_fragment_worker,
                    args=(child_end, in_conns, out_conns, runtime.worker_payload()),
                    daemon=True,
                    name=f"repro-frag-{runtime.location}",
                )
                child.start()
                child_end.close()
                children.append(child)
                controls.append(parent_end)
            # The parent keeps the channel send-ends open only inside the
            # producing child; close its copies so EOF propagates.
            for receive_end, send_end in channel_pipes.values():
                send_end.close()
                receive_end.close()

            composite: List[Dict[str, object]] = []
            for instant in schedule:
                for runtime, control in zip(self.runtimes, controls):
                    external = {
                        name: instant[name]
                        for name in runtime.fragment.external_inputs
                        if name in instant
                    }
                    flags = {
                        key: bool(instant.get(payload, False))
                        for key, kind, payload in runtime.flag_plans
                        if kind == "external"
                    }
                    control.send({"inputs": external, "flags": flags})
                observed: Dict[str, object] = {}
                for control in controls:
                    outputs = control.recv()
                    for name, value in outputs.items():
                        if name in program_outputs:
                            observed[name] = value
                composite.append(observed)
            return composite
        finally:
            for control in controls:
                try:
                    control.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for child in children:
                child.join(timeout=join_timeout)
            for child in children:
                if child.is_alive():
                    child.terminate()
                    child.join(timeout=join_timeout)
            for control in controls:
                control.close()


def _fragment_worker(control, in_conns, out_conns, payload) -> None:
    """Child process body: rebuild the step, then loop until shutdown.

    Exits cleanly on the ``None`` sentinel, on control-pipe EOF (parent
    died) and on ``KeyboardInterrupt``/``SIGTERM`` -- the parent's reaper
    then joins it without force.
    """
    from ..codegen.ir import GenerationStyle
    from ..codegen.python_backend import CompiledProcess

    executable = CompiledProcess.from_generated_source(
        source=payload["source"],
        name=payload["name"],
        style=GenerationStyle(payload["style"]),
        inputs=payload["inputs"],
        outputs=payload["outputs"],
        root_flags=[tuple(flag) for flag in payload["root_flags"]],
        types={name: SignalType(value) for name, value in payload["types"].items()},
    )
    channel_plans = [
        (key, members) for key, kind, members in payload["flag_plans"]
        if kind == "channel"
    ]
    try:
        while True:
            try:
                message = control.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            values = dict(message["inputs"])
            values.update(message["flags"])
            arrived: Dict[str, object] = {}
            for conn in in_conns:
                arrived.update(conn.recv())
            values.update(arrived)
            for key, members in channel_plans:
                values[key] = any(member in arrived for member in members)
            outputs = executable.step(values)
            for conn, signals in out_conns:
                conn.send({s: outputs[s] for s in signals if s in outputs})
            control.send(outputs)
    except KeyboardInterrupt:
        pass
    finally:
        control.close()


def _plan_fragment_flags(
    runtime_result,
    fragment: Fragment,
    monolithic_atoms_by_key: Dict[ClockAtom, str],
) -> List[Tuple[str, str, object]]:
    """Decide, per fragment free clock, where its presence comes from."""
    plans: List[Tuple[str, str, object]] = []
    channel_inputs = set(fragment.channel_inputs)
    for (cid, key, _default), atoms in zip(
        runtime_result.executable.root_flags, runtime_result.root_flag_atoms(), strict=True
    ):
        members = [
            atom.signal for atom in atoms
            if isinstance(atom, SignalClock) and atom.signal in channel_inputs
        ]
        if members:
            plans.append((key, "channel", members))
            continue
        monolithic_key = None
        for atom in atoms:
            monolithic_key = monolithic_atoms_by_key.get(atom)
            if monolithic_key is not None:
                break
        if monolithic_key is None:
            names = ", ".join(atom.signal for atom in atoms) or key
            raise PartitionError(
                f"fragment {fragment.location!r}: the clock of {names} is free"
                " locally but constrained at another location; co-locate the"
                " constraint or annotate the signals explicitly"
            )
        plans.append((key, "external", monolithic_key))
    return plans


def build_distributed(
    source: Optional[str] = None,
    process: Optional[Process] = None,
    program: Optional[KernelProgram] = None,
    service=None,
    style=None,
) -> DistributedProgram:
    """Partition, compile and wire a program for distributed execution.

    The monolithic program is compiled once (the reference for schedules
    and differential checks), each fragment once through ``service``'s
    modular path, so fragments reuse fleet-wide unit artifacts.  Raises
    :class:`~repro.errors.PartitionError` when the cut cannot be executed
    lock-step.
    """
    from ..codegen.ir import GenerationStyle
    from ..service.service import CompilationService

    if style is None:
        style = GenerationStyle.HIERARCHICAL
    if program is None:
        if process is None:
            if source is None:
                raise ValueError("provide source, process or program")
            process = parse_process(source)
        program = normalize(process)
    if process is None:
        process = Process(name=program.name)

    owns_service = service is None
    if owns_service:
        service = CompilationService()
    try:
        partitioned = partition_program(program)
        reference = service.compile_process(process, style=style, program=program)
        monolithic_atoms_by_key: Dict[ClockAtom, str] = {}
        for (cid, key, _default), atoms in zip(
            reference.executable.root_flags, reference.root_flag_atoms(), strict=True
        ):
            for atom in atoms:
                monolithic_atoms_by_key[atom] = key

        consumer_order = {loc: i for i, loc in enumerate(partitioned.assignment.locations)}
        runtimes: List[FragmentRuntime] = []
        for fragment in partitioned.fragments:
            stub = Process(name=fragment.program.name)
            result = service.compile_modular(
                process=stub, program=fragment.program, style=style
            )
            sends: Dict[str, List[str]] = {}
            for channel in partitioned.channels:
                if channel.producer == fragment.location:
                    sends[channel.consumer] = [s.name for s in channel.signals]
            runtimes.append(
                FragmentRuntime(
                    fragment=fragment,
                    result=result,
                    flag_plans=_plan_fragment_flags(
                        result, fragment, monolithic_atoms_by_key
                    ),
                    sends=sorted(
                        sends.items(), key=lambda item: consumer_order[item[0]]
                    ),
                )
            )
        return DistributedProgram(
            partitioned=partitioned, reference=reference, runtimes=runtimes
        )
    finally:
        if owns_service:
            service.close()
