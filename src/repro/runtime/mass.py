"""Mass simulation: execute the generated C over whole populations.

The C backend used to be emit-only -- its output was compiled as a
translation unit in tests but never *run*, which is how the truncated
integer-division bug survived.  This module closes that gap:

* :func:`find_c_compiler` locates a C toolchain (``cc``/``gcc``/``clang``,
  overridable through ``REPRO_CC``);
* :class:`SharedCProgram` compiles the reentrant columnar C variant
  (:func:`~repro.codegen.c_backend.generate_c_shared_source`) with
  ``cc -shared`` and loads it through :mod:`ctypes`;
* :class:`CPopulation` steps ``n`` instances of the loaded program per tick
  over struct-of-arrays state (one C array per input/output column across
  the population, one packed state struct per instance);
* :class:`LoadedCProcess` wraps a population of one behind the same
  ``step(inputs, oracle=None, observe=None)`` API as
  :class:`~repro.codegen.python_backend.CompiledProcess`, so the
  differential harness and :class:`~repro.runtime.executor.ReactiveExecutor`
  drive real machine code;
* :class:`MassSimulation` is the front door: pick a backend (``"c"``,
  ``"python"`` or ``"auto"``), step a whole population, fall back to
  per-instance Python stepping when no C toolchain is installed.

Only the standard library is used (``ctypes`` + ``array``): the runtime
must work in the same environments as the rest of the compiler.

Semantics note -- the C entry points consume inputs *positionally* (one
column per input signal), so a population tick must supply a value for
every input of every instance up front; the program's clock hierarchy then
decides, per instance, which of those values are actually read.  This is
exactly the paper's Section 2.6 contract: the environment provides inputs,
the step function's control structure (the arborescent clock hierarchy)
touches only the ones present at this reaction.  Signals absent from an
instance's tick mapping default to their type's neutral value; they are
never read unless the instance's clocks say so.
"""

from __future__ import annotations

import array
import ctypes
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..codegen.c_backend import generate_c_shared_source
from ..codegen.ir import GenerationStyle, StepIR
from ..errors import SignalError, SimulationError
from ..lang.types import SignalType, default_value

__all__ = [
    "find_c_compiler",
    "compile_shared_library",
    "SharedCProgram",
    "CPopulation",
    "LoadedCProcess",
    "MassSimulation",
    "TickRecord",
]

#: array module typecodes matching the C column types of the shared emitter
_ARRAY_CODES = {
    SignalType.EVENT: "i",
    SignalType.BOOLEAN: "i",
    SignalType.INTEGER: "l",
    SignalType.REAL: "d",
}

_CTYPES = {
    SignalType.EVENT: ctypes.c_int,
    SignalType.BOOLEAN: ctypes.c_int,
    SignalType.INTEGER: ctypes.c_long,
    SignalType.REAL: ctypes.c_double,
}


def find_c_compiler() -> Optional[str]:
    """Path of a usable C compiler, or ``None``.

    ``REPRO_CC`` overrides detection (set it to an empty string to force the
    Python fallback even on machines with a toolchain -- used by tests).
    """
    override = os.environ.get("REPRO_CC")
    if override is not None:
        return shutil.which(override) if override else None
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def compile_shared_library(
    c_source: str, directory: str, name: str, cc: Optional[str] = None
) -> str:
    """Compile ``c_source`` to ``<directory>/<name>.so`` and return its path."""
    compiler = cc or find_c_compiler()
    if compiler is None:
        raise SimulationError(
            "no C compiler found (install cc/gcc/clang or set REPRO_CC)"
        )
    source_path = os.path.join(directory, f"{name}.c")
    library_path = os.path.join(directory, f"{name}.so")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write(c_source)
    command = [
        compiler,
        "-std=c99",
        "-O2",
        "-fPIC",
        "-shared",
        "-o",
        library_path,
        source_path,
        "-lm",
    ]
    completed = subprocess.run(command, capture_output=True, text=True)
    if completed.returncode != 0:
        raise SimulationError(
            f"C compilation failed ({' '.join(command)}):\n{completed.stderr}"
        )
    return library_path


def _coerce_in(value: object, signal_type: SignalType) -> Union[int, float]:
    if signal_type is SignalType.REAL:
        return float(value)
    return int(value)


@dataclass
class SharedCProgram:
    """A compiled-and-loaded shared library for one SIGNAL process.

    Holds the loaded :mod:`ctypes` library plus the interface metadata
    (input/output order, free-clock keys, signal types) needed to drive the
    columnar ABI.  Populations created from one ``SharedCProgram`` share the
    machine code but never any state.
    """

    name: str
    style: GenerationStyle
    source: str
    inputs: List[str]
    outputs: List[str]
    root_flags: List[Tuple[int, str, bool]]
    types: Dict[str, SignalType]
    library_path: str
    _library: ctypes.CDLL = field(repr=False)
    _tempdir: Optional[tempfile.TemporaryDirectory] = field(default=None, repr=False)
    state_bytes: int = 0

    def __post_init__(self) -> None:
        state_bytes = getattr(self._library, f"{self.name}_state_bytes")
        state_bytes.restype = ctypes.c_long
        state_bytes.argtypes = []
        self.state_bytes = int(state_bytes())
        self._init = getattr(self._library, f"{self.name}_init")
        self._init.restype = None
        self._step_many = getattr(self._library, f"{self.name}_step_many")
        self._step_many.restype = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_metadata(
        cls,
        c_shared_source: str,
        name: str,
        style: GenerationStyle,
        inputs: Sequence[str],
        outputs: Sequence[str],
        root_flags: Sequence[Sequence[object]],
        types: Mapping[str, SignalType],
        cc: Optional[str] = None,
    ) -> "SharedCProgram":
        """Compile and load reentrant C source given its interface metadata."""
        tempdir = tempfile.TemporaryDirectory(prefix=f"repro-mass-{name}-")
        try:
            library_path = compile_shared_library(
                c_shared_source, tempdir.name, name, cc=cc
            )
            library = ctypes.CDLL(library_path)
        except BaseException:
            tempdir.cleanup()
            raise
        return cls(
            name=name,
            style=style,
            source=c_shared_source,
            inputs=list(inputs),
            outputs=list(outputs),
            root_flags=[tuple(flag) for flag in root_flags],
            types=dict(types),
            library_path=library_path,
            _library=library,
            _tempdir=tempdir,
        )

    @classmethod
    def from_ir(cls, ir: StepIR, cc: Optional[str] = None) -> "SharedCProgram":
        return cls.from_metadata(
            generate_c_shared_source(ir),
            name=ir.name,
            style=ir.style,
            inputs=ir.inputs,
            outputs=ir.outputs,
            root_flags=ir.root_flags,
            types=ir.types,
            cc=cc,
        )

    @classmethod
    def from_result(
        cls,
        result,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        cc: Optional[str] = None,
    ) -> "SharedCProgram":
        """Compile and load the reentrant C of a :class:`CompilationResult`."""
        return cls.from_ir(result.step_ir(style), cc=cc)

    @classmethod
    def from_record(cls, record: Mapping[str, object], cc: Optional[str] = None) -> "SharedCProgram":
        """Load a persisted artifact record's ``c_shared`` artifact.

        A lean record, one that carries no ``c_shared`` text yet, is first
        completed from its source by
        :meth:`~repro.service.CompilationService.complete_record`.  A record
        that fails the store's check (one of an older format, or a hollow
        one), or whose source does not compile to it, raises
        :class:`SimulationError` -- recompile the program.
        """
        from ..service.service import CompilationService
        from ..service.store import missing_kinds, step_interface, types_from_record

        try:
            interface = step_interface(record)
            if missing_kinds(record, ["c_shared"]):
                record = CompilationService().complete_record(record)
        except (ValueError, SignalError) as error:
            raise SimulationError(f"not a loadable artifact record: {error}") from None
        return cls.from_metadata(
            record["artifacts"]["c_shared"],
            style=GenerationStyle(record["style"]),
            types=types_from_record(record),
            cc=cc,
            **interface,
        )

    # -- instantiation -------------------------------------------------------
    def population(self, instances: int) -> "CPopulation":
        return CPopulation(self, instances)

    def process(self) -> "LoadedCProcess":
        """A single-instance executable with the ``CompiledProcess`` step API."""
        return LoadedCProcess(self)


class CPopulation:
    """Columnar state for ``n`` instances of one loaded C program.

    One contiguous byte buffer holds the packed per-instance state structs;
    one :mod:`array` column per input and output signal spans the whole
    population; free-clock presence lives in a root-major byte matrix
    (``roots[r * n + i]``).  A tick is one call into
    ``<name>_step_many`` -- the per-instance loop runs entirely in C.
    """

    def __init__(self, program: SharedCProgram, instances: int):
        if instances <= 0:
            raise ValueError("a population needs at least one instance")
        self.program = program
        self.instances = instances
        self.ticks = 0
        self._states = ctypes.create_string_buffer(
            max(program.state_bytes, 1) * instances
        )
        program._init(self._states, ctypes.c_long(instances))

        def column(signal: str) -> array.array:
            code = _ARRAY_CODES[program.types[signal]]
            return array.array(code, [0] * instances) if code != "d" else array.array(
                code, [0.0] * instances
            )

        self._in_columns = {signal: column(signal) for signal in program.inputs}
        self._out_columns = {signal: column(signal) for signal in program.outputs}
        self._out_present = {
            signal: array.array("B", bytes(instances)) for signal in program.outputs
        }
        self._in_column_list = [self._in_columns[s] for s in program.inputs]
        self._out_column_list = [self._out_columns[s] for s in program.outputs]
        self._out_present_list = [self._out_present[s] for s in program.outputs]
        if program.root_flags:
            self._roots = array.array(
                "B", bytes(len(program.root_flags) * instances)
            )
        else:
            self._roots = None

        # The columns never resize, so the ctypes views over their buffers
        # are built once; a tick is then one C call with prebuilt arguments.
        arguments: List[object] = [self._states, ctypes.c_long(instances)]
        arguments.append(
            (ctypes.c_ubyte * len(self._roots)).from_buffer(self._roots)
            if self._roots is not None
            else None
        )
        for signal in program.inputs:
            arguments.append(
                (_CTYPES[program.types[signal]] * instances).from_buffer(
                    self._in_columns[signal]
                )
            )
        for signal in program.outputs:
            arguments.append(
                (_CTYPES[program.types[signal]] * instances).from_buffer(
                    self._out_columns[signal]
                )
            )
            arguments.append(
                (ctypes.c_ubyte * instances).from_buffer(self._out_present[signal])
            )
        self._call_arguments = arguments

    def reset(self) -> None:
        """Reinitialize every instance's delay registers."""
        self.program._init(self._states, ctypes.c_long(self.instances))
        self.ticks = 0

    def step(
        self, per_instance_inputs: Sequence[Mapping[str, object]]
    ) -> List[Dict[str, object]]:
        """Run one reaction of every instance; return present outputs per instance.

        ``per_instance_inputs`` supplies one mapping per instance: input
        signal values (missing signals default per type) and free-clock
        presence under the root flags' input keys (missing keys take the
        flag's default, exactly like the Python backend's ``inputs.get``).
        """
        roots, columns = self.pack_instant(per_instance_inputs)
        self.step_packed(roots, columns)
        return self.decode_outputs(self.output_snapshot())

    # -- packed columnar drive ----------------------------------------------
    #
    # ``step`` above marshals per-instance dicts every tick, which costs as
    # much Python-side work as just interpreting the generated Python step.
    # The packed path front-loads that marshalling: ``pack_instant`` turns a
    # tick's mappings into raw input columns once, ``step_packed`` is then
    # pure array memcpy plus one C call, and ``output_snapshot`` captures the
    # result columns as bytes so decoding can happen after a timed run.

    def pack_instant(
        self, per_instance_inputs: Sequence[Mapping[str, object]]
    ) -> Tuple[Optional[array.array], List[array.array]]:
        """Marshal one tick's per-instance mappings into raw input columns."""
        n = self.instances
        if len(per_instance_inputs) != n:
            raise ValueError(
                f"expected {n} input mappings, got {len(per_instance_inputs)}"
            )
        program = self.program
        columns: List[array.array] = []
        for signal in program.inputs:
            signal_type = program.types[signal]
            neutral = _coerce_in(default_value(signal_type), signal_type)
            columns.append(
                array.array(
                    _ARRAY_CODES[signal_type],
                    [
                        _coerce_in(mapping.get(signal, neutral), signal_type)
                        for mapping in per_instance_inputs
                    ],
                )
            )
        roots: Optional[array.array] = None
        if self._roots is not None:
            flat: List[int] = []
            for _, key, default in program.root_flags:
                flat.extend(
                    1 if mapping.get(key, default) else 0
                    for mapping in per_instance_inputs
                )
            roots = array.array("B", flat)
        return roots, columns

    def pack_schedule(
        self, per_instance_schedules: Sequence[Sequence[Mapping[str, object]]]
    ) -> List[Tuple[Optional[array.array], List[array.array]]]:
        """Marshal one input schedule per instance into per-tick columns.

        ``per_instance_schedules[i][t]`` is instance ``i``'s input mapping at
        tick ``t`` (the shape :func:`random_input_schedule` produces, one
        schedule per instance).  The result feeds :meth:`step_packed`.
        """
        ticks = min((len(s) for s in per_instance_schedules), default=0)
        return [
            self.pack_instant([schedule[tick] for schedule in per_instance_schedules])
            for tick in range(ticks)
        ]

    def step_packed(
        self,
        roots: Optional[array.array],
        columns: Sequence[array.array],
    ) -> None:
        """Run one reaction from pre-marshalled input columns."""
        if roots is not None:
            self._roots[:] = roots
        for column, data in zip(self._in_column_list, columns):
            column[:] = data
        self.program._step_many(*self._call_arguments)
        self.ticks += 1

    def output_snapshot(self) -> Tuple[List[bytes], List[bytes]]:
        """Raw ``(values, presence)`` bytes of the output columns, per signal."""
        return (
            [column.tobytes() for column in self._out_column_list],
            [presence.tobytes() for presence in self._out_present_list],
        )

    def decode_outputs(
        self, snapshot: Tuple[List[bytes], List[bytes]]
    ) -> List[Dict[str, object]]:
        """Expand an :meth:`output_snapshot` into per-instance output dicts."""
        values_bytes, presence_bytes = snapshot
        program = self.program
        results: List[Dict[str, object]] = [{} for _ in range(self.instances)]
        for signal, raw_values, raw_presence in zip(
            program.outputs, values_bytes, presence_bytes
        ):
            if 1 not in raw_presence:
                continue
            signal_type = program.types[signal]
            values = array.array(_ARRAY_CODES[signal_type], raw_values).tolist()
            if signal_type in (SignalType.BOOLEAN, SignalType.EVENT):
                values = [value != 0 for value in values]
            for index, present in enumerate(raw_presence):
                if present:
                    results[index][signal] = values[index]
        return results


class LoadedCProcess:
    """A single loaded-C instance behind the ``CompiledProcess`` step API.

    Because the C ABI takes inputs positionally, :meth:`step` materializes a
    value for *every* input signal before the reaction: explicit ``inputs``
    first, then the ``oracle``, then the type's neutral default.  An oracle
    passed here is therefore consulted for every input each tick, not only
    for the inputs the clock hierarchy ends up reading -- drive differential
    comparisons with a pre-drawn
    :func:`~repro.runtime.executor.random_input_schedule` rather than a
    shared stateful oracle so both backends see identical values.

    ``observe`` receives the present *outputs* only: internal signals never
    cross the C boundary (that is the point of compiled code).
    """

    def __init__(self, program: SharedCProgram):
        self.program = program
        self.name = program.name
        self.style = program.style
        self.source = program.source
        self.inputs = list(program.inputs)
        self.outputs = list(program.outputs)
        self.root_flags = list(program.root_flags)
        self.types = dict(program.types)
        self._population = program.population(1)

    def step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        oracle=None,
        observe: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        provided = dict(inputs or {})
        instant: Dict[str, object] = {}
        for _, key, default in self.root_flags:
            instant[key] = provided.get(key, default)
        for signal in self.inputs:
            if signal in provided:
                instant[signal] = provided[signal]
            elif oracle is not None:
                instant[signal] = oracle(signal)
            else:
                instant[signal] = default_value(self.types[signal])
        outputs = self._population.step([instant])[0]
        if observe is not None:
            observe.update(outputs)
        return outputs

    def run(self, input_trace, oracle=None) -> List[Dict[str, object]]:
        return [self.step(instant, oracle) for instant in input_trace]

    def reset(self) -> None:
        self._population.reset()

    def fresh(self) -> "LoadedCProcess":
        """A new instance sharing the machine code but not the state."""
        return LoadedCProcess(self.program)


@dataclass
class TickRecord:
    """Present outputs of one population tick, one mapping per instance."""

    outputs: List[Dict[str, object]]

    def present_count(self, signal: str) -> int:
        return sum(1 for outputs in self.outputs if signal in outputs)

    def __len__(self) -> int:
        return len(self.outputs)

    def __iter__(self):
        return iter(self.outputs)

    def __getitem__(self, index: int) -> Dict[str, object]:
        return self.outputs[index]


class MassSimulation:
    """Step many instances of one compiled program per tick.

    ``backend`` selects the execution engine:

    * ``"c"`` -- compile the reentrant C with ``cc -shared`` and step the
      whole population per tick inside the loaded library
      (:class:`CPopulation`); raises when no C toolchain is available;
    * ``"python"`` -- naive per-instance stepping of independent
      :class:`~repro.codegen.python_backend.CompiledProcess` copies (the
      baseline the benchmark gate measures against);
    * ``"auto"`` -- ``"c"`` when a compiler is found, else ``"python"``.

    Both engines implement identical reaction semantics (the differential
    fuzzer enforces this), so ``backend`` is a pure performance choice.
    """

    def __init__(
        self,
        instances: int,
        backend: str,
        population: Optional[CPopulation] = None,
        processes: Optional[List[object]] = None,
    ):
        self.instances = instances
        self.backend = backend
        self._population = population
        self._processes = processes
        self.ticks = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result,
        instances: int,
        backend: str = "auto",
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        cc: Optional[str] = None,
    ) -> "MassSimulation":
        """Build a population from a :class:`~repro.compiler.CompilationResult`."""
        chosen = cls._choose_backend(backend, cc)
        if chosen == "c":
            shared = SharedCProgram.from_result(result, style=style, cc=cc)
            return cls(instances, "c", population=shared.population(instances))
        executable = (
            result.executable
            if style is GenerationStyle.HIERARCHICAL
            else result.executable_flat
        )
        if executable is None:
            raise SimulationError(
                "result has no flat executable (compiled without build_flat)"
            )
        processes = [executable.fresh() for _ in range(instances)]
        return cls(instances, "python", processes=processes)

    @classmethod
    def from_record(
        cls,
        record: Mapping[str, object],
        instances: int,
        backend: str = "auto",
        cc: Optional[str] = None,
    ) -> "MassSimulation":
        """Build a population from a persisted artifact record.

        The C backend uses the record's ``c_shared`` artifact, rendered from
        the record's source first when the record is lean
        (:meth:`SharedCProgram.from_record`); the Python backend rehydrates
        the generated step source without recompiling.  A malformed record
        raises :class:`SimulationError` on either backend.
        """
        from ..service.store import executable_from_record

        chosen = cls._choose_backend(backend, cc)
        if chosen == "c":
            shared = SharedCProgram.from_record(record, cc=cc)
            return cls(instances, "c", population=shared.population(instances))
        try:
            template = executable_from_record(record)
        except ValueError as error:
            raise SimulationError(f"not a loadable artifact record: {error}") from None
        processes = [template.fresh() for _ in range(instances)]
        return cls(instances, "python", processes=processes)

    @staticmethod
    def _choose_backend(backend: str, cc: Optional[str]) -> str:
        if backend not in ("auto", "c", "python"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "auto":
            return "c" if (cc or find_c_compiler()) else "python"
        if backend == "c" and not (cc or find_c_compiler()):
            raise SimulationError(
                "backend='c' requested but no C compiler found "
                "(install cc/gcc/clang, set REPRO_CC, or use backend='auto')"
            )
        return backend

    # -- stepping ------------------------------------------------------------
    def _normalize(
        self,
        inputs: Union[Mapping[str, object], Sequence[Mapping[str, object]], None],
    ) -> Sequence[Mapping[str, object]]:
        if inputs is None:
            return [{}] * self.instances
        if isinstance(inputs, Mapping):
            return [inputs] * self.instances
        if len(inputs) != self.instances:
            raise ValueError(
                f"expected {self.instances} input mappings, got {len(inputs)}"
            )
        return inputs

    def step(
        self,
        inputs: Union[Mapping[str, object], Sequence[Mapping[str, object]], None] = None,
    ) -> TickRecord:
        """One reaction of every instance.

        ``inputs`` is a single mapping broadcast to all instances, a
        sequence of one mapping per instance, or ``None`` (type defaults).
        """
        per_instance = self._normalize(inputs)
        if self._population is not None:
            outputs = self._population.step(per_instance)
        else:
            outputs = [
                process.step(dict(instant))
                for process, instant in zip(self._processes, per_instance)
            ]
        self.ticks += 1
        return TickRecord(outputs=outputs)

    def run(
        self,
        schedule: Sequence[
            Union[Mapping[str, object], Sequence[Mapping[str, object]], None]
        ],
    ) -> List[TickRecord]:
        """One :meth:`step` per element of ``schedule``."""
        return [self.step(tick_inputs) for tick_inputs in schedule]

    def reset(self) -> None:
        if self._population is not None:
            self._population.reset()
        else:
            for process in self._processes:
                process.reset()
        self.ticks = 0
