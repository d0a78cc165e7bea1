"""End-to-end compilation driver.

``compile_source`` / ``compile_process`` run the full pipeline described in
the paper:

1. parse the SIGNAL source and desugar it to kernel processes;
2. infer signal types;
3. extract the system of boolean clock equations (Table 1);
4. triangularize it by arborescent resolution (Section 3), producing the
   clock hierarchy, its BDD encodings and the free clocks;
5. build the conditional dependency graph (Table 2) and check causality;
6. schedule the computations and generate executable sequential code
   (hierarchical nested style by default, flat single-loop style as the
   Figure 9 baseline).

The intermediate artifacts are all exposed on the returned
:class:`CompilationResult` so that examples, tests and benchmarks can
inspect every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .bdd import BDDManager
from .clocks.algebra import ClockAtom, CondFalse, CondTrue, SignalClock
from .clocks.equations import ClockSystem, extract_clock_system
from .clocks.resolution import ClockHierarchy, resolve
from .codegen.c_backend import generate_c_shared_source, generate_c_source
from .codegen.ir import GenerationStyle, StepIR, build_step_ir
from .codegen.linker import ir_to_payload, link_step_ir
from .codegen.python_backend import (
    CompiledProcess,
    _instantiate_step,
    generate_python_source,
)
from .graph.dependency import ConditionalDependencyGraph, build_dependency_graph
from .graph.scheduling import Schedule, build_schedule
from .lang.ast import Process
from .lang.kernel import KernelProgram, normalize
from .lang.parser import parse_process
from .lang.types import SignalType, infer_types
from .lang.units import ProgramUnit, UNIT_FINGERPRINT_VERSION, rename_text, split_units
from .runtime.interpreter import KernelInterpreter

__all__ = [
    "CompilationResult",
    "LinkedCompilationResult",
    "compile_source",
    "compile_process",
    "analyze_source",
    "compile_unit_record",
    "link_units",
    "compile_modular_source",
]


@dataclass(kw_only=True)
class _Rendered:
    """The generated code of one result, rendered from its step IR.

    Each style's :class:`StepIR` and each (backend, style) text is built at
    most once and memoized; emitters never mutate an IR, so every artifact
    renders from the same one.  The runnable steps, ``executable`` (of
    ``style``) and ``executable_flat`` (with ``build_flat``), are
    byte-compiled from the memoized Python text on first access only, so a
    caller that serializes the artifacts (the artifact store's records) never
    pays for ``compile()``.  The public compile entry points call
    :meth:`materialize` before they return.
    """

    style: GenerationStyle = GenerationStyle.HIERARCHICAL
    build_flat: bool = False
    _irs: Dict[GenerationStyle, StepIR] = field(
        default_factory=dict, repr=False, compare=False
    )
    _texts: Dict[tuple, str] = field(default_factory=dict, repr=False, compare=False)
    #: the byte-compiled steps, keyed ``flat``: False for ``executable``
    _executables: Dict[bool, CompiledProcess] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _build_step_ir(self, style: GenerationStyle) -> StepIR:
        raise NotImplementedError

    def step_ir(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> StepIR:
        """The step IR of ``style``, built once per result."""
        ir = self._irs.get(style)
        if ir is None:
            ir = self._irs[style] = self._build_step_ir(style)
        return ir

    def _text(self, backend: str, style: GenerationStyle) -> str:
        key = (backend, style)
        text = self._texts.get(key)
        if text is None:
            ir = self.step_ir(style)
            if backend == "python":
                text = generate_python_source(ir)
            elif backend == "c":
                text = generate_c_source(ir)
            else:
                text = generate_c_shared_source(ir)
            self._texts[key] = text
        return text

    def python_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        return self._text("python", style)

    def c_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        return self._text("c", style)

    def c_shared_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        """The reentrant columnar C variant (mass-simulation ABI).

        Unlike :meth:`c_source` (static state, environment hooks), this
        variant keeps all state in an explicit struct and exposes a
        ``step_many`` entry point, so it can be built with ``cc -shared``
        and driven for whole populations by :mod:`repro.runtime.mass`.
        """
        return self._text("c_shared", style)

    def _executable(self, flat: bool) -> CompiledProcess:
        executable = self._executables.get(flat)
        if executable is None:
            style = GenerationStyle.FLAT if flat else self.style
            ir = self.step_ir(style)
            source = self.python_source(style)
            executable = CompiledProcess(
                name=ir.name,
                style=style,
                source=source,
                ir=ir,
                step_instance=_instantiate_step(source, ir.name),
                inputs=list(ir.inputs),
                outputs=list(ir.outputs),
                root_flags=list(ir.root_flags),
                types=dict(self.types),
            )
            self._executables[flat] = executable
        return executable

    @property
    def executable(self) -> CompiledProcess:
        """The compiled executable step of ``style``."""
        return self._executable(False)

    @property
    def executable_flat(self) -> Optional[CompiledProcess]:
        """The compiled executable step of the flat style (``build_flat`` only)."""
        return self._executable(True) if self.build_flat else None

    def materialize(self):
        """Byte-compile every executable this result hands out; returns self."""
        self._executable(False)
        if self.build_flat:
            self._executable(True)
        return self

    def fresh(self):
        """A copy with fresh executable instances and the same shared artifacts.

        The executables carry mutable delay-register state; the copy's are
        re-instantiated from the already-built step classes (no re-exec),
        so its simulation state is isolated from this result's.
        """
        self.materialize()
        return replace(
            self,
            _executables={
                flat: executable.fresh() for flat, executable in self._executables.items()
            },
        )


@dataclass
class CompilationResult(_Rendered):
    """All artifacts produced by compiling one SIGNAL process."""

    process: Process
    program: KernelProgram
    types: Dict[str, SignalType]
    clock_system: ClockSystem
    hierarchy: ClockHierarchy
    graph: ConditionalDependencyGraph
    schedule: Schedule

    # -- convenience accessors -----------------------------------------------
    @property
    def name(self) -> str:
        return self.program.name

    def interpreter(self) -> KernelInterpreter:
        """A fresh reference interpreter for the same program."""
        return KernelInterpreter(self.program, self.types)

    def _build_step_ir(self, style: GenerationStyle) -> StepIR:
        return build_step_ir(self.schedule, self.types, style)

    def root_flag_atoms(self) -> List[List[ClockAtom]]:
        """The clock atoms of the free class behind each of ``step_ir().root_flags``."""
        return [list(c.atoms) for c in self.hierarchy.free_classes() if not c.is_null]

    def tree_text(self) -> str:
        """The forest of clock trees plus the free clocks, as printed text.

        This is the default artifact of the CLI (``--emit tree``) and of the
        daemon protocol; keeping the rendering here guarantees local and
        remote compilations print identical trees.
        """
        free = [c.display_name() for c in self.hierarchy.free_classes()]
        forest = self.hierarchy.render_forest()
        return f"{forest}\n\nfree clocks: {', '.join(free) if free else '(none)'}"

    def statistics(self) -> Dict[str, int]:
        stats = dict(self.hierarchy.statistics())
        stats["signals"] = len(self.program.signals)
        stats["kernel_processes"] = len(self.program.processes)
        stats["dependency_edges"] = self.graph.edge_count()
        return stats


def analyze_source(
    source: str,
    manager: Optional[BDDManager] = None,
    check: bool = True,
):
    """Run the front half of the pipeline (through clock resolution).

    Returns ``(program, types, clock_system, hierarchy)``.  Useful when only
    the clock calculus is of interest (the Figure 13 benchmarks).
    """
    process = parse_process(source)
    return analyze_process(process, manager=manager, check=check)


def analyze_process(
    process: Process,
    manager: Optional[BDDManager] = None,
    check: bool = True,
    program: Optional[KernelProgram] = None,
):
    """Like :func:`analyze_source` for an already-parsed process.

    ``program`` optionally supplies the already-normalized kernel form (the
    compilation service normalizes first to compute the cache key).
    """
    if program is None:
        program = normalize(process)
    types = infer_types(program)
    clock_system = extract_clock_system(program, types)
    hierarchy = resolve(clock_system, manager=manager)
    if check:
        hierarchy.check()
    return program, types, clock_system, hierarchy


def compile_process(
    process: Process,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    manager: Optional[BDDManager] = None,
    program: Optional[KernelProgram] = None,
) -> CompilationResult:
    """Compile a parsed process through the complete pipeline."""
    return _schedule_process(process, style, build_flat, manager, program).materialize()


def _schedule_process(
    process: Process,
    style: GenerationStyle,
    build_flat: bool,
    manager: Optional[BDDManager] = None,
    program: Optional[KernelProgram] = None,
) -> CompilationResult:
    """:func:`compile_process` up to the schedule: the result renders its
    code from the step IR and byte-compiles no executable until one is read."""
    program, types, clock_system, hierarchy = analyze_process(
        process, manager=manager, program=program
    )
    graph = build_dependency_graph(program)
    graph.check_causality(hierarchy)
    schedule = build_schedule(program, hierarchy, graph)
    return CompilationResult(
        process=process,
        program=program,
        types=types,
        clock_system=clock_system,
        hierarchy=hierarchy,
        graph=graph,
        schedule=schedule,
        style=style,
        build_flat=build_flat,
    )


def compile_source(
    source: str,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    manager: Optional[BDDManager] = None,
) -> CompilationResult:
    """Compile SIGNAL source text through the complete pipeline.

    Without ``manager`` the compilation runs on a fresh
    :class:`~repro.bdd.BDDManager`, so its BDDs and statistics depend on
    this program alone.  :meth:`repro.service.CompilationService.compile`
    is the cached counterpart.
    """
    process = parse_process(source)
    return compile_process(process, style=style, build_flat=build_flat, manager=manager)


# ---------------------------------------------------------------------------
# Modular compilation: per-unit artifacts and the link stage
# ---------------------------------------------------------------------------

#: the ``kind`` a unit record names each clock atom of a free class by
_ATOM_KINDS = {"signal": SignalClock, "cond_true": CondTrue, "cond_false": CondFalse}
_KIND_OF_ATOM = {atom: kind for kind, atom in _ATOM_KINDS.items()}


def _serialize_atoms(atoms) -> list:
    """Clock atoms of a free class as JSON-safe ``[kind, signal]`` pairs."""
    return sorted([_KIND_OF_ATOM[type(atom)], atom.signal] for atom in atoms)


def _free_classes(unit: ProgramUnit, record: dict) -> List[Tuple[int, List[ClockAtom]]]:
    """``(id, atoms)`` of every free class of a unit record, in the order of
    its ``root_flags``, with the atoms renamed to the program's signals."""
    rename = unit.from_canonical
    return [
        (
            free["id"],
            [_ATOM_KINDS[kind](rename.get(signal, signal)) for kind, signal in free["atoms"]],
        )
        for free in record["free_classes"]
    ]


def compile_unit_record(unit: ProgramUnit, manager: Optional[BDDManager] = None) -> dict:
    """Compile one canonical unit through the full pipeline into a record.

    The unit is compiled under its *canonical* names (so the record is
    shareable across every program embedding the module) and the record
    captures everything the link stage needs: the step IR of both
    generation styles, the signal -> clock-class map, the free classes with
    their structural atoms (presence keys are recomputed per program at
    link time), the inferred types and the rendered tree, clock-system and
    kernel texts.  It holds no generated code: every backend emits from the
    linked step IR.  The record is JSON-safe and is what the
    in-memory unit LRU and the on-disk
    :class:`~repro.service.store.CompileStore` cache.
    """
    from .service.store import STORE_FORMAT, UNIT_STYLE  # deferred: service imports us

    canonical = unit.canonical
    types = infer_types(canonical)
    clock_system = extract_clock_system(canonical, types)
    hierarchy = resolve(clock_system, manager=manager)
    hierarchy.check()
    graph = build_dependency_graph(canonical)
    graph.check_causality(hierarchy)
    schedule = build_schedule(canonical, hierarchy, graph)

    ir_by_style = {
        style.value: ir_to_payload(build_step_ir(schedule, types, style))
        for style in (GenerationStyle.HIERARCHICAL, GenerationStyle.FLAT)
    }
    class_ids = sorted(c.id for c in hierarchy.classes if not c.is_null)
    all_ids = [c.id for c in hierarchy.classes]
    for payload in ir_by_style.values():
        all_ids.extend(payload["referenced_class_ids"])
    free = [c for c in hierarchy.free_classes() if not c.is_null]

    statistics = dict(hierarchy.statistics())
    statistics["signals"] = len(canonical.signals)
    statistics["kernel_processes"] = len(canonical.processes)
    statistics["dependency_edges"] = graph.edge_count()

    return {
        "format": STORE_FORMAT,
        "kind": "unit",
        "fingerprint": unit.fingerprint(),
        "style": UNIT_STYLE,
        "build_flat": False,
        "unit_version": UNIT_FINGERPRINT_VERSION,
        "name": canonical.name,
        "types": {name: type_.value for name, type_ in types.items()},
        "class_ids": class_ids,
        "max_class_id": max(all_ids, default=-1),
        "signal_class": {
            signal: clock_class.id for signal, clock_class in schedule.signal_class.items()
        },
        "free_classes": [
            {"id": c.id, "atoms": _serialize_atoms(c.atoms)} for c in free
        ],
        "ir": ir_by_style,
        "artifacts": {
            "forest": hierarchy.render_forest(),
            "free": [c.display_name() for c in free],
            "clocks": str(clock_system),
            "kernel": str(canonical),
        },
        "statistics": statistics,
    }


class _LinkedClockSystemText:
    """Stand-in for :class:`ClockSystem` on linked results (text only)."""

    __slots__ = ("_text",)

    def __init__(self, text: str):
        self._text = text

    def __str__(self) -> str:
        return self._text


#: statistics keys summed across units by :meth:`LinkedCompilationResult.statistics`
_ADDITIVE_STATS = (
    "classes",
    "variables",
    "bdd_nodes",
    "bdd_nodes_total",
    "trees",
    "forest_nodes",
    "free_clocks",
    "unresolved",
    "dependency_edges",
)


@dataclass
class LinkedCompilationResult(_Rendered):
    """The artifacts of a modular (unit-wise) compilation, after linking.

    Surface-compatible with :class:`CompilationResult` everywhere the
    service, store and daemon layers look (``program``, ``types``,
    ``executable``/``executable_flat``, the source/tree/statistics
    accessors), but built purely from cached unit records -- no BDD
    operations happen at link time.  The clock hierarchy and dependency
    graph of the whole program are never materialized; every artifact,
    statistic and rendered text is composed from ``unit_records``.  For a
    program of several units those bytes differ from a monolithic
    compile's (the two are trace-equivalent), so the service caches the two
    kinds of result under different keys.
    """

    program: KernelProgram
    types: Dict[str, SignalType]
    units: list
    unit_records: list
    process: Optional[Process] = None

    @property
    def name(self) -> str:
        return self.program.name

    def interpreter(self) -> KernelInterpreter:
        """A fresh reference interpreter for the same (whole) program."""
        return KernelInterpreter(self.program, self.types)

    # -- linked IR and generated sources -------------------------------------
    def _part(self, unit: ProgramUnit, record: dict, style: GenerationStyle) -> dict:
        rename = unit.from_canonical
        return {
            "ir": record["ir"][style.value],
            "rename": rename,
            "class_ids": record["class_ids"],
            "max_class_id": record["max_class_id"],
            "signal_class": record["signal_class"],
            "free_classes": _free_classes(unit, record),
            "types": {
                rename.get(name, name): SignalType(value)
                for name, value in record["types"].items()
            },
        }

    def _build_step_ir(self, style: GenerationStyle) -> StepIR:
        return link_step_ir(
            self.program.name,
            style,
            [
                self._part(unit, record, style)
                for unit, record in zip(self.units, self.unit_records)
            ],
            self.program.inputs,
            self.program.outputs,
        )

    def root_flag_atoms(self) -> List[List[ClockAtom]]:
        """The clock atoms of the free class behind each of ``step_ir().root_flags``."""
        return [
            atoms
            for unit, record in zip(self.units, self.unit_records)
            for _class_id, atoms in _free_classes(unit, record)
        ]

    # -- composed artifacts ---------------------------------------------------
    def tree_text(self) -> str:
        forests = []
        free_names = []
        for unit, record in zip(self.units, self.unit_records):
            rename = unit.from_canonical
            forest = rename_text(record["artifacts"]["forest"], rename)
            if forest.strip():
                forests.append(forest)
            free_names.extend(
                rename_text(name, rename) for name in record["artifacts"]["free"]
            )
        forest = "\n".join(forests)
        free = ", ".join(free_names) if free_names else "(none)"
        return f"{forest}\n\nfree clocks: {free}"

    @property
    def clock_system(self) -> _LinkedClockSystemText:
        sections = []
        for unit, record in zip(self.units, self.unit_records):
            sections.append(
                rename_text(record["artifacts"]["clocks"], unit.from_canonical)
            )
        return _LinkedClockSystemText("\n\n".join(sections))

    def statistics(self) -> Dict[str, int]:
        stats: Dict[str, int] = {key: 0 for key in _ADDITIVE_STATS}
        forest_height = 0
        for record in self.unit_records:
            unit_stats = record["statistics"]
            for key in _ADDITIVE_STATS:
                stats[key] += unit_stats.get(key, 0)
            forest_height = max(forest_height, unit_stats.get("forest_height", 0))
        stats["forest_height"] = forest_height
        stats["signals"] = len(self.program.signals)
        stats["kernel_processes"] = len(self.program.processes)
        stats["units"] = len(self.units)
        return stats


def link_units(
    program: KernelProgram,
    units: list,
    records: list,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    process: Optional[Process] = None,
) -> LinkedCompilationResult:
    """Compose cached unit records into an executable compilation result.

    ``units`` and ``records`` are parallel lists (one record per unit, in
    program order).  Linking renames every unit artifact from canonical to
    actual names, shifts clock-class ids into disjoint ranges, recomputes
    the root presence keys and defaults for the merged clock forest, and
    instantiates the merged step exactly like a monolithic compile --
    trace-equivalence of the two paths is what the differential fuzz suite
    proves.
    """
    return _link(program, units, records, style, build_flat, process).materialize()


def _link(
    program: KernelProgram,
    units: list,
    records: list,
    style: GenerationStyle,
    build_flat: bool,
    process: Optional[Process] = None,
) -> LinkedCompilationResult:
    """:func:`link_units` without byte-compiling: the linked step IR and
    every text are built from the records when first read."""
    if len(units) != len(records):
        raise ValueError(
            f"link stage got {len(units)} units but {len(records)} records"
        )
    types: Dict[str, SignalType] = {}
    for unit, record in zip(units, records):
        rename = unit.from_canonical
        for name, value in record["types"].items():
            types[rename.get(name, name)] = SignalType(value)

    return LinkedCompilationResult(
        program=program,
        types=types,
        units=list(units),
        unit_records=list(records),
        process=process,
        style=style,
        build_flat=build_flat,
    )


def compile_modular_source(
    source: str,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    manager: Optional[BDDManager] = None,
) -> LinkedCompilationResult:
    """Compile SIGNAL source unit-by-unit and link (no caching involved).

    The uncached counterpart of
    :meth:`repro.service.CompilationService.compile_modular`, useful for
    tests and one-off comparisons: split, compile every unit, link.
    """
    process = parse_process(source)
    program = normalize(process)
    units = split_units(program)
    records = [compile_unit_record(unit, manager=manager) for unit in units]
    return link_units(
        program, units, records, style=style, build_flat=build_flat, process=process
    )

