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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # imported lazily to avoid a circular module import
    from .service import CompilationService

from .bdd import BDDManager
from .clocks.algebra import CondFalse, CondTrue, SignalClock
from .clocks.equations import ClockSystem, extract_clock_system
from .clocks.resolution import ClockHierarchy, resolve
from .codegen.c_backend import (
    emit_shared_statement_lines,
    emit_statement_lines as emit_c_statement_lines,
    generate_c_shared_source,
    generate_c_source,
    scan_statement_arithmetic,
    scan_statement_io,
)
from .codegen.ir import GenerationStyle, StepIR, build_step_ir
from .codegen.linker import (
    ir_to_payload,
    link_c_shared_source,
    link_c_source,
    link_interface,
    link_python_source,
    link_step_ir,
    root_placeholder_line,
)
from .codegen.python_backend import (
    CompiledProcess,
    _instantiate_step,
    compile_step,
    emit_statement_lines as emit_python_statement_lines,
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


@dataclass
class CompilationResult:
    """All artifacts produced by compiling one SIGNAL process."""

    process: Process
    program: KernelProgram
    types: Dict[str, SignalType]
    clock_system: ClockSystem
    hierarchy: ClockHierarchy
    graph: ConditionalDependencyGraph
    schedule: Schedule
    #: compiled executable step, hierarchical (nested) style
    executable: CompiledProcess
    #: compiled executable step, flat (single-loop) style
    executable_flat: Optional[CompiledProcess] = None

    # -- convenience accessors -----------------------------------------------
    @property
    def name(self) -> str:
        return self.program.name

    def interpreter(self) -> KernelInterpreter:
        """A fresh reference interpreter for the same program."""
        return KernelInterpreter(self.program, self.types)

    def _executable_of(self, style: GenerationStyle) -> Optional[CompiledProcess]:
        """The executable of ``style`` this result holds, if any."""
        if self.executable.style is style:
            return self.executable
        return self.executable_flat if style is GenerationStyle.FLAT else None

    def python_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        executable = self._executable_of(style)
        if executable is not None and executable.observable:
            return executable.source
        return generate_python_source(self.step_ir(style))

    def c_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        return generate_c_source(self.step_ir(style))

    def c_shared_source(
        self, style: GenerationStyle = GenerationStyle.HIERARCHICAL
    ) -> str:
        """The reentrant columnar C variant (mass-simulation ABI).

        Unlike :meth:`c_source` (static state, environment hooks), this
        variant keeps all state in an explicit struct and exposes a
        ``step_many`` entry point, so it can be built with ``cc -shared``
        and driven for whole populations by :mod:`repro.runtime.mass`.
        """
        return generate_c_shared_source(self.step_ir(style))

    def step_ir(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> StepIR:
        """The IR of this result's executable of ``style`` (emitters never
        mutate an IR, so every artifact renders from it), else a fresh one."""
        executable = self._executable_of(style)
        if executable is None:
            return build_step_ir(self.schedule, self.types, style)
        return executable.ir

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
    observable: bool = True,
    manager: Optional[BDDManager] = None,
    program: Optional[KernelProgram] = None,
    service: Optional["CompilationService"] = None,
) -> CompilationResult:
    """Compile a parsed process through the complete pipeline.

    Passing a :class:`repro.service.CompilationService` as ``service``
    routes the compilation through its compile cache; this is mutually
    exclusive with ``manager``/``program`` (a service miss compiles on a
    fresh manager of its own).
    """
    if service is not None:
        if manager is not None or program is not None:
            raise ValueError(
                "manager=/program= cannot be combined with service=: the "
                "compilation service supplies its own managers"
            )
        return service.compile_process(
            process, style=style, build_flat=build_flat, observable=observable
        )
    program, types, clock_system, hierarchy = analyze_process(
        process, manager=manager, program=program
    )

    graph = build_dependency_graph(program)
    graph.check_causality(hierarchy)
    schedule = build_schedule(program, hierarchy, graph)

    executable = compile_step(schedule, types, style=style, observable=observable)
    executable_flat = None
    if build_flat:
        executable_flat = compile_step(
            schedule, types, style=GenerationStyle.FLAT, observable=observable
        )

    return CompilationResult(
        process=process,
        program=program,
        types=types,
        clock_system=clock_system,
        hierarchy=hierarchy,
        graph=graph,
        schedule=schedule,
        executable=executable,
        executable_flat=executable_flat,
    )


def compile_source(
    source: str,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    observable: bool = True,
    manager: Optional[BDDManager] = None,
    service: Optional["CompilationService"] = None,
) -> CompilationResult:
    """Compile SIGNAL source text through the complete pipeline.

    Without ``manager`` the compilation runs on a fresh
    :class:`~repro.bdd.BDDManager`, so its BDDs and statistics depend on
    this program alone.  Passing a :class:`repro.service.CompilationService`
    as ``service`` routes the compilation through its compile cache
    (repeated or kernel-equivalent sources then return cached results, and
    a miss compiles on a fresh manager exactly like this function); this is
    mutually exclusive with ``manager``.
    """
    if service is not None:
        if manager is not None:
            raise ValueError(
                "manager= cannot be combined with service=: the compilation "
                "service supplies its own managers"
            )
        return service.compile(
            source, style=style, build_flat=build_flat, observable=observable
        )
    process = parse_process(source)
    return compile_process(
        process,
        style=style,
        build_flat=build_flat,
        observable=observable,
        manager=manager,
    )


# ---------------------------------------------------------------------------
# Modular compilation: per-unit artifacts and the link stage
# ---------------------------------------------------------------------------

def _serialize_atoms(atoms) -> list:
    """Clock atoms of a free class as JSON-safe ``[kind, signal]`` pairs."""
    serialized = []
    for atom in atoms:
        if isinstance(atom, SignalClock):
            serialized.append(["signal", atom.signal])
        elif isinstance(atom, CondTrue):
            serialized.append(["cond_true", atom.signal])
        elif isinstance(atom, CondFalse):
            serialized.append(["cond_false", atom.signal])
        else:  # pragma: no cover - free classes only hold the three atom kinds
            raise TypeError(f"unsupported clock atom {atom!r} on a free class")
    return sorted(serialized)


def compile_unit_record(unit: ProgramUnit, manager: Optional[BDDManager] = None) -> dict:
    """Compile one canonical unit through the full pipeline into a record.

    The unit is compiled under its *canonical* names (so the record is
    shareable across every program embedding the module) and the record
    captures everything the link stage needs: the step IR of both
    generation styles, the signal -> clock-class map, the free classes with
    their structural atoms (presence keys are recomputed per program at
    link time), the inferred types and the rendered per-unit artifacts.
    The record is JSON-safe and is what the in-memory unit LRU and the
    on-disk :class:`~repro.service.store.CompileStore` cache.
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

    irs = {
        style: build_step_ir(schedule, types, style)
        for style in (GenerationStyle.HIERARCHICAL, GenerationStyle.FLAT)
    }
    ir_by_style = {style.value: ir_to_payload(ir) for style, ir in irs.items()}
    # Per-unit generated statement bodies, emitted once here and reused by
    # every link of this unit: the linker only offsets flag ids, renames
    # canonical signals and fills the @@ROOT@@ placeholders (presence keys,
    # defaults and columnar root positions exist only for the linked
    # program), then frames the concatenated bodies -- whole-program code
    # is never re-emitted statement by statement on the modular path.
    emit_by_style = {}
    for style, ir in irs.items():
        helpers, nonfinite = scan_statement_arithmetic(ir.statements)
        reads, writes, uses_clock_input = scan_statement_io(ir.statements)
        emit_by_style[style.value] = {
            "python": emit_python_statement_lines(
                ir.statements, indent=2, observable=True,
                root_line=root_placeholder_line,
            ),
            "c": emit_c_statement_lines(
                ir.statements, indent=1, root_line=root_placeholder_line
            ),
            "c_shared": emit_shared_statement_lines(
                ir.statements, {}, indent=2, root_line=root_placeholder_line
            ),
            "helpers": sorted(helpers),
            "nonfinite": nonfinite,
            "reads": reads,
            "writes": writes,
            "uses_clock_input": uses_clock_input,
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
        "observable": True,
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
        "emit": emit_by_style,
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
class LinkedCompilationResult:
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
    observable: bool = True
    process: Optional[Process] = None
    executable: Optional[CompiledProcess] = None
    executable_flat: Optional[CompiledProcess] = None
    _linked_irs: Dict[GenerationStyle, StepIR] = field(
        default_factory=dict, repr=False, compare=False
    )
    _linked_sources: Dict[tuple, str] = field(
        default_factory=dict, repr=False, compare=False
    )

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
            "free_classes": record["free_classes"],
            "emit": (record.get("emit") or {}).get(style.value),
            "types": {
                rename.get(name, name): SignalType(value)
                for name, value in record["types"].items()
            },
        }

    def _parts(self, style: GenerationStyle) -> list:
        return [
            self._part(unit, record, style)
            for unit, record in zip(self.units, self.unit_records)
        ]

    def step_ir(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> StepIR:
        ir = self._linked_irs.get(style)
        if ir is None:
            ir = link_step_ir(
                self.program.name,
                style,
                self._parts(style),
                self.program.inputs,
                self.program.outputs,
            )
            self._linked_irs[style] = ir
        return ir

    def _linked_source(self, backend: str, style: GenerationStyle) -> str:
        """Generated source via the incremental path, with full-IR fallback.

        Composes the cached per-unit bodies when every unit record carries
        an emit cache; unit records written before per-unit emission fall
        back to emitting from the fully linked IR.  Both paths produce
        byte-identical text (the fuzz suite asserts it), so the composed
        source is memoized under the same key either way.
        """
        cached = self._linked_sources.get((backend, style.value))
        if cached is not None:
            return cached
        parts = self._parts(style)
        arguments = (self.program.name, style, parts, self.program.inputs, self.program.outputs)
        if backend == "python":
            source = link_python_source(*arguments)
            if source is None:
                source = generate_python_source(self.step_ir(style))
        elif backend == "c":
            source = link_c_source(*arguments)
            if source is None:
                source = generate_c_source(self.step_ir(style))
        else:
            source = link_c_shared_source(*arguments)
            if source is None:
                source = generate_c_shared_source(self.step_ir(style))
        self._linked_sources[(backend, style.value)] = source
        return source

    def python_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        return self._linked_source("python", style)

    def c_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        return self._linked_source("c", style)

    def c_shared_source(self, style: GenerationStyle = GenerationStyle.HIERARCHICAL) -> str:
        return self._linked_source("c_shared", style)

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


def _linked_executable(
    result: LinkedCompilationResult, style: GenerationStyle, observable: bool
) -> CompiledProcess:
    name = result.program.name
    if observable:
        # Incremental path: concatenate the cached per-unit python bodies
        # instead of linking a full StepIR first.  The interface (inputs,
        # outputs, root flags) is recomputed from the unit payloads alone.
        parts = result._parts(style)
        source = link_python_source(
            name, style, parts, result.program.inputs, result.program.outputs
        )
        if source is not None:
            result._linked_sources.setdefault(("python", style.value), source)
            interface = link_interface(
                parts, result.program.inputs, result.program.outputs
            )
            instance = _instantiate_step(source, name, observable)
            return CompiledProcess(
                name=name,
                style=style,
                source=source,
                ir=None,
                step_instance=instance,
                inputs=list(interface["inputs"]),
                outputs=list(interface["outputs"]),
                root_flags=list(interface["root_flags"]),
                types=dict(result.types),
                observable=observable,
            )
    ir = result.step_ir(style)
    source = generate_python_source(ir, observable=observable)
    instance = _instantiate_step(source, ir.name, observable)
    return CompiledProcess(
        name=ir.name,
        style=style,
        source=source,
        ir=ir,
        step_instance=instance,
        inputs=list(ir.inputs),
        outputs=list(ir.outputs),
        root_flags=list(ir.root_flags),
        types=dict(result.types),
        observable=observable,
    )


def link_units(
    program: KernelProgram,
    units: list,
    records: list,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    observable: bool = True,
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
    if len(units) != len(records):
        raise ValueError(
            f"link stage got {len(units)} units but {len(records)} records"
        )
    types: Dict[str, SignalType] = {}
    for unit, record in zip(units, records):
        rename = unit.from_canonical
        for name, value in record["types"].items():
            types[rename.get(name, name)] = SignalType(value)

    result = LinkedCompilationResult(
        program=program,
        types=types,
        units=list(units),
        unit_records=list(records),
        observable=observable,
        process=process,
    )
    result.executable = _linked_executable(result, style, observable)
    if build_flat:
        result.executable_flat = _linked_executable(
            result, GenerationStyle.FLAT, observable
        )
    return result


def compile_modular_source(
    source: str,
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    build_flat: bool = False,
    observable: bool = True,
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
        program,
        units,
        records,
        style=style,
        build_flat=build_flat,
        observable=observable,
        process=process,
    )

