"""In-memory spans around calls into the compiler's layers.

A traced run replaces public functions of each layer -- module attributes
and class methods of ``repro`` -- with wrappers that record a span (name,
start, end, parent span, request group) and restores them afterwards.
Nothing in ``src/`` is modified.  Spans nest through a stack, which is
sound because every traced call runs on the benchmark's own thread; the
daemon child process is never traced.

Span times are CPU times of the benchmark process and the children it
reaps (``cc``), so time a shared host gives other tenants is not charged
to a layer.  A layer's *self time* is its span duration minus the time of
its child spans: ``compile_step`` wraps IR building, Python emission and
``exec``, so each of those is charged once, to its own layer.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .common import own_cpu


class Span:
    __slots__ = ("id", "parent", "name", "group", "start", "end", "child_time", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str, group: Optional[str]):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.group = group
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Collects spans; :meth:`wrap` installs probes, :meth:`restore` removes them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: list = []
        #: request or program the next spans belong to
        self.group: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, self.group)
        self.spans.append(span)
        self._stack.append(span)
        span.start = own_cpu()
        try:
            yield span
        finally:
            span.end = own_cpu()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.end - span.start

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        tag: Optional[Callable[[Span, object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a version that records span ``name``.

        ``tag(span, returned_value)`` may annotate the span from the result.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                value = original(*args, **kwargs)
                if tag is not None:
                    tag(span, value)
                return value

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- reading the spans ---------------------------------------------------
    def select(self, name: str, group: Optional[str] = None, **attrs) -> List[Span]:
        return [
            span
            for span in self.spans
            if span.name == name
            and (group is None or span.group == group)
            and all(span.attrs.get(key) == value for key, value in attrs.items())
        ]

    def self_ms(self, name: str, group: Optional[str] = None) -> float:
        """Summed self time of every span called ``name``, in milliseconds."""
        return 1000.0 * sum(span.self_time for span in self.select(name, group))

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                entry = {
                    "id": span.id,
                    "parent": span.parent,
                    "name": span.name,
                    "group": span.group,
                    "start": span.start,
                    "end": span.end,
                    "self": span.self_time,
                }
                if span.attrs:
                    entry["attrs"] = span.attrs
                handle.write(json.dumps(entry) + "\n")


#: compile-stage spans reported as ``<name>_ms`` (summed self time)
COMPILE_STAGES = (
    "lang.parse",
    "lang.normalize",
    "lang.types",
    "clocks.equations",
    "clocks.resolve",
    "clocks.check",
    "graph.dependency",
    "graph.causality",
    "graph.schedule",
    "codegen.ir",
    "codegen.python_emit",
    "codegen.c_emit",
    "codegen.c_shared_emit",
    "codegen.exec",
)


def install_compiler_probes(tracer: Tracer) -> None:
    """Wrap every pipeline stage where the compiler, service and runtime call it.

    Functions imported by name (``from .clocks.resolution import resolve``)
    are looked up in the importing module's namespace, so each is wrapped
    in every module that calls it.
    """
    from repro import compiler
    from repro.clocks.resolution import ClockHierarchy
    from repro.codegen import python_backend
    from repro.graph.dependency import ConditionalDependencyGraph
    from repro.runtime import mass
    from repro.service import daemon, service

    for module in (compiler, daemon, service):
        tracer.wrap(module, "parse_process", "lang.parse")
        tracer.wrap(module, "normalize", "lang.normalize")
    tracer.wrap(compiler, "infer_types", "lang.types")
    tracer.wrap(compiler, "extract_clock_system", "clocks.equations")
    tracer.wrap(compiler, "resolve", "clocks.resolve")
    tracer.wrap(ClockHierarchy, "check", "clocks.check")
    tracer.wrap(compiler, "build_dependency_graph", "graph.dependency")
    tracer.wrap(ConditionalDependencyGraph, "check_causality", "graph.causality")
    tracer.wrap(compiler, "build_schedule", "graph.schedule")
    for module in (compiler, python_backend):
        tracer.wrap(module, "build_step_ir", "codegen.ir")
        tracer.wrap(module, "generate_python_source", "codegen.python_emit")
        tracer.wrap(module, "_instantiate_step", "codegen.exec")
    tracer.wrap(compiler, "generate_c_source", "codegen.c_emit")
    for module in (compiler, mass):
        tracer.wrap(module, "generate_c_shared_source", "codegen.c_shared_emit")
    tracer.wrap(service, "compile_unit_record", "service.unit_compile")
    tracer.wrap(service, "link_units", "service.link")
    tracer.wrap(mass, "compile_shared_library", "runtime.cc_build")


def paired_cpu(action: Callable[[], object], tracer: Tracer,
               discard: Callable[[object], None] = lambda value: None) -> Tuple[float, float, object]:
    """CPU seconds of ``action`` untraced and traced, and its traced value.

    ``action`` runs once untimed, so that neither side pays for a first
    run, then untraced, traced, traced and untraced, so that a trend in
    core speed or allocator state cancels from the difference; each side
    reports the mean of its two runs.  Only the first traced run records
    into ``tracer`` and keeps its value; ``discard`` releases the others.
    """
    discard(action())
    seconds = {False: 0.0, True: 0.0}
    kept = None
    for target in (None, tracer, Tracer(), None):
        if target is not None:
            install_compiler_probes(target)
        try:
            gc.collect()
            started = own_cpu()
            value = action()
            seconds[target is not None] += own_cpu() - started
        finally:
            if target is not None:
                target.restore()
        if target is tracer:
            kept = value
        else:
            discard(value)
    return seconds[False] / 2, seconds[True] / 2, kept


def probe_seconds(tracer: Tracer) -> float:
    """CPU seconds the probes added to a traced run: spans x one probe's cost.

    One probe's cost is measured here, as the extra CPU time of a wrapped
    no-op over the bare one.  A traced-minus-untraced time is a difference
    of two noisy totals; this estimate is what tracing costs by itself.
    """

    class Target:
        @staticmethod
        def noop():
            return None

    calls = 20000

    def cpu_of(function) -> float:
        started = time.process_time()
        for _ in range(calls):
            function()
        return time.process_time() - started

    bare = cpu_of(Target.noop)
    probe = Tracer()
    probe.wrap(Target, "noop", "probe")
    with probe:
        wrapped = cpu_of(Target.noop)
    return len(tracer.spans) * max(wrapped - bare, 0.0) / calls


def stage_metrics(tracer: Tracer) -> Dict[str, float]:
    """``<stage>_ms`` for every compile stage (0 when the stage never ran)."""
    return {f"{stage}_ms": tracer.self_ms(stage) for stage in COMPILE_STAGES}
