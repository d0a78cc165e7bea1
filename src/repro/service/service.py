"""The compilation service: compile cache, unit cache and batching.

A :class:`CompilationService` is the long-lived, repeated-traffic front end
of the compiler:

* it memoizes whole results in one bounded LRU keyed by the **normalized
  kernel program fingerprint** (plus the code-generation options and the
  ``modular`` flag), with a source-text fast path for exact repeats --
  kernel-equivalent sources (e.g. reformatted text) share one entry;
* :meth:`CompilationService.compile` and
  :meth:`CompilationService.compile_modular` are one path through that LRU
  and differ only in how a miss compiles.  A monolithic miss compiles on
  its own fresh :class:`~repro.bdd.BDDManager`, exactly like
  :func:`~repro.compiler.compile_source`, so a result's BDDs, statistics
  and generated code are a function of its program alone; the manager's
  computed caches are dropped before the result is cached, and its unique
  table lives exactly as long as the cached result.  A modular miss
  compiles unit by unit against a unit-record LRU (and the store's unit
  records) and links.  These live-result paths never read or write a
  whole-program store record;
* :meth:`CompilationService.compile_record`, the one record entry point
  (the daemon's miss path), caches no whole program, and
  :meth:`CompilationService.complete_record` renders a lean record's other
  texts from its source;
* :meth:`CompilationService.compile_batch` compiles many sources serially,
  and :meth:`CompilationService.compile_batch_records` fans them out to
  worker **processes** that return JSON artifact records and sidestep the
  GIL.

Cache hits return a copy of the cached result carrying fresh executable
instances (rebuilt from the cached generated source), so a hit
behaves exactly like a fresh compilation and callers' simulation states are
fully isolated; the analysis artifacts (hierarchy, schedule, sources) are
shared.

Concurrency
-----------

Compilations share no BDD state, so the compile path takes no lock:
concurrent callers (the daemon's request threads) compile distinct misses
side by side, bounded only by the GIL (by cores with ``jobs > 1``).  Two
threads missing on the same key both compile and the cache keeps the last
result, which is harmless because compilation is deterministic.  The
service lock guards counters only.

Process workers
---------------

``compile_batch_records(sources, jobs=N)`` with ``N > 1`` fans the batch out
to a persistent :class:`~concurrent.futures.ProcessPoolExecutor`.  A live
:class:`~repro.compiler.CompilationResult` cannot cross a process boundary
(its hierarchy, graph and schedule hold BDD handles bound to the worker's
manager), so process workers return the JSON-safe **artifact records** of
:func:`repro.service.store.record_from_result` -- the generated Python, the
texts the request asked for, statistics, and enough metadata to rebuild a
runnable step via :func:`repro.service.store.executable_from_record`.
``compile_record(..., jobs=N)`` runs one compile the same way, so the
daemon's request threads park on worker processes instead of sharing the
GIL.

Workers compile, parents cache: a worker is a pure function of its payload
(a source or a pickled unit, plus the unit records the parent holds for a
modular compile).  It keeps no cache and never opens a store; the process
that owns a key does every lookup, store probe and spill, and counts the
work its workers did.  The pool is created lazily, reused, grown when a
larger ``jobs`` arrives, and torn down by :meth:`close` (closing is safe --
the next process-mode call simply builds a fresh pool).
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..bdd import BDDManager
from ..codegen.ir import GenerationStyle
from ..compiler import (
    CompilationResult,
    LinkedCompilationResult,
    _link,
    _schedule_process,
    compile_unit_record,
    link_units,  # noqa: F401 - perfbench's tracer wraps it by this name
)
from ..lang.ast import Process
from ..lang.kernel import KernelProgram, normalize
from ..lang.parser import parse_process
from ..lang.units import ProgramUnit, split_units
from .cache import LRUCache, source_digest
from .store import (
    CompileStore,
    missing_kinds,
    record_from_result,
    store_key,
    unit_store_key,
    with_texts,
)

__all__ = ["CompilationService"]

#: what the result LRU holds: a monolithic or a linked compilation result
_Result = Union[CompilationResult, LinkedCompilationResult]


@contextlib.contextmanager
def _blame(index: int):
    """Tag an exception raised inside with ``batch_index``, its source's position."""
    try:
        yield
    except BaseException as error:
        error.batch_index = index
        raise


def _spill(store: Optional[CompileStore], key: tuple, record: Dict[str, object]) -> None:
    """Write ``record`` to ``store`` best-effort: a full disk must not fail a compile."""
    if store is not None:
        with contextlib.suppress(OSError):
            store.put(key, record)


# -- the compile body, inline or in a worker process -------------------------
def _compile_result(
    process: Process,
    program: KernelProgram,
    style: GenerationStyle,
    build_flat: bool,
    known: Optional[Dict[str, Dict[str, object]]],
    units: Optional[List[ProgramUnit]] = None,
) -> Tuple[CompilationResult, Dict[str, Dict[str, object]]]:
    """Compile one parsed program; also return the records of the units
    compiled on the way.  ``known=None`` compiles the whole program on a
    fresh manager.  Otherwise ``known`` maps unit fingerprints to the records
    the caller holds, the other units (of ``units``, split here when None)
    are compiled, and everything is linked.  No executable is byte-compiled:
    a record renders from the step IR, and a live-result caller calls
    ``materialize()``."""
    compiled: Dict[str, Dict[str, object]] = {}
    if known is None:
        result = CompilationService._compile_program(process, program, style, build_flat)
        return result, compiled
    if units is None:
        units = split_units(program)
    for unit in units:
        if unit.fingerprint() not in known and unit.fingerprint() not in compiled:
            compiled[unit.fingerprint()] = compile_unit_record(unit)
    linked = _link(
        program,
        units,
        [known.get(unit.fingerprint()) or compiled[unit.fingerprint()] for unit in units],
        style,
        build_flat,
        process,
    )
    return linked, compiled


def _process_worker_record(
    source: str,
    style: GenerationStyle,
    build_flat: bool,
    known: Optional[Dict[str, Dict[str, object]]],
    kinds: Iterable[str] = (),
) -> Tuple[Dict[str, object], Dict[str, Dict[str, object]]]:
    """:func:`_compile_result` of one source in a worker process, rendered
    with the on-demand texts of ``kinds``.

    Workers are pure functions of their payload: they hold no cache and
    never touch a store.  Toolchain errors propagate to the parent as the
    original ``SignalError`` subclass.
    """
    process = parse_process(source)
    result, compiled = _compile_result(process, normalize(process), style, build_flat, known)
    record = record_from_result(
        result, style, build_flat=build_flat, source=source, kinds=kinds
    )
    return record, compiled


def _process_worker_unit_record(unit: ProgramUnit) -> Dict[str, object]:
    """Compile one unit of a modular batch in a worker process."""
    return compile_unit_record(unit)


class CompilationService:
    """A stateful compiler front end that caches results and units.

    Parameters
    ----------
    max_entries:
        Capacity of the LRU compile cache (whole results, monolithic and
        linked alike).
    store:
        Optionally, a disk :class:`~repro.service.store.CompileStore` (or
        its directory path).  Modular compiles read and write its unit
        records.  :meth:`compile_batch_records` with ``jobs > 1`` also
        probes it for each monolithic program before compiling and spills
        every program record it renders, so cross-process batches
        warm-start from (and warm) every daemon/node sharing the directory.
        :meth:`compile`, :meth:`compile_modular` and :meth:`compile_record`
        never read a whole-program record from it: the daemon layers the
        store above the service.
    """

    def __init__(
        self,
        max_entries: int = 128,
        store: Optional[Union[CompileStore, str, os.PathLike]] = None,
    ):
        if store is not None and not isinstance(store, CompileStore):
            store = CompileStore(store)
        #: disk store under the unit records and process batches (may be None)
        self.store: Optional[CompileStore] = store
        #: (kernel fingerprint, style, build_flat, modular) -> result
        self._results: LRUCache[_Result] = LRUCache(max_entries)
        # Per-unit artifact records (modular compilation), keyed by unit
        # fingerprint.  Units are small next to whole results, and one
        # program holds several, so the capacity is a multiple of the
        # result cache's.
        self._unit_records: LRUCache[Dict[str, object]] = LRUCache(max(max_entries * 4, 16))
        # Source-text digest -> kernel fingerprint (exact-repeat fast path).
        self._source_fingerprints: LRUCache[str] = LRUCache(max(max_entries * 4, 16))
        self._lock = threading.Lock()
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_jobs = 0
        self._process_borrows = 0
        self._requests = 0
        self._process_records = 0
        # Modular (unit-granularity) counters.
        self._modular_requests = 0
        self._unit_hits = 0
        self._unit_misses = 0
        self._unit_store_hits = 0
        self._links = 0
        self._link_hits = 0
        self._link_misses = 0

    # -- cache plumbing -----------------------------------------------------
    @staticmethod
    def _compile_program(
        process: Process,
        program: KernelProgram,
        style: GenerationStyle,
        build_flat: bool,
    ) -> CompilationResult:
        """Run one cache miss through the pipeline on a fresh manager, up to
        the schedule (no executable is byte-compiled).

        The computed caches are dropped before the result is cached or
        rendered: nothing reuses them, a record's statistics are taken
        after the drop, and the result keeps only its unique table.
        """
        manager = BDDManager()
        result = _schedule_process(
            process, style, build_flat, manager=manager, program=program
        )
        manager.clear_caches()
        return result

    def _compile_cached(
        self,
        source: Optional[str],
        process: Optional[Process],
        style: GenerationStyle,
        build_flat: bool,
        program: Optional[KernelProgram] = None,
        modular: bool = False,
    ) -> _Result:
        """The one live-result path: digest memo, result LRU, fresh-copy hit.

        ``modular`` is part of the key -- a monolithic entry never answers a
        modular request, nor the reverse -- and changes only how a miss
        compiles: on a fresh manager, or unit by unit against the unit LRU
        and the store's unit records, then linked.
        """
        with self._lock:
            self._requests += 1
            if modular:
                self._modular_requests += 1

        digest = None
        counted_miss = False
        if source is not None:
            digest = source_digest(source)
            fingerprint = self._source_fingerprints.get(digest)
            if fingerprint is not None:
                cached = self._results.get((fingerprint, style, build_flat, modular))
                if cached is not None:
                    return self._fresh_hit(cached)
                counted_miss = True
                # Known program, options not cached yet: reparse below (the
                # kernel form is needed by the pipeline anyway).

        if process is None:
            assert source is not None
            process = parse_process(source)
        if program is None:
            program = normalize(process)
        fingerprint = program.fingerprint()
        if digest is not None:
            self._source_fingerprints.put(digest, fingerprint)

        key = (fingerprint, style, build_flat, modular)
        # The fast path above already charged this request with a miss; avoid
        # double counting while still honouring a concurrent caller that may
        # have filled the entry in the meantime.
        cached = self._results.peek(key) if counted_miss else self._results.get(key)
        if cached is not None:
            return self._fresh_hit(cached)
        known = units = None
        if modular:
            with self._lock:
                self._link_misses += 1
            units = split_units(program)
            known = self._known_units(units, self.store, compile_missing=True)
        result, _ = _compile_result(process, program, style, build_flat, known, units)
        result.materialize()
        if modular:
            with self._lock:
                self._links += 1
        self._results.put(key, result)
        return result

    def _fresh_hit(self, result: _Result) -> _Result:
        """Restore fresh-compile semantics on a cache hit.

        The cached executables carry mutable delay-register state, so the
        hit returns a copy of the result with brand-new step instances
        (re-instantiated from the cached step classes -- a tiny cost next to
        the pipeline): every caller gets isolated simulation state, and a hit
        can never perturb an earlier caller's in-progress run.  The analysis
        artifacts (hierarchy, schedule, IR, sources) are shared.
        """
        if isinstance(result, LinkedCompilationResult):
            with self._lock:
                self._link_hits += 1
        return result.fresh()

    # -- public API ---------------------------------------------------------
    def compile(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
    ) -> CompilationResult:
        """Compile SIGNAL source text, reusing cached results.

        A miss compiles on a fresh manager, so the result (its BDDs and its
        statistics included) is exactly what
        :func:`~repro.compiler.compile_source` returns for the same source.
        """
        return self._compile_cached(source, None, style, build_flat)

    def compile_process(
        self,
        process: Process,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        program: Optional[KernelProgram] = None,
    ) -> CompilationResult:
        """Like :meth:`compile` for an already-parsed process.

        ``program`` optionally supplies the already-normalized kernel form
        of ``process`` (callers like the daemon normalize first to compute
        the cache key; passing it through avoids normalizing twice).
        """
        return self._compile_cached(None, process, style, build_flat, program=program)

    def compile_record(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        process: Optional[Process] = None,
        program: Optional[KernelProgram] = None,
        modular: bool = False,
        store: Optional[CompileStore] = None,
        jobs: int = 1,
        kinds: Iterable[str] = (),
    ) -> Dict[str, object]:
        """Compile one program and render its lean JSON-safe artifact record.

        The service's only record entry point.  It caches no whole program
        (its caller, the daemon, owns that key): compile ``source`` on a
        fresh manager, from ``process``/``program`` when already parsed,
        render, drop the result.  The record carries the Python and, of the
        on-demand texts, exactly ``kinds`` (see
        :func:`~repro.service.store.record_from_result`); nothing builds an
        executable, so the Python it carries is never byte-compiled here.
        ``modular`` compiles unit by unit against the unit LRU and
        ``store``'s unit records (None: the service's own), then links.
        ``jobs > 1`` runs the compile and the rendering on the
        worker-process pool: a modular compile ships the unit records this
        process holds, and the units the worker compiled are kept here.
        """
        with self._lock:
            self._requests += 1
            if modular:
                self._modular_requests += 1
                self._link_misses += 1
        if modular or jobs <= 1:
            if process is None:
                process = parse_process(source)
            if program is None:
                program = normalize(process)
        known = units = None
        if modular:
            if store is None:
                store = self.store
            units = split_units(program)
            # Inline, every unit is resolved here; a worker compiles the rest.
            known = self._known_units(units, store, compile_missing=jobs <= 1)
        if jobs <= 1:
            result, compiled = _compile_result(
                process, program, style, build_flat, known, units
            )
            record = record_from_result(
                result, style, build_flat=build_flat, source=source, kinds=kinds
            )
        else:
            with self._borrow_process_pool(jobs) as pool:
                record, compiled = pool.submit(
                    _process_worker_record, source, style, build_flat, known, kinds
                ).result()
            with self._lock:
                self._process_records += 1
        if modular:
            self._keep_units(compiled, store)
            with self._lock:
                self._links += 1
        return record

    def complete_record(
        self,
        record: Dict[str, object],
        store: Optional[CompileStore] = None,
        jobs: int = 1,
    ) -> Dict[str, object]:
        """``record`` with every on-demand text, the missing ones rendered at once.

        :meth:`compile_record` of ``record["source"]`` along the record's own
        path -- monolithic, or the link of unit records when ``modular`` --
        asked for exactly the missing kinds, so the texts number clock flags
        like the record's Python; ``store`` and ``jobs`` as there.  Returns
        a new record (``record`` itself is never mutated); a complete record
        comes back as is.  Raises ``ValueError`` when the source does not
        compile to the record's fingerprint.
        """
        missing = missing_kinds(record)
        if not missing:
            return record
        fresh = self.compile_record(
            record["source"],
            GenerationStyle(record["style"]),
            modular=record["modular"],
            store=store,
            jobs=jobs,
            kinds=missing,
        )
        if fresh["fingerprint"] != record["fingerprint"]:
            raise ValueError("record source does not compile to the record's fingerprint")
        return with_texts(record, {kind: fresh["artifacts"][kind] for kind in missing})

    # -- modular compilation -------------------------------------------------
    def _known_units(
        self,
        units: Iterable[ProgramUnit],
        store: Optional[CompileStore],
        compile_missing: bool = False,
    ) -> Dict[str, Dict[str, object]]:
        """The records of ``units`` by unit fingerprint: from the unit LRU,
        else from ``store``, else (with ``compile_missing``) from a genuine
        compile on the fresh manager of
        :func:`~repro.compiler.compile_unit_record`, kept at once, so a later
        unit's failure loses nothing."""
        known = {}
        for unit in units:
            fingerprint = unit.fingerprint()
            record = self._unit_records.get(fingerprint)
            if record is not None:
                with self._lock:
                    self._unit_hits += 1
            elif store is not None:
                record = store.get(unit_store_key(fingerprint))
                if record is not None:
                    with self._lock:
                        self._unit_store_hits += 1
                    self._unit_records.put(fingerprint, record)
            if record is None and compile_missing:
                record = compile_unit_record(unit)
                self._keep_units({fingerprint: record}, store)
            if record is not None:
                known[fingerprint] = record
        return known

    def _keep_units(
        self, compiled: Dict[str, Dict[str, object]], store: Optional[CompileStore]
    ) -> None:
        """Count genuine unit compiles, cache their records and spill them to
        ``store``, which warms any daemon or batch sharing the directory."""
        with self._lock:
            self._unit_misses += len(compiled)
        for fingerprint, record in compiled.items():
            self._unit_records.put(fingerprint, record)
            _spill(store, unit_store_key(fingerprint), record)

    def compile_modular(
        self,
        source: Optional[str] = None,
        process: Optional[Process] = None,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        program: Optional[KernelProgram] = None,
    ) -> LinkedCompilationResult:
        """Compile unit-by-unit against the unit cache, then link.

        The program is split into canonical units
        (:func:`repro.lang.units.split_units`); each unit's artifacts come
        from the in-memory unit LRU, the service's store, or a genuine
        per-unit compile on a fresh manager.  The link stage then composes
        them into a :class:`~repro.compiler.LinkedCompilationResult` that is
        trace-equivalent to the monolithic :meth:`compile` of the same
        source.

        The composed result is cached in :meth:`compile`'s result LRU under
        the same key plus ``modular=True``; a repeat is a ``link_hits`` hit
        that skips unit resolution and the link stage and returns a copy
        with fresh executables.  A *novel* composition of cached units
        still pays only the link.
        """
        if source is None and process is None:
            raise ValueError("compile_modular needs source= or process=")
        return self._compile_cached(
            source, process, style, build_flat, program=program, modular=True
        )

    def compile_batch(
        self,
        sources: Iterable[str],
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        modular: bool = False,
    ) -> list:
        """Compile many sources serially; return live results in input order.

        Each source goes through :meth:`compile` (or, with ``modular=True``,
        :meth:`compile_modular`, so programs sharing modules reuse each
        other's unit records), and every result lands in the caches.  A
        source that fails to compile raises its ``SignalError`` at once,
        carrying ``batch_index`` (its position) like a process batch does;
        the sources before it stay compiled and cached.
        """
        compile_one = self.compile_modular if modular else self.compile
        results = []
        for index, source in enumerate(sources):
            with _blame(index):
                results.append(compile_one(source, style=style, build_flat=build_flat))
        return results

    def compile_batch_records(
        self,
        sources: Iterable[str],
        jobs: int = 1,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        modular: bool = False,
        kinds: Iterable[str] = (),
    ) -> List[Dict[str, object]]:
        """Compile many sources into JSON-safe artifact records, in input order.

        Each record carries the Python and the on-demand texts of ``kinds``
        (rendered where the program compiles, worker or parent; a store hit
        lacking one is completed by :meth:`complete_record`).

        With ``jobs > 1`` the batch runs on a persistent
        :class:`ProcessPoolExecutor` of ``jobs`` worker processes (see the
        module docstring) and spills every program record it renders to the
        store.  A monolithic batch probes the store for each program and
        ships the rest to workers whole; the parent's result cache is
        neither consulted nor populated.  With ``modular=True`` the *unit*,
        not the source, is the fan-out grain: each distinct unit found in
        neither the unit LRU nor the store becomes one pool task, and the
        parent composes every program through :meth:`compile_modular`, so
        the linked results land in the result cache.  Otherwise the batch
        is :meth:`compile_batch` with every live result rendered into its
        record.  A failing source raises with ``batch_index`` either way.
        """
        source_list = list(sources)
        if jobs > 1:
            fan_out = (
                self._compile_batch_modular_processes if modular
                else self._compile_batch_processes
            )
            return fan_out(source_list, jobs, style, build_flat, kinds)
        results = self.compile_batch(
            source_list, style=style, build_flat=build_flat, modular=modular
        )
        return [
            record_from_result(
                result, style, build_flat=build_flat, source=source, kinds=kinds
            )
            for source, result in zip(source_list, results)
        ]

    # -- process backend -----------------------------------------------------
    def _compile_batch_modular_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        kinds: Iterable[str],
    ) -> List[Dict[str, object]]:
        """The parallel link stage.

        Units (not whole sources) are the fan-out grain: each distinct unit
        found in neither the parent's unit LRU nor the store becomes one
        pool task, its returned record is kept (cached, counted, spilled)
        like an inline unit compile's, and the parent composes every program
        serially from warm units -- the compose step is BDD-free, so only
        per-unit compilation crosses the process boundary.  Each program
        record is spilled to the store, as a monolithic process batch does.
        """
        store = self.store
        parsed = []
        owners: Dict[str, Tuple[int, ProgramUnit]] = {}  # first source holding each unit
        for index, source in enumerate(source_list):
            with _blame(index):
                process = parse_process(source)
                program = normalize(process)
            parsed.append((process, program))
            for unit in split_units(program):
                owners.setdefault(unit.fingerprint(), (index, unit))
        uncached = [
            unit for _, unit in owners.values()
            if self._unit_records.peek(unit.fingerprint()) is None
        ]
        stored = self._known_units(uncached, store)
        pending = [unit for unit in uncached if unit.fingerprint() not in stored]
        if pending:
            with self._borrow_process_pool(jobs) as pool:
                futures = [
                    (unit.fingerprint(), pool.submit(_process_worker_unit_record, unit))
                    for unit in pending
                ]
                for fingerprint, future in futures:
                    # Blame the first source containing the unit.
                    with _blame(owners[fingerprint][0]):
                        record = future.result()
                    self._keep_units({fingerprint: record}, store)
        records = []
        for index, (source, (process, program)) in enumerate(zip(source_list, parsed)):
            with _blame(index):
                linked = self.compile_modular(
                    source,
                    process=process,
                    style=style,
                    build_flat=build_flat,
                    program=program,
                )
            record = record_from_result(
                linked, style, build_flat=build_flat, source=source, kinds=kinds
            )
            key = store_key(program.fingerprint(), style, build_flat)
            _spill(store, key, record)
            records.append(record)
        with self._lock:
            self._process_records += len(records)
        return records

    def _compile_batch_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        kinds: Iterable[str],
    ) -> List[Dict[str, object]]:
        """Ship every source the store does not hold to a worker process.

        With a store, each source is parsed here (a parse error raises at
        once) and probed before it is submitted, and every record a worker
        returns is spilled.
        """
        store = self.store
        answers = []  # per source: (store key, store record or worker future)
        with self._borrow_process_pool(jobs) as pool:
            for index, source in enumerate(source_list):
                key = record = None
                if store is not None:
                    with _blame(index):
                        program = normalize(parse_process(source))
                    key = store_key(program.fingerprint(), style, build_flat)
                    record = store.get(key)
                    if record is not None and missing_kinds(record, kinds):
                        record = self.complete_record(record, store)
                        _spill(store, key, record)
                answers.append((key, record or pool.submit(
                    _process_worker_record, source, style, build_flat, None, kinds
                )))
            records = []
            for index, (key, answer) in enumerate(answers):
                if not isinstance(answer, dict):  # a worker's future, not a store hit
                    with _blame(index):
                        answer, _ = answer.result()
                    _spill(store, key, answer)
                    with self._lock:
                        self._process_records += 1
                records.append(answer)
        with self._lock:
            self._requests += len(source_list)
        return records

    @contextlib.contextmanager
    def _borrow_process_pool(self, jobs: int):
        """Check the shared worker-process pool out for one batch/submit.

        The pool is created lazily and *grown* -- drained and rebuilt with
        more workers -- only while nobody else has it checked out: replacing
        a pool another thread is about to submit to would make that submit
        raise ``cannot schedule new futures after shutdown``.  A concurrent
        borrower asking for more workers while the pool is busy simply uses
        the existing (smaller) pool; the growth happens on the next idle
        borrow.  Shrinking is never done implicitly -- idle workers cost
        little.

        A worker that dies (an OOM kill, a crash) breaks the executor for
        good: the borrow that sees ``BrokenProcessPool`` drops the pool and
        re-raises, so only the requests in flight on it fail and the next
        borrow builds a fresh one.
        """
        with self._lock:
            if (
                self._process_pool is not None
                and self._process_jobs < jobs
                and self._process_borrows == 0
            ):
                self._process_pool.shutdown(wait=True)
                self._process_pool = None
            if self._process_pool is None:
                self._process_pool = ProcessPoolExecutor(max_workers=jobs)
                self._process_jobs = jobs
            pool = self._process_pool
            self._process_borrows += 1
        try:
            yield pool
        except BrokenProcessPool:
            with self._lock:
                if self._process_pool is pool:
                    self._process_pool, self._process_jobs = None, 0
            pool.shutdown(wait=True)
            raise
        finally:
            with self._lock:
                self._process_borrows -= 1

    def close(self) -> None:
        """Shut down the worker-process pool (if one was ever started).

        Safe to call any time and more than once; the next process-mode
        compile simply builds a fresh pool.  Do not call it concurrently
        with an in-flight process batch (the daemon tears its request
        threads down first).  The in-process path needs no teardown.
        """
        with self._lock:
            pool, self._process_pool, self._process_jobs = self._process_pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "CompilationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- maintenance and reporting ------------------------------------------
    def clear_cache(self) -> None:
        """Drop every cached result and unit record."""
        self._results.clear()
        self._unit_records.clear()
        self._source_fingerprints.clear()

    @property
    def cache_size(self) -> int:
        return len(self._results)

    def statistics(self) -> Dict[str, object]:
        """Counters for monitoring: cache behaviour and cached BDD memory.

        Every monolithic result in the result LRU holds the manager it
        compiled on, so ``scopes`` counts those managers and
        ``pooled_bdd_nodes`` sums their node tables: the BDD memory that
        LRU keeps alive.  Linked results hold no manager.  The daemon's record path (:meth:`compile_record`)
        compiles on a fresh manager, renders the record and drops the
        result, so both are 0 under the daemon.
        """
        managers = {
            id(result.hierarchy.manager): result.hierarchy.manager
            for result in self._results.values()
            if isinstance(result, CompilationResult)
        }
        with self._lock:
            requests = self._requests
            process_records = self._process_records
            process_workers = self._process_jobs
            modular_requests = self._modular_requests
            unit_hits = self._unit_hits
            unit_misses = self._unit_misses
            unit_store_hits = self._unit_store_hits
            links = self._links
            link_hits = self._link_hits
            link_misses = self._link_misses
        stats = {
            "requests": requests,
            "cache_entries": len(self._results),
            "cache_max_entries": self._results.max_entries,
            "scopes": len(managers),
            "source_fast_path_hits": self._source_fingerprints.stats.hits,
            "pooled_bdd_nodes": sum(manager.num_nodes for manager in managers.values()),
            "process_pool_workers": process_workers,
            "process_records": process_records,
            "modular_requests": modular_requests,
            "unit_cache_entries": len(self._unit_records),
            "unit_cache_max_entries": self._unit_records.max_entries,
            "unit_hits": unit_hits,
            "unit_misses": unit_misses,
            "unit_store_hits": unit_store_hits,
            "links": links,
            "link_hits": link_hits,
            "link_misses": link_misses,
        }
        stats.update(
            {f"cache_{name}": value for name, value in self._results.stats.as_dict().items()}
        )
        return stats
