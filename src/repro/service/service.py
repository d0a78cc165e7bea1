"""The compilation service: compile cache, unit cache and batching.

A :class:`CompilationService` is the long-lived, repeated-traffic front end
of the compiler:

* it memoizes whole :class:`~repro.compiler.CompilationResult` objects in a
  bounded LRU keyed by the **normalized kernel program fingerprint** (plus
  the code-generation options), with a source-text fast path for exact
  repeats -- kernel-equivalent sources (e.g. reformatted text) share one
  entry;
* every cache miss compiles on its own fresh :class:`~repro.bdd.BDDManager`,
  exactly like :func:`~repro.compiler.compile_source`, so a result's BDDs,
  statistics and generated code are a function of its program alone.  The
  manager's computed caches are dropped before the result is cached; its
  unique table lives exactly as long as the cached result, so BDD memory is
  bounded by the LRU.  The record entry points (``compile_record``,
  ``compile_modular_record``: the daemon's miss path) cache no result;
* :meth:`CompilationService.compile_batch` compiles many sources serially,
  and :meth:`CompilationService.compile_batch_records` fans them out to
  worker **processes** that return JSON artifact records and sidestep the
  GIL.

Cache hits return a copy of the cached ``CompilationResult`` carrying fresh
executable instances (rebuilt from the cached generated source), so a hit
behaves exactly like a fresh compilation and callers' simulation states are
fully isolated; the analysis artifacts (hierarchy, schedule, sources) are
shared.

Concurrency
-----------

Compilations share no BDD state, so the compile path takes no lock:
concurrent callers (the daemon's request threads) compile distinct misses
side by side, bounded only by the GIL.  Two threads missing on the same key
both compile and the cache keeps the last result, which is harmless because
compilation is deterministic.  The service lock guards counters only.

Process workers
---------------

``compile_batch_records(sources, jobs=N)`` with ``N > 1`` fans the batch out
to a persistent :class:`~concurrent.futures.ProcessPoolExecutor`.  A live
:class:`~repro.compiler.CompilationResult` cannot cross a process boundary
(its hierarchy, graph and schedule hold BDD handles bound to the worker's
manager), so process workers return the JSON-safe **artifact records** of
:func:`repro.service.store.record_from_result` -- rendered sources, the
clock tree, statistics, and enough metadata to rebuild a runnable step via
:func:`repro.service.store.executable_from_record`.  Each worker process
keeps its own small ``CompilationService``, so repeats within one worker
are warm; the pool is created lazily, reused across batches, grown when a
larger ``jobs`` arrives, and torn down by :meth:`close` (closing is safe --
the next process-mode call simply builds a fresh pool).
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..bdd import BDDManager
from ..codegen.ir import GenerationStyle
from ..compiler import (
    CompilationResult,
    LinkedCompilationResult,
    compile_process,
    compile_unit_record,
    link_units,
    linked_result_from_record,
)
from ..lang.ast import Process
from ..lang.kernel import KernelProgram, normalize
from ..lang.parser import parse_process
from ..lang.units import split_units
from .cache import LRUCache, link_fingerprint, source_digest
from .store import (
    CompileStore,
    linked_record_from_result,
    linked_store_key,
    record_from_result,
    store_key,
    unit_store_key,
)

__all__ = ["CompilationService"]


@contextlib.contextmanager
def _blame(index: int):
    """Tag an exception raised inside with ``batch_index``, its source's position."""
    try:
        yield
    except BaseException as error:
        error.batch_index = index
        raise


# -- process-pool worker side -------------------------------------------------
#: per-worker-process compilation service (warm caches within one worker)
_WORKER_SERVICE: Optional["CompilationService"] = None

#: per-worker-process handles on parent disk stores, keyed by directory
_WORKER_STORES: Dict[str, CompileStore] = {}


def _worker_store(path: Optional[str]) -> Optional[CompileStore]:
    store = _WORKER_STORES.get(path) if path is not None else None
    if path is not None and store is None:
        store = _WORKER_STORES[path] = CompileStore(path)
    return store


def _process_worker_record(
    payload: Tuple[str, str, bool, bool, Optional[str], bool]
) -> Dict[str, object]:
    """Compile one source in a worker process; return its artifact record.

    Runs in the pool's child processes.  The worker keeps a small private
    ``CompilationService`` alive between tasks so repeated sources within
    one worker hit a warm cache; the record that crosses back to the parent
    is plain JSON (see the module docstring).  Toolchain errors propagate
    to the parent as the original ``SignalError`` subclass.

    When the parent configured a disk :class:`CompileStore`, the worker
    layers it under its private cache: the key is probed *before* the
    pipeline runs (so a record any daemon/node spilled earlier is a warm
    start here), and a genuine compile is spilled back (best-effort) so it
    warms every process and node sharing the directory.
    """
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        _WORKER_SERVICE = CompilationService(max_entries=64)
    source, style_value, build_flat, observable, store_path, modular = payload
    style = GenerationStyle(style_value)
    store = _worker_store(store_path)
    if modular:
        # Modular compiles share at unit granularity: the worker's private
        # unit LRU plus the parent's disk store (probed and written back
        # per unit inside compile_modular) replace the whole-program probe.
        return _WORKER_SERVICE.compile_modular_record(
            source, style=style, build_flat=build_flat, observable=observable,
            store=store,
        )
    if store is None:
        result = _WORKER_SERVICE.compile(
            source, style=style, build_flat=build_flat, observable=observable
        )
        return record_from_result(
            result, style, build_flat=build_flat, observable=observable
        )
    process = parse_process(source)
    program = normalize(process)
    key = store_key(program.fingerprint(), style, build_flat, observable)
    record = store.get(key)
    if record is not None:
        return record
    result = _WORKER_SERVICE.compile_process(
        process, style=style, build_flat=build_flat, observable=observable,
        program=program,
    )
    record = record_from_result(
        result, style, build_flat=build_flat, observable=observable
    )
    try:
        store.put(key, record)
    except OSError:
        pass  # a full disk must not fail a successful compile
    return record


def _process_worker_unit_record(
    payload: Tuple[str, str, Optional[str]]
) -> Dict[str, object]:
    """Resolve one *unit* in a worker process; return its artifact record.

    The parallel-link fan-out unit: the parent splits a modular batch into
    distinct units and ships each one here as ``(source containing it, unit
    fingerprint, store path)``.  The worker re-splits the source (cheap and
    BDD-free), locates the unit by fingerprint, and resolves it through its
    private unit LRU and the shared disk store -- so two workers racing on
    one unit at worst duplicate a compile, never diverge (unit compilation
    is deterministic).
    """
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        _WORKER_SERVICE = CompilationService(max_entries=64)
    source, unit_fingerprint, store_path = payload
    store = _worker_store(store_path)
    program = normalize(parse_process(source))
    for unit in split_units(program):
        if unit.fingerprint() == unit_fingerprint:
            return _WORKER_SERVICE._unit_record_for(unit, store)
    raise ValueError(
        f"batch bookkeeping error: source contains no unit {unit_fingerprint}"
    )


class CompilationService:
    """A stateful compiler front end that caches results and units.

    Parameters
    ----------
    max_entries:
        Capacity of the LRU compile cache (whole compilation results).
    store:
        Optionally, a disk :class:`~repro.service.store.CompileStore` (or
        its directory path) that **process workers** layer under their
        private caches: workers probe it before compiling and spill genuine
        compiles back, so cross-process batches warm-start from (and warm)
        every daemon/node sharing the directory.  The in-process compile
        path does not consult it -- the daemon layers the store above the
        service, exactly as before.
    max_unit_entries, max_linked_entries:
        Capacities of the modular unit-record and linked-result LRUs.
    """

    def __init__(
        self,
        max_entries: int = 128,
        store: Optional[Union[CompileStore, str, os.PathLike]] = None,
        max_unit_entries: Optional[int] = None,
        max_linked_entries: Optional[int] = None,
    ):
        if store is not None and not isinstance(store, CompileStore):
            store = CompileStore(store)
        #: disk store process workers layer under their caches (may be None)
        self.store: Optional[CompileStore] = store
        self._store_path = str(store.path) if store is not None else None
        #: (kernel fingerprint, style, build_flat, observable) -> result
        self._results: LRUCache[CompilationResult] = LRUCache(max_entries)
        # Per-unit artifact records (modular compilation), keyed by unit
        # fingerprint.  Units are small next to whole results, and one
        # program holds several, so the default capacity is a multiple of
        # the result cache's.
        if max_unit_entries is None:
            max_unit_entries = max(max_entries * 4, 16)
        self._unit_records: LRUCache[Dict[str, object]] = LRUCache(max_unit_entries)
        # Composed linked results (modular compilation), keyed by the link
        # fingerprint -- the digest of the ordered unit-fingerprint tuple,
        # the rename maps and the code-generation options (see
        # :func:`repro.service.cache.link_fingerprint`).  A hit skips unit
        # resolution and the link stage entirely.  ``max_linked_entries=0``
        # disables the tier (every modular request re-links from units, the
        # pre-link behaviour benchmarks compare against).
        if max_linked_entries is None:
            max_linked_entries = max_entries
        self._linked_results: Optional[LRUCache[LinkedCompilationResult]] = (
            LRUCache(max_linked_entries) if max_linked_entries > 0 else None
        )
        # Source-text digest -> kernel fingerprint (exact-repeat fast path).
        self._source_fingerprints: LRUCache[str] = LRUCache(max(max_entries * 4, 16))
        # (source digest, options) -> link fingerprint: the modular
        # exact-repeat fast path (skips parse + normalize + split on a hit).
        self._link_fingerprints: LRUCache[str] = LRUCache(max(max_entries * 4, 16))
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
        self._link_store_hits = 0

    # -- cache plumbing -----------------------------------------------------
    def _compile_program(
        self,
        process: Process,
        program: KernelProgram,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> CompilationResult:
        """Run one cache miss through the pipeline on a fresh manager.

        The computed caches are dropped before the result is cached or
        rendered: nothing reuses them, a record's statistics are taken
        after the drop, and the result keeps only its unique table.
        """
        manager = BDDManager()
        result = compile_process(
            process,
            style=style,
            build_flat=build_flat,
            observable=observable,
            manager=manager,
            program=program,
        )
        manager.clear_caches()
        return result

    def _compile_cached(
        self,
        source: Optional[str],
        process: Optional[Process],
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
        program: Optional[KernelProgram] = None,
    ) -> CompilationResult:
        """The shared miss/hit pipeline behind every compile entry point."""
        with self._lock:
            self._requests += 1

        digest = None
        counted_miss = False
        if source is not None:
            digest = source_digest(source)
            fingerprint = self._source_fingerprints.get(digest)
            if fingerprint is not None:
                cached = self._results.get((fingerprint, style, build_flat, observable))
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

        key = (fingerprint, style, build_flat, observable)
        # The fast path above already charged this request with a miss; avoid
        # double counting while still honouring a concurrent caller that may
        # have filled the entry in the meantime.
        cached = self._results.peek(key) if counted_miss else self._results.get(key)
        if cached is not None:
            return self._fresh_hit(cached)
        result = self._compile_program(process, program, style, build_flat, observable)
        self._results.put(key, result)
        return result

    @staticmethod
    def _fresh_hit(result: CompilationResult) -> CompilationResult:
        """Restore fresh-compile semantics on a cache hit.

        The cached executables carry mutable delay-register state, so the
        hit returns a copy of the result with brand-new step instances
        (rebuilt from the cached generated source -- a tiny cost next to the
        pipeline): every caller gets isolated simulation state, and a hit
        can never perturb an earlier caller's in-progress run.  The analysis
        artifacts (hierarchy, schedule, IR, sources) are shared.
        """
        executable = result.executable.fresh()
        executable_flat = (
            result.executable_flat.fresh() if result.executable_flat is not None else None
        )
        return replace(result, executable=executable, executable_flat=executable_flat)

    # -- public API ---------------------------------------------------------
    def compile(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> CompilationResult:
        """Compile SIGNAL source text, reusing cached results.

        A miss compiles on a fresh manager, so the result (its BDDs and its
        statistics included) is exactly what
        :func:`~repro.compiler.compile_source` returns for the same source.
        """
        return self._compile_cached(source, None, style, build_flat, observable)

    def compile_process(
        self,
        process: Process,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        program: Optional[KernelProgram] = None,
    ) -> CompilationResult:
        """Like :meth:`compile` for an already-parsed process.

        ``program`` optionally supplies the already-normalized kernel form
        of ``process`` (callers like the daemon normalize first to compute
        the cache key; passing it through avoids normalizing twice).
        """
        return self._compile_cached(
            None, process, style, build_flat, observable, program=program
        )

    def compile_record(
        self,
        source: Optional[str] = None,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        process: Optional[Process] = None,
        program: Optional[KernelProgram] = None,
    ) -> Dict[str, object]:
        """Compile in-process and render the JSON-safe artifact record.

        The inline, uncached counterpart of :meth:`compile_record_in_process`:
        compile on a fresh manager (from ``process``/``program`` when already
        parsed), render the record, drop the result.  The daemon caches the
        record.
        """
        with self._lock:
            self._requests += 1
        if process is None:
            process = parse_process(source)
        if program is None:
            program = normalize(process)
        result = self._compile_program(process, program, style, build_flat, observable)
        return record_from_result(
            result, style, build_flat=build_flat, observable=observable
        )

    # -- modular compilation -------------------------------------------------
    def _unit_record_for(self, unit, store: Optional[CompileStore]) -> Dict[str, object]:
        """The artifact record of one unit: memory LRU, disk store, or compile.

        A genuine compile runs on the fresh manager of
        :func:`~repro.compiler.compile_unit_record` and is spilled to the
        store best-effort, so any daemon or worker process sharing the
        directory warms at module granularity.
        """
        fingerprint = unit.fingerprint()
        record = self._unit_records.get(fingerprint)
        if record is not None:
            with self._lock:
                self._unit_hits += 1
            return record
        if store is not None:
            record = store.get(unit_store_key(fingerprint))
            if record is not None:
                with self._lock:
                    self._unit_store_hits += 1
                self._unit_records.put(fingerprint, record)
                return record
        record = compile_unit_record(unit)
        with self._lock:
            self._unit_misses += 1
        self._unit_records.put(fingerprint, record)
        if store is not None:
            try:
                store.put(unit_store_key(fingerprint), record)
            except OSError:
                pass  # best-effort spill, as for whole-program records
        return record

    def _linked_fresh_hit(
        self, cached: LinkedCompilationResult
    ) -> LinkedCompilationResult:
        with self._lock:
            self._link_hits += 1
        return self._fresh_hit(cached)

    def compile_modular(
        self,
        source: Optional[str] = None,
        process: Optional[Process] = None,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        program: Optional[KernelProgram] = None,
        store: Optional[CompileStore] = None,
    ) -> LinkedCompilationResult:
        """Compile unit-by-unit against the unit cache, then link.

        The program is split into canonical units
        (:func:`repro.lang.units.split_units`); each unit's artifacts come
        from the in-memory unit LRU, the disk store (``store=`` overrides
        the service's own), or a genuine per-unit compile on a fresh
        manager.  The link stage then composes them into a
        :class:`~repro.compiler.LinkedCompilationResult` that is
        trace-equivalent to the monolithic :meth:`compile` of the same
        source.

        Composed results are cached in a third tier above the unit cache:
        the **linked-result LRU**, keyed by the link fingerprint (ordered
        unit tuple + renames + options), with ``kind: "linked"`` records
        spilled to the disk store.  A repeat of the same composition is a
        ``link_hits`` hit that skips unit resolution and the link stage and
        returns a copy with fresh executables, exactly like :meth:`compile`
        hits; a store hit rehydrates without loading unit records, so a
        pruned unit record never forces a recompile while its linked record
        survives.  Unit-granularity sharing is untouched -- a *novel*
        composition of cached units still pays only the link.
        """
        return self._compile_linked(
            source, process, program, style, build_flat, observable, store,
            self._linked_results,
        )

    def _compile_linked(
        self, source: Optional[str], process: Optional[Process],
        program: Optional[KernelProgram], style: GenerationStyle, build_flat: bool,
        observable: bool, store: Optional[CompileStore],
        results: Optional[LRUCache[LinkedCompilationResult]],
    ) -> LinkedCompilationResult:
        """The modular pipeline; ``results`` is the linked-result LRU to
        read and fill, or None.  ``max_linked_entries=0`` also turns the
        store's linked records off."""
        if source is None and process is None:
            raise ValueError("compile_modular needs source= or process=")
        with self._lock:
            self._requests += 1
            self._modular_requests += 1
        if store is None:
            store = self.store
        linked_store = store if self._linked_results is not None else None

        digest_key = None
        if source is not None and results is not None:
            digest_key = (source_digest(source), style.value, build_flat, observable)
            memo_fp = self._link_fingerprints.get(digest_key)
            if memo_fp is not None:
                cached = results.get(memo_fp)
                if cached is not None:
                    return self._linked_fresh_hit(cached)

        if process is None:
            process = parse_process(source)
        if program is None:
            program = normalize(process)
        units = split_units(program)
        link_fp = link_fingerprint(
            program.name,
            [unit.fingerprint() for unit in units],
            [unit.from_canonical for unit in units],
            program.inputs,
            program.outputs,
            style.value,
            build_flat,
            observable,
        )
        if digest_key is not None:
            self._link_fingerprints.put(digest_key, link_fp)
        if results is not None:
            cached = results.get(link_fp)
            if cached is not None:
                return self._linked_fresh_hit(cached)
        if linked_store is not None:
            record = linked_store.get(linked_store_key(link_fp))
            if (
                record is not None
                and record.get("program_fingerprint") == program.fingerprint()
            ):
                with self._lock:
                    self._link_store_hits += 1
                linked = linked_result_from_record(
                    record, program, units, process=process
                )
                if results is not None:
                    results.put(link_fp, linked)
                return linked

        with self._lock:
            self._link_misses += 1
        records = [self._unit_record_for(unit, store) for unit in units]
        linked = link_units(
            program,
            units,
            records,
            style=style,
            build_flat=build_flat,
            observable=observable,
            process=process,
        )
        with self._lock:
            self._links += 1
        if results is not None:
            results.put(link_fp, linked)
        if linked_store is not None:
            try:
                linked_store.put(
                    linked_store_key(link_fp),
                    linked_record_from_result(
                        linked, link_fp, style,
                        build_flat=build_flat, observable=observable,
                    ),
                )
            except OSError:
                pass  # best-effort spill, as for unit records
        return linked

    def compile_modular_record(
        self,
        source: Optional[str] = None,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        store: Optional[CompileStore] = None,
        process: Optional[Process] = None,
        program: Optional[KernelProgram] = None,
    ) -> Dict[str, object]:
        """Modular compile rendered as a whole-program artifact record.

        The record has the exact shape of :meth:`compile_record`'s (kind
        ``"program"``, keyed by the *whole-program* fingerprint): consumers
        of records never see whether the miss path was monolithic or
        modular, which is what lets the daemon's record tiers stay keyed as
        before.  Like :meth:`compile_record` it keeps no live result; the
        unit LRU and the store's unit and linked records still serve it.
        """
        linked = self._compile_linked(
            source, process, program, style, build_flat, observable, store, None
        )
        return record_from_result(
            linked, style, build_flat=build_flat, observable=observable
        )

    def compile_batch(
        self,
        sources: Iterable[str],
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
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
                results.append(
                    compile_one(
                        source, style=style, build_flat=build_flat, observable=observable
                    )
                )
        return results

    def compile_batch_records(
        self,
        sources: Iterable[str],
        jobs: int = 1,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        modular: bool = False,
    ) -> List[Dict[str, object]]:
        """Compile many sources into JSON-safe artifact records, in input order.

        With ``jobs > 1`` the batch runs on a persistent
        :class:`ProcessPoolExecutor` of ``jobs`` worker processes (see the
        module docstring); the parent's result cache is neither consulted
        nor populated.  With ``modular=True`` the *unit*, not the source, is
        the fan-out grain: each distinct unit the parent has not cached
        becomes one pool task, and the parent composes every program from
        the returned unit records.  Otherwise the batch is
        :meth:`compile_batch` with every live result rendered into its
        record.  A failing source raises with ``batch_index`` either way.
        """
        source_list = list(sources)
        if jobs > 1:
            fan_out = (
                self._compile_batch_modular_processes if modular
                else self._compile_batch_processes
            )
            return fan_out(source_list, jobs, style, build_flat, observable)
        return [
            record_from_result(r, style, build_flat=build_flat, observable=observable)
            for r in self.compile_batch(
                source_list, style=style, build_flat=build_flat,
                observable=observable, modular=modular,
            )
        ]

    # -- process backend -----------------------------------------------------
    def _compile_batch_modular_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> List[Dict[str, object]]:
        """The parallel link stage.

        Units (not whole sources) are the fan-out grain: each distinct unit
        not already in the parent's unit LRU becomes one pool task, its
        returned record is injected back into the parent's LRU, and the
        parent composes every program serially from warm units -- the
        compose step is BDD-free, so only per-unit compilation crosses the
        process boundary.  Workers spill through the shared disk store when
        one is configured, exactly like whole-source modular workers.
        """
        parsed = []
        owners: Dict[str, int] = {}  # unit fingerprint -> first source holding it
        for index, source in enumerate(source_list):
            with _blame(index):
                process = parse_process(source)
                program = normalize(process)
            parsed.append((process, program))
            for unit in split_units(program):
                owners.setdefault(unit.fingerprint(), index)
        pending = {
            fingerprint: index
            for fingerprint, index in owners.items()
            if self._unit_records.peek(fingerprint) is None
        }
        if pending:
            with self._borrow_process_pool(jobs) as pool:
                futures = {
                    fingerprint: pool.submit(
                        _process_worker_unit_record,
                        (source_list[index], fingerprint, self._store_path),
                    )
                    for fingerprint, index in pending.items()
                }
                for fingerprint, future in futures.items():
                    # Blame the first source containing the unit.
                    with _blame(pending[fingerprint]):
                        record = future.result()
                    self._unit_records.put(fingerprint, record)
        records = []
        for index, (source, (process, program)) in enumerate(zip(source_list, parsed)):
            with _blame(index):
                linked = self.compile_modular(
                    source,
                    process=process,
                    style=style,
                    build_flat=build_flat,
                    observable=observable,
                    program=program,
                )
            records.append(
                record_from_result(
                    linked, style, build_flat=build_flat, observable=observable
                )
            )
        with self._lock:
            self._process_records += len(records)
        return records

    def _compile_batch_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> List[Dict[str, object]]:
        payloads = [
            (source, style.value, bool(build_flat), bool(observable),
             self._store_path, False)
            for source in source_list
        ]
        with self._borrow_process_pool(jobs) as pool:
            futures = [
                pool.submit(_process_worker_record, payload) for payload in payloads
            ]
            records = []
            for index, future in enumerate(futures):
                with _blame(index):
                    records.append(future.result())
        with self._lock:
            self._requests += len(source_list)
            self._process_records += len(records)
        return records

    def compile_record_in_process(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        jobs: int = 1,
        modular: bool = False,
    ) -> Dict[str, object]:
        """Compile one source on the process pool; return its artifact record.

        The daemon's parallel compile tier: ``K`` request threads each park
        here while their compilation runs in a worker process, so ``K``
        compilations proceed on ``K`` cores instead of serializing on the
        GIL.  ``jobs`` sizes (and can grow) the shared pool.  ``modular``
        makes the worker compile unit-by-unit (warming, and warmed by, the
        parent's disk store at unit granularity).
        """
        with self._borrow_process_pool(max(jobs, 1)) as pool:
            record = pool.submit(
                _process_worker_record,
                (source, style.value, bool(build_flat), bool(observable),
                 self._store_path, bool(modular)),
            ).result()
        with self._lock:
            self._requests += 1
            self._process_records += 1
        return record

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
        little and keep their warm caches.

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
        """Drop every cached result, unit record and linked result."""
        self._results.clear()
        self._unit_records.clear()
        if self._linked_results is not None:
            self._linked_results.clear()
        self._source_fingerprints.clear()
        self._link_fingerprints.clear()

    @property
    def cache_size(self) -> int:
        return len(self._results)

    def statistics(self) -> Dict[str, object]:
        """Counters for monitoring: cache behaviour and cached BDD memory.

        Every result in the in-process result LRU holds the manager it
        compiled on, so ``scopes`` counts those managers and
        ``pooled_bdd_nodes`` sums their node tables: the BDD memory that
        LRU keeps alive.  The daemon's record paths (:meth:`compile_record`,
        :meth:`compile_modular_record`) compile on a fresh manager, render
        the record and drop the result, so both are 0 under the daemon.
        """
        managers = {
            id(result.hierarchy.manager): result.hierarchy.manager
            for result in self._results.values()
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
            link_store_hits = self._link_store_hits
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
            "link_store_hits": link_store_hits,
            "linked_cache_entries": (
                len(self._linked_results) if self._linked_results is not None else 0
            ),
            "linked_cache_max_entries": (
                self._linked_results.max_entries
                if self._linked_results is not None
                else 0
            ),
        }
        stats.update(
            {f"cache_{name}": value for name, value in self._results.stats.as_dict().items()}
        )
        return stats
