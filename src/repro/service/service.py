"""The compilation service: sharded BDD pool + compile cache + batching.

A :class:`CompilationService` is the long-lived, repeated-traffic front end
of the compiler:

* it owns a pool of shared :class:`~repro.bdd.BDDManager` *shards* whose
  unique tables and ``ite`` computed caches persist across compilations;
  every program gets a namespaced *scope* of its shard (see
  :class:`~repro.bdd.ScopedBDDManager`), so unrelated programs never share
  clock variables while recompilations of the same program reuse its
  variables, value encodings and cached ``ite`` results;
* it memoizes whole :class:`~repro.compiler.CompilationResult` objects in a
  bounded LRU keyed by the **normalized kernel program fingerprint** (plus
  the code-generation options), with a source-text fast path for exact
  repeats -- kernel-equivalent sources (e.g. reformatted text) share one
  entry;
* :meth:`CompilationService.compile_batch` compiles many sources
  concurrently -- on worker threads with per-worker managers, or on worker
  **processes** that return JSON artifact records and sidestep the GIL.

Cache hits return a copy of the cached ``CompilationResult`` carrying fresh
executable instances (rebuilt from the cached generated source), so a hit
behaves exactly like a fresh compilation and callers' simulation states are
fully isolated; the analysis artifacts (hierarchy, schedule, sources) are
shared.

Shard map
---------

``CompilationService(shards=K)`` splits the pooled manager into ``K``
independent managers.  A program's shard is a pure function of its kernel
fingerprint (:func:`~repro.service.cache.shard_for_fingerprint`), so the
same program always compiles on the same shard and finds its warm scope
again, while distinct programs spread across shards.  Each shard carries
its own compile lock and its own ``max_pool_nodes`` recycling: one hot
program that blows through the watermark recycles only its shard, and every
other shard's warm scopes survive.  Because shards never share BDD nodes,
compilations on *different* shards may run concurrently (each shard's lock
serializes compilations within the shard) -- this is what lets a daemon
with several request threads compile distinct programs at the same time.
With the default ``shards=1`` the service behaves exactly like the
historical single-pool design.

Scope lifetime
--------------

A *scope* (:class:`~repro.bdd.ScopedBDDManager`) is the bridge between one
program and one manager: it namespaces the program's BDD variables and
carries the program's value-encoding memo.  The service registers scopes
lazily in ``_scope_for`` under the key ``(id(manager), fingerprint)`` and
guarantees the invariant that **a scope outlives every cached result that
was compiled through it, and nothing else**:

* a scope is created on the first (miss) compilation of its program on a
  given manager and reused by every later recompilation there;
* a scope is released when the last LRU entry for its fingerprint (any
  style/option combination) is evicted, when the compilation that would
  have populated the entry raises (including ``BaseException`` such as a
  cancelled batch worker -- nothing would ever evict the entry otherwise),
  or when its manager (shard or worker) is recycled (see below);
* releasing a scope drops it from the registry and clears its
  value-encoding memo.  The variables and nodes the program interned in the
  manager's unique table are *not* reclaimed -- that is what manager
  recycling is for.

Pool hygiene
------------

A shard manager's unique table and variable registry are append-only, so
under varied long-lived traffic (the daemon) they grow without bound.  The
service accepts a ``max_pool_nodes`` watermark, applied **per shard**:
after a compilation finishes on a shard, if that shard's node count exceeds
the watermark the shard manager is *recycled* -- replaced by a fresh empty
one, with every scope registered on the old manager released.  Cached
results that reference the old manager stay valid (their BDD handles keep
the old manager object alive), but BDDs of results compiled before and
after a recycle must not be combined, exactly like results from different
shards or batch workers.  Worker managers are checked against the same
watermark when a batch job returns them to the idle pool and are retired
instead of requeued when over budget.  ``statistics()["pool_recycles"]`` is
the sum of the per-shard recycle counters (reported individually under
``shard_stats``), so single-shard services report exactly what they always
did.

Process workers
---------------

``compile_batch(sources, jobs=N, workers="processes")`` fans the batch out
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
import queue
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..bdd import BDDManager, ScopedBDDManager
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
from .cache import LRUCache, link_fingerprint, shard_for_fingerprint, source_digest
from .store import (
    CompileStore,
    linked_record_from_result,
    linked_store_key,
    record_from_result,
    store_key,
    unit_store_key,
)

__all__ = ["CompilationService", "WORKER_MODES"]

#: cache key: (kernel fingerprint, style, build_flat, observable)
_CacheKey = Tuple[str, GenerationStyle, bool, bool]

#: accepted values of the ``workers=`` argument of :meth:`compile_batch`
WORKER_MODES = ("threads", "processes")

#: scope-namespace prefix for per-unit compilations; unit fingerprints are
#: hex digests, so the prefix keeps them disjoint from whole-program
#: fingerprint namespaces on the same shard manager
_UNIT_SCOPE_PREFIX = "unit:"

#: shared no-op guard for worker-manager slots (nullcontext is stateless)
_NO_LOCK = contextlib.nullcontext()


class _PoolShard:
    """One shard of the pooled manager: manager + compile lock + counters.

    ``lock`` serializes compilations *within* the shard (and guards manager
    replacement during recycling); compilations on different shards never
    contend.  ``manager`` must only be read under ``lock`` by compiling
    code, so a concurrent recycle cannot swap it mid-pipeline.
    """

    __slots__ = ("index", "manager", "lock", "recycles")

    def __init__(self, index: int, manager: BDDManager):
        self.index = index
        self.manager = manager
        self.lock = threading.RLock()
        self.recycles = 0


class _WorkerSlot:
    """Duck-typed shard for a checked-out batch worker manager.

    Worker managers are owned by exactly one batch job for the duration of
    the checkout, so their guard is a shared no-op context manager.
    """

    __slots__ = ("manager", "lock")

    def __init__(self, manager: BDDManager):
        self.manager = manager
        self.lock = _NO_LOCK


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
    """A stateful compiler front end that pools BDDs and caches results.

    Parameters
    ----------
    max_entries:
        Capacity of the LRU compile cache (whole compilation results).
    manager:
        Optionally, an existing shared manager to pool on (a fresh one is
        created by default).  Only valid with ``shards=1`` -- a sharded
        pool owns all of its managers.
    max_pool_nodes:
        Node-count watermark for pool hygiene, applied per shard: when a
        compilation leaves a shard manager (or returns a batch worker
        manager) with more than this many nodes, that manager is recycled
        and its scopes are released.  ``None`` (the default) disables
        recycling.
    shards:
        Number of independent pooled managers.  Programs route to shards by
        kernel-fingerprint hash (see the module docstring); compilations on
        different shards may run concurrently.
    store:
        Optionally, a disk :class:`~repro.service.store.CompileStore` (or
        its directory path) that **process workers** layer under their
        private caches: workers probe it before compiling and spill genuine
        compiles back, so cross-process batches warm-start from (and warm)
        every daemon/node sharing the directory.  The in-process compile
        path does not consult it -- the daemon layers the store above the
        service, exactly as before.

    ``compile``/``compile_process`` serialize per shard (concurrent calls
    for programs on different shards proceed in parallel);
    ``compile_batch`` is the fan-out entry point and isolates thread
    workers on their own managers or ships work to worker processes.
    """

    def __init__(
        self,
        max_entries: int = 128,
        manager: Optional[BDDManager] = None,
        max_pool_nodes: Optional[int] = None,
        shards: int = 1,
        store: Optional[Union[CompileStore, str, os.PathLike]] = None,
        max_unit_entries: Optional[int] = None,
        max_linked_entries: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if manager is not None and shards != 1:
            raise ValueError(
                "manager= cannot be combined with shards>1: a sharded pool "
                "owns all of its managers"
            )
        self._pool_shards: List[_PoolShard] = [
            _PoolShard(0, manager if manager is not None else BDDManager())
        ] + [_PoolShard(index, BDDManager()) for index in range(1, shards)]
        self.max_pool_nodes = max_pool_nodes
        if store is not None and not isinstance(store, CompileStore):
            store = CompileStore(store)
        #: disk store process workers layer under their caches (may be None)
        self.store: Optional[CompileStore] = store
        self._store_path = str(store.path) if store is not None else None
        self._results: LRUCache[CompilationResult] = LRUCache(
            max_entries, on_evict=self._on_result_evicted
        )
        # Per-unit artifact records (modular compilation), keyed by unit
        # fingerprint.  Units are small next to whole results, and one
        # program holds several, so the default capacity is a multiple of
        # the result cache's.
        if max_unit_entries is None:
            max_unit_entries = max(max_entries * 4, 16)
        self._unit_records: LRUCache[Dict[str, object]] = LRUCache(
            max_unit_entries, on_evict=self._on_unit_evicted
        )
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
        # (manager identity, namespace) -> scope; managers are kept alive for
        # the service's lifetime, so id() keys are stable.
        self._scopes: Dict[Tuple[int, str], ScopedBDDManager] = {}
        self._lock = threading.RLock()
        # Idle worker managers, checked out for the duration of one batch
        # compilation and returned afterwards: the pool is bounded by the
        # highest concurrency ever used and reused across batches.
        self._idle_workers: "queue.SimpleQueue[BDDManager]" = queue.SimpleQueue()
        self._worker_managers: List[BDDManager] = []
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_jobs = 0
        self._process_borrows = 0
        self._requests = 0
        self._worker_recycles = 0
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

    # -- shard routing -------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of pool shards (1 = the historical single-pool layout)."""
        return len(self._pool_shards)

    @property
    def manager(self) -> BDDManager:
        """The first shard's manager (the whole pool when ``shards=1``)."""
        return self._pool_shards[0].manager

    def shard_index(self, fingerprint: str) -> int:
        """The shard a kernel fingerprint routes to (stable, process-safe)."""
        return shard_for_fingerprint(fingerprint, len(self._pool_shards))

    def shard_manager(self, fingerprint: str) -> BDDManager:
        """The manager a program currently compiles on (for tests/inspection)."""
        return self._shard_for(fingerprint).manager

    def _shard_for(self, fingerprint: str) -> _PoolShard:
        return self._pool_shards[self.shard_index(fingerprint)]

    # -- cache plumbing -----------------------------------------------------
    @staticmethod
    def _key(
        fingerprint: str,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> _CacheKey:
        return (fingerprint, style, build_flat, observable)

    def _scope_for(self, manager: BDDManager, fingerprint: str) -> ScopedBDDManager:
        """The persistent per-program scope of a manager.

        Scopes are cached per (manager, program) so a recompilation -- on
        the program's pool shard or on a reused worker manager -- finds its
        variables and value encodings again.  The full fingerprint is the
        namespace: distinct kernels can never share a scope.
        """
        key = (id(manager), fingerprint)
        with self._lock:
            scope = self._scopes.get(key)
            if scope is None:
                scope = manager.scoped(fingerprint)
                self._scopes[key] = scope
            return scope

    def _release_orphan_scopes(self, fingerprint: str) -> None:
        """Drop a program's scopes when no cached result references it.

        The scope and its encoding cache hold BDD handles; releasing them
        keeps the service's bookkeeping bounded by the LRU under varied
        traffic.  (Nodes already interned in a manager's unique table are
        not reclaimed -- recycling the table is what the watermark is for.)
        """
        if any(key[0] == fingerprint for key in self._results.keys()):
            return  # another style/options entry still uses this program
        with self._lock:
            stale = [k for k in self._scopes if k[1] == fingerprint]
            for scope_key in stale:
                self._scopes.pop(scope_key).encoding_cache.clear()

    def _on_result_evicted(self, key, value) -> None:
        self._release_orphan_scopes(key[0])

    def _release_unit_scopes(self, fingerprint: str) -> None:
        """Drop a unit's compile scopes when its record is no longer cached.

        Mirrors :meth:`_release_orphan_scopes` at unit granularity: a unit
        whose artifact record lives in the unit LRU keeps its scope (a
        recompile after watermark recycling finds its variables again);
        once the record is gone -- evicted, or never stored because the
        unit failed to compile mid-link -- the scope must go too.
        """
        if self._unit_records.peek(fingerprint) is not None:
            return
        namespace = _UNIT_SCOPE_PREFIX + fingerprint
        with self._lock:
            stale = [k for k in self._scopes if k[1] == namespace]
            for scope_key in stale:
                self._scopes.pop(scope_key).encoding_cache.clear()

    def _on_unit_evicted(self, fingerprint, record) -> None:
        self._release_unit_scopes(fingerprint)

    def _compile_program(
        self,
        process: Process,
        program: KernelProgram,
        fingerprint: str,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
        manager: BDDManager,
    ) -> CompilationResult:
        scope = self._scope_for(manager, fingerprint)
        return compile_process(
            process,
            style=style,
            build_flat=build_flat,
            observable=observable,
            manager=scope,
            program=program,
        )

    def _compile_cached(
        self,
        source: Optional[str],
        process: Optional[Process],
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
        slot_supplier: "Callable[[str], object]",
        program: Optional[KernelProgram] = None,
    ) -> CompilationResult:
        """The shared miss/hit pipeline behind every compile entry point.

        ``slot_supplier`` maps the program's fingerprint to the *slot* a
        genuine miss compiles on -- a pool shard (whose lock serializes the
        shard) or a lazily checked-out worker manager (no lock needed: the
        checkout is exclusive).  It is only called on a miss, so fully-warm
        traffic never touches a manager.
        """
        with self._lock:
            self._requests += 1

        digest = None
        counted_miss = False
        if source is not None:
            digest = source_digest(source)
            fingerprint = self._source_fingerprints.get(digest)
            if fingerprint is not None:
                cached = self._results.get(
                    self._key(fingerprint, style, build_flat, observable)
                )
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

        key = self._key(fingerprint, style, build_flat, observable)
        # The fast path above already charged this request with a miss; avoid
        # double counting while still honouring a concurrent worker that may
        # have filled the entry in the meantime.
        cached = self._results.peek(key) if counted_miss else self._results.get(key)
        if cached is not None:
            return self._fresh_hit(cached)

        # Only a genuine miss needs a manager (batch workers check one out
        # of the pool lazily here, so fully-warm batches allocate nothing).
        try:
            slot = slot_supplier(fingerprint)
            with slot.lock:
                result = self._compile_program(
                    process, program, fingerprint, style, build_flat, observable,
                    slot.manager,
                )
        except BaseException:
            # A failed compilation stores no result, so nothing would ever
            # evict the scope registered above -- release it now.  This must
            # cover BaseException, not just Exception: a batch worker killed
            # by e.g. KeyboardInterrupt or a future cancellation would
            # otherwise leak its scope in a long-lived daemon.
            self._release_orphan_scopes(fingerprint)
            raise
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

    def _pooled_supplier(self, used: List[_PoolShard]) -> "Callable[[str], _PoolShard]":
        def supplier(fingerprint: str) -> _PoolShard:
            shard = self._shard_for(fingerprint)
            used.append(shard)
            return shard

        return supplier

    # -- public API ---------------------------------------------------------
    def compile(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> CompilationResult:
        """Compile SIGNAL source text, reusing pooled BDDs and cached results.

        Cache misses compile on the program's pool shard.  A hit may return
        a result originally produced by :meth:`compile_batch`, whose BDDs
        live on that batch's worker manager instead -- the result is
        identical in behaviour, but do not combine its clock BDDs with
        those of another result unless both live on one manager (check
        ``result.hierarchy.manager``).
        """
        used: List[_PoolShard] = []
        result = self._compile_cached(
            source, None, style, build_flat, observable, self._pooled_supplier(used)
        )
        for shard in used:
            self._maybe_recycle_shard(shard)
        return result

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
        used: List[_PoolShard] = []
        result = self._compile_cached(
            None, process, style, build_flat, observable,
            self._pooled_supplier(used), program=program,
        )
        for shard in used:
            self._maybe_recycle_shard(shard)
        return result

    def compile_record(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> Dict[str, object]:
        """Compile in-process and render the JSON-safe artifact record.

        The inline counterpart of :meth:`compile_record_in_process`: same
        output shape, produced on the caller's thread through the normal
        pooled/cached path.
        """
        result = self.compile(
            source, style=style, build_flat=build_flat, observable=observable
        )
        return record_from_result(
            result, style, build_flat=build_flat, observable=observable
        )

    # -- modular compilation -------------------------------------------------
    def _unit_record_for(self, unit, store: Optional[CompileStore]) -> Dict[str, object]:
        """The artifact record of one unit: memory LRU, disk store, or compile.

        A genuine compile runs on the shard the *unit* fingerprint routes
        to (under that shard's lock, in a ``unit:``-prefixed scope) and is
        spilled to the store best-effort, so any daemon or worker process
        sharing the directory warms at module granularity.
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
        shard = self._shard_for(fingerprint)
        try:
            with shard.lock:
                scope = self._scope_for(shard.manager, _UNIT_SCOPE_PREFIX + fingerprint)
                record = compile_unit_record(unit, manager=scope)
        except BaseException:
            # A unit that fails to compile caches no record; its scope must
            # not outlive the failure (the mid-link scope-release invariant
            # tests/test_modular.py checks).  Units compiled earlier for the
            # same program keep theirs -- their records are cached and
            # reusable by the next program.
            self._release_unit_scopes(fingerprint)
            raise
        with self._lock:
            self._unit_misses += 1
        self._unit_records.put(fingerprint, record)
        if store is not None:
            try:
                store.put(unit_store_key(fingerprint), record)
            except OSError:
                pass  # best-effort spill, as for whole-program records
        self._maybe_recycle_shard(shard)
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
        the service's own), or a genuine per-unit compile on the unit's
        shard.  The link stage then composes them into a
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
        if source is None and process is None:
            raise ValueError("compile_modular needs source= or process=")
        with self._lock:
            self._requests += 1
            self._modular_requests += 1
        if store is None:
            store = self.store

        digest_key = None
        if source is not None and self._linked_results is not None:
            digest_key = (source_digest(source), style.value, build_flat, observable)
            memo_fp = self._link_fingerprints.get(digest_key)
            if memo_fp is not None:
                cached = self._linked_results.get(memo_fp)
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
        if self._linked_results is not None:
            cached = self._linked_results.get(link_fp)
            if cached is not None:
                return self._linked_fresh_hit(cached)
            if store is not None:
                record = store.get(linked_store_key(link_fp))
                if (
                    record is not None
                    and record.get("program_fingerprint") == program.fingerprint()
                ):
                    with self._lock:
                        self._link_store_hits += 1
                    linked = linked_result_from_record(
                        record, program, units, process=process
                    )
                    self._linked_results.put(link_fp, linked)
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
        if self._linked_results is not None:
            self._linked_results.put(link_fp, linked)
            if store is not None:
                try:
                    store.put(
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
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        store: Optional[CompileStore] = None,
    ) -> Dict[str, object]:
        """Modular compile rendered as a whole-program artifact record.

        The record has the exact shape of :meth:`compile_record`'s (kind
        ``"program"``, keyed by the *whole-program* fingerprint): consumers
        of records never see whether the miss path was monolithic or
        modular, which is what lets the daemon's record tiers stay keyed as
        before.
        """
        linked = self.compile_modular(
            source, style=style, build_flat=build_flat, observable=observable,
            store=store,
        )
        return record_from_result(
            linked, style, build_flat=build_flat, observable=observable
        )

    def compile_batch(
        self,
        sources: Iterable[str],
        jobs: int = 1,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        workers: str = "threads",
        modular: bool = False,
    ):
        """Compile many sources with ``jobs`` worker threads or processes.

        With ``modular=True`` the *unit*, not the source, is the fan-out
        grain (the parallel link stage): the batch is split up front, its
        distinct units are resolved concurrently -- on the pool shards for
        thread batches, as one pool task per novel unit for process
        batches -- and the final compose runs serially over warm units
        through :meth:`compile_modular`, so repeated compositions land in
        (and hit) the linked-result LRU.  Thread batches return linked
        results; process batches return whole-program artifact records
        composed in the parent from the workers' unit records.

        Results come back in input order.  The two backends differ in what
        they can return:

        * ``workers="threads"`` (default) returns a list of live
          :class:`~repro.compiler.CompilationResult` objects.  Workers that
          miss the cache compile on a worker manager checked out from a
          persistent pool (at most one per concurrently running job, reused
          across batches) so the pool shards are never touched
          concurrently; all results land in the shared compile cache.  BDDs
          of a batch-compiled result are therefore bound to its worker
          manager -- combine clock BDDs across results only when both live
          on one manager.
        * ``workers="processes"`` returns a list of JSON-safe **artifact
          records** (the PR-2 store format): live results cannot cross a
          process boundary, records can -- rebuild a runnable step with
          :func:`repro.service.store.executable_from_record`.  Compilation
          happens in a persistent :class:`ProcessPoolExecutor` sized to
          ``jobs``, sidestepping the GIL entirely; the parent's caches are
          not consulted or populated (each worker process keeps its own).

        If the same program appears twice in one thread batch it may be
        compiled by two workers; the cache keeps whichever finishes last,
        which is harmless because compilation is deterministic.  A source
        that fails to compile raises its ``SignalError`` from the batch
        call in either mode; thread batches raise it only after every other
        job has run (and cached its result), and the error raised is the
        first failing source's in input order.  In process mode the exception additionally
        carries ``batch_index`` (the failing source's position), because
        the parent holds no cache that could cheaply re-identify it.
        """
        if workers not in WORKER_MODES:
            raise ValueError(f"workers must be one of {WORKER_MODES} (got {workers!r})")
        source_list = list(sources)
        if workers == "processes":
            return self._compile_batch_processes(
                source_list, jobs, style, build_flat, observable, modular
            )
        if modular:
            if jobs <= 1:
                return [
                    self.compile_modular(
                        s, style=style, build_flat=build_flat, observable=observable
                    )
                    for s in source_list
                ]
            return self._compile_batch_modular_threads(
                source_list, jobs, style, build_flat, observable
            )
        if jobs <= 1:
            return [
                self.compile(s, style=style, build_flat=build_flat, observable=observable)
                for s in source_list
            ]

        def work(source: str) -> CompilationResult:
            checked_out: List[BDDManager] = []

            def supplier(fingerprint: str) -> _WorkerSlot:
                manager = self._checkout_worker_manager()
                checked_out.append(manager)
                return _WorkerSlot(manager)

            try:
                return self._compile_cached(
                    source, None, style, build_flat, observable, supplier
                )
            finally:
                # Returned even when the job raised: the manager itself is
                # reusable (the failed program's scope was already released
                # by _compile_cached), but an over-budget manager is retired
                # here rather than requeued.
                for manager in checked_out:
                    self._return_worker_manager(manager)

        # Submit every job and read the results in input order only once all
        # have run: ``pool.map`` cancels the jobs not yet started when one
        # fails, so which successful programs got cached would depend on
        # thread timing.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(work, source) for source in source_list]
        return [future.result() for future in futures]

    def _split_batch(
        self, source_list: List[str], mapper=map
    ) -> Tuple[list, Dict[str, object]]:
        """Parse/split every source; dedupe units across the whole batch.

        Returns ``(parsed, unique)`` where ``parsed`` holds one
        ``(process, program, units)`` triple per source (input order) and
        ``unique`` maps each distinct unit fingerprint to one
        representative -- the unit object for thread batches, the index of
        the first source containing it for process batches (via
        ``enumerate`` on the caller side).  ``mapper`` lets thread batches
        fan the parse itself out.
        """
        def split(source: str):
            process = parse_process(source)
            program = normalize(process)
            return process, program, split_units(program)

        parsed = list(mapper(split, source_list))
        unique: Dict[str, object] = {}
        for _, _, units in parsed:
            for unit in units:
                unique.setdefault(unit.fingerprint(), unit)
        return parsed, unique

    def _compile_batch_modular_threads(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> List[LinkedCompilationResult]:
        """The parallel link stage, thread flavour.

        Phase 1 parses and splits every source on the pool; phase 2 dedupes
        units across the whole batch and resolves each distinct unit
        exactly once, concurrently (unit misses serialize per shard lock,
        so no worker-manager checkout is needed); phase 3 composes
        serially -- every unit is warm by then, so each compose is pure
        link work, or a linked-LRU hit when the composition repeats.
        """
        store = self.store
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parsed, unique = self._split_batch(source_list, mapper=pool.map)
            # Like thread batches: every unit compiles before a failure is raised.
            futures = [
                pool.submit(self._unit_record_for, unit, store) for unit in unique.values()
            ]
        for future in futures:
            future.result()
        return [
            self.compile_modular(
                source,
                process=process,
                style=style,
                build_flat=build_flat,
                observable=observable,
                program=program,
            )
            for source, (process, program, _) in zip(source_list, parsed)
        ]

    def _compile_batch_modular_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> List[Dict[str, object]]:
        """The parallel link stage, process flavour.

        Units (not whole sources) are the fan-out grain: each distinct unit
        not already in the parent's unit LRU becomes one pool task, its
        returned record is injected back into the parent's LRU, and the
        parent composes every program serially from warm units -- the
        compose step is BDD-free, so only per-unit compilation crosses the
        process boundary.  Workers spill through the shared disk store when
        one is configured, exactly like whole-source modular workers.
        """
        parsed, unique = self._split_batch(source_list)
        owners: Dict[str, int] = {}
        for index, (_, _, units) in enumerate(parsed):
            for unit in units:
                owners.setdefault(unit.fingerprint(), index)
        pending = {
            fingerprint: owners[fingerprint]
            for fingerprint in unique
            if self._unit_records.peek(fingerprint) is None
        }
        if pending:
            with self._borrow_process_pool(max(jobs, 1)) as pool:
                futures = {
                    fingerprint: pool.submit(
                        _process_worker_unit_record,
                        (source_list[index], fingerprint, self._store_path),
                    )
                    for fingerprint, index in pending.items()
                }
                for fingerprint, future in futures.items():
                    try:
                        record = future.result()
                    except BaseException as error:
                        # Blame the first source containing the unit, like
                        # whole-source process batches blame their index.
                        if not hasattr(error, "batch_index"):
                            error.batch_index = pending[fingerprint]
                        raise
                    self._unit_records.put(fingerprint, record)
        records = []
        for source, (process, program, _) in zip(source_list, parsed):
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

    def compile_batch_records(
        self,
        sources: Iterable[str],
        jobs: int = 1,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        workers: str = "threads",
        modular: bool = False,
    ) -> List[Dict[str, object]]:
        """Like :meth:`compile_batch`, but always return artifact records.

        This is the uniform-output entry point for callers that compare or
        persist batch results (benchmarks, the fuzz harness): thread and
        serial batches render their live results into records, process
        batches return the workers' records as-is.
        """
        source_list = list(sources)
        if workers == "processes":
            return self._compile_batch_processes(
                source_list, jobs, style, build_flat, observable, modular
            )
        results = self.compile_batch(
            source_list, jobs=jobs, style=style, build_flat=build_flat,
            observable=observable, workers=workers, modular=modular,
        )
        return [
            record_from_result(r, style, build_flat=build_flat, observable=observable)
            for r in results
        ]

    # -- process backend -----------------------------------------------------
    def _compile_batch_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
        modular: bool = False,
    ) -> List[Dict[str, object]]:
        if modular:
            return self._compile_batch_modular_processes(
                source_list, jobs, style, build_flat, observable
            )
        payloads = [
            (source, style.value, bool(build_flat), bool(observable),
             self._store_path, bool(modular))
            for source in source_list
        ]
        with self._borrow_process_pool(max(jobs, 1)) as pool:
            futures = [
                pool.submit(_process_worker_record, payload) for payload in payloads
            ]
            records = []
            for index, future in enumerate(futures):
                try:
                    records.append(future.result())
                except BaseException as error:
                    # Name the culprit: the parent never compiled anything,
                    # so without the index a caller (e.g. the CLI) would
                    # have to recompile the whole batch to find it.
                    if not hasattr(error, "batch_index"):
                        error.batch_index = index
                    raise
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
        finally:
            with self._lock:
                self._process_borrows -= 1

    def close(self) -> None:
        """Shut down the worker-process pool (if one was ever started).

        Safe to call any time and more than once; the next process-mode
        compile simply builds a fresh pool.  Do not call it concurrently
        with an in-flight process batch (the daemon tears its request
        threads down first).  Thread workers and the pool shards need no
        teardown.
        """
        with self._lock:
            pool, self._process_pool, self._process_jobs = self._process_pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "CompilationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _checkout_worker_manager(self) -> BDDManager:
        try:
            return self._idle_workers.get_nowait()
        except queue.Empty:
            manager = BDDManager()
            with self._lock:
                self._worker_managers.append(manager)
            return manager

    # -- pool hygiene --------------------------------------------------------
    def _over_watermark(self, manager: BDDManager) -> bool:
        return self.max_pool_nodes is not None and manager.num_nodes > self.max_pool_nodes

    def _drop_manager_scopes_locked(self, manager_id: int) -> None:
        """Release every scope registered on a recycled/retired manager.

        Must be called with ``self._lock`` held.  Cached results keep the
        old manager object (and hence their BDDs) alive; only the service's
        bookkeeping for it is dropped, so nothing can resurrect a scope on a
        dead manager or collide with a reused ``id()``.
        """
        stale = [key for key in self._scopes if key[0] == manager_id]
        for scope_key in stale:
            self._scopes.pop(scope_key).encoding_cache.clear()

    def _maybe_recycle_shard(self, shard: _PoolShard) -> None:
        """Replace a shard's manager with a fresh one when over budget.

        Lock order is shard lock, then the service lock -- the same order
        the compile path uses (`slot.lock` around the pipeline, `_scope_for`
        inside), so a recycle can never deadlock against a compilation.
        """
        if not self._over_watermark(shard.manager):
            return
        with shard.lock:
            old = shard.manager
            if not self._over_watermark(old):  # re-check under the lock
                return
            shard.manager = old.fresh_like()
            with self._lock:
                self._drop_manager_scopes_locked(id(old))
                shard.recycles += 1

    def _return_worker_manager(self, manager: BDDManager) -> None:
        """Requeue an idle worker manager, or retire it when over budget."""
        if not self._over_watermark(manager):
            self._idle_workers.put(manager)
            return
        with self._lock:
            try:
                self._worker_managers.remove(manager)
            except ValueError:  # pragma: no cover - retired concurrently
                pass
            self._drop_manager_scopes_locked(id(manager))
            self._worker_recycles += 1

    # -- maintenance and reporting ------------------------------------------
    def clear_cache(self) -> None:
        """Drop cached results and scopes (interned pooled BDDs are kept)."""
        self._results.clear()
        self._unit_records.clear()
        if self._linked_results is not None:
            self._linked_results.clear()
        self._source_fingerprints.clear()
        self._link_fingerprints.clear()
        with self._lock:
            for scope in self._scopes.values():
                scope.encoding_cache.clear()
            self._scopes.clear()

    @property
    def cache_size(self) -> int:
        return len(self._results)

    def shard_statistics(self) -> List[Dict[str, int]]:
        """Per-shard pool counters (``statistics()["shard_stats"]``)."""
        with self._lock:
            shard_scopes = {id(shard.manager): 0 for shard in self._pool_shards}
            for manager_id, _ in self._scopes:
                if manager_id in shard_scopes:
                    shard_scopes[manager_id] += 1
            stats = []
            for shard in self._pool_shards:
                manager_stats = shard.manager.statistics()
                stats.append(
                    {
                        "index": shard.index,
                        "bdd_nodes": manager_stats["nodes"],
                        "bdd_vars": manager_stats["vars"],
                        "ite_cache_entries": manager_stats["ite_cache_entries"],
                        "recycles": shard.recycles,
                        "scopes": shard_scopes[id(shard.manager)],
                    }
                )
            return stats

    def statistics(self) -> Dict[str, object]:
        """Counters for monitoring: cache behaviour and pool sizes.

        ``pooled_bdd_nodes``/``pooled_bdd_vars``/``pooled_ite_cache_entries``
        sum over all shards and ``pool_recycles`` is the sum of the
        per-shard recycle counters, so the headline numbers mean the same
        thing at any shard count; ``shard_stats`` breaks them down.
        """
        shard_stats = self.shard_statistics()
        with self._lock:
            worker_nodes = sum(m.num_nodes for m in self._worker_managers)
            worker_count = len(self._worker_managers)
            requests = self._requests
            worker_recycles = self._worker_recycles
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
            "scopes": len(self._scopes),
            "source_fast_path_hits": self._source_fingerprints.stats.hits,
            "shards": len(self._pool_shards),
            "shard_stats": shard_stats,
            "pooled_bdd_nodes": sum(s["bdd_nodes"] for s in shard_stats),
            "pooled_bdd_vars": sum(s["bdd_vars"] for s in shard_stats),
            "pooled_ite_cache_entries": sum(s["ite_cache_entries"] for s in shard_stats),
            "worker_managers": worker_count,
            "worker_bdd_nodes": worker_nodes,
            "max_pool_nodes": self.max_pool_nodes or 0,
            "pool_recycles": sum(s["recycles"] for s in shard_stats),
            "worker_recycles": worker_recycles,
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
