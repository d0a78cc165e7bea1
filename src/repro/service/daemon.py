"""The compilation daemon: one long-lived service behind a wire protocol.

``python -m repro serve`` starts an asyncio server speaking a JSON-line
protocol (one JSON request per line, one JSON response per line) over TCP
or a unix domain socket.  Many OS processes then share a single
:class:`~repro.service.CompilationService` -- its unit cache and the
daemon's record cache -- instead of each paying a cold cache.

Caching tiers
-------------

A ``compile`` request is answered from the first of three tiers:

1. **memory** -- an LRU of rendered *artifact records* keyed exactly like
   the service's compile cache (kernel fingerprint + options), with a
   source-digest fast path that skips parsing on exact textual repeats;
2. **store** -- the optional on-disk :class:`~repro.service.store.CompileStore`;
   a hit is promoted into tier 1, so a *restarted* daemon re-warms its
   memory cache from disk as traffic arrives;
3. **compile** -- the wrapped :class:`CompilationService` compiles on a
   fresh BDD manager, renders the record and drops the result; the record
   is written back to tiers 1 and 2.  No compilation result outlives its
   request: the daemon caches records, never live results.

Protocol
--------

Requests are JSON objects with an ``op`` field; every response carries
``ok``.  Failures are structured -- ``{"ok": false, "error": {"code": ...,
"message": ...}}`` -- and never terminate the server (a malformed line is a
client bug, not a daemon bug).  The full request/response schema and the
error-code table are documented in ``docs/ARCHITECTURE.md``.

Concurrency
-----------

The event loop reads and parses each request line once.  It answers a
``compile`` the memory tier holds (digest memo and record LRU, no
``simulate``) itself; everything else runs on a pool of ``jobs`` worker
threads (one by default), so a memory hit never waits behind a compile and
the loop stays free to accept connections.  How a miss compiles depends on
``jobs``:

* ``jobs=1`` compiles it on the worker thread, on a fresh BDD manager;
* ``jobs > 1`` ships it to the service's worker-process pool and parks the
  worker thread on the result, so ``jobs`` compilations proceed on ``jobs``
  cores (``python -m repro serve --jobs N``, and the local fallback of a
  ``CompileGateway`` started with ``jobs > 1``).  The worker gets the source
  and, for a modular miss, the unit records the daemon's service already
  holds; every cache lookup, store probe and spill stays in the daemon's
  process.

Operability
-----------

``SIGTERM`` triggers a *graceful drain*: the daemon stops accepting new
work, waits (up to ``drain_timeout`` seconds) for in-flight requests to
finish and their responses to be written, then exits -- a supervisor
restart never loses a compile that was already running.  The ``shutdown``
op accepts ``{"drain": true}`` for the same behaviour on request.  An
opt-in request log (``request_log=`` / ``--log-requests``) appends one JSON
line per request -- op, outcome, origin tier, duration -- to a file,
``"-"`` for stdout, or any writable stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import errno
import json
import os
import signal
import socket
import stat
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, IO, Optional, Tuple, Union

from ..codegen.ir import GenerationStyle
from ..errors import (
    CausalityError,
    ClockCalculusError,
    CodeGenerationError,
    LexerError,
    ParseError,
    ResourceLimitExceeded,
    SignalError,
    SimulationError,
    TypeError_,
)
from ..lang.kernel import normalize
from ..lang.parser import parse_process
from ..runtime import ReactiveExecutor, random_oracle, timing_diagram
from .cache import LRUCache, source_digest
from .service import CompilationService
from .store import (
    ARTIFACT_KINDS,
    CompileStore,
    executable_from_record,
    key_from_record,
    record_from_result,  # noqa: F401 - perfbench's tracer wraps it by this name
    store_key,
    unit_store_key,
    types_from_record,
)

__all__ = ["PROTOCOL_VERSION", "CompilationDaemon", "ThreadedDaemon", "pin_allocator"]

#: bumped when the request/response schema changes incompatibly
PROTOCOL_VERSION = 1

#: maximum length of one request line (sources are inlined in requests)
MAX_LINE_BYTES = 16 * 1024 * 1024

#: artifact kinds a compile request may ask for via ``emit``
EMIT_KINDS = (*ARTIFACT_KINDS, "stats")

def pin_allocator() -> bool:
    """Fix glibc's malloc trim (256 MiB) and mmap (32 MiB) thresholds.

    Left dynamic, glibc may trim the event loop thread's arena after a
    memory hit and fault it back in on the next one, depending on the
    allocation history of earlier compiles.  ``serve`` and ``gateway`` call this first.
    Without a ``mallopt`` in the C library it does nothing and returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD is -3 in <malloc.h>.
    trimmed = mallopt(-1, 256 * 1024 * 1024)
    return mallopt(-3, 32 * 1024 * 1024) == 1 == trimmed


#: exception type -> protocol error code, most specific first
_ERROR_CODES = (
    (LexerError, "parse-error"),
    (ParseError, "parse-error"),
    (TypeError_, "type-error"),
    (CausalityError, "causality-error"),
    (ClockCalculusError, "clock-error"),
    (CodeGenerationError, "codegen-error"),
    (SimulationError, "simulation-error"),
    (ResourceLimitExceeded, "resource-limit"),
    (SignalError, "signal-error"),
    (BrokenProcessPool, "worker-crashed"),
)


def error_code(error: BaseException) -> str:
    """Map a toolchain exception to its protocol error code."""
    for exception_type, code in _ERROR_CODES:
        if isinstance(error, exception_type):
            return code
    return "internal-error"


def _error_response(code: str, message: str, op: Optional[str] = None) -> Dict[str, object]:
    response: Dict[str, object] = {"ok": False, "error": {"code": code, "message": message}}
    if op is not None:
        response["op"] = op
    return response


class _RequestError(Exception):
    """An invalid request field (reported as code ``invalid-request``)."""


def _field(request: Dict[str, object], name: str, expected_type: type, default):
    value = request.get(name, default)
    if expected_type is int:
        # bool is a subclass of int; a JSON true is not an acceptable count.
        if not isinstance(value, int) or isinstance(value, bool):
            raise _RequestError(f"field {name!r} must be an integer")
    elif not isinstance(value, expected_type):
        raise _RequestError(f"field {name!r} must be of type {expected_type.__name__}")
    return value


def _style_field(request: Dict[str, object]) -> GenerationStyle:
    style_name = _field(request, "style", str, GenerationStyle.HIERARCHICAL.value)
    try:
        return GenerationStyle(style_name)
    except ValueError:
        raise _RequestError(
            f"field 'style' must be one of {[s.value for s in GenerationStyle]}"
        ) from None


def _options(request: Dict[str, object]) -> Tuple[GenerationStyle, bool]:
    """The validated code-generation options of a ``compile`` or ``store-get``:
    ``(style, build_flat)``.  Every generated step takes ``observe=``, so the
    legacy ``observable`` field is accepted only as ``true``."""
    style = _style_field(request)
    build_flat = _field(request, "build_flat", bool, False)
    if _field(request, "observable", bool, True) is not True:
        raise _RequestError("field 'observable' must be true (every step is observable)")
    return style, build_flat


def _compile_arguments(request: Dict[str, object]) -> tuple:
    """Validate a ``compile`` request; returns its ``compile_record`` arguments."""
    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise _RequestError("field 'source' must be a non-empty string")
    style, build_flat = _options(request)
    modular = _field(request, "modular", bool, False)
    _field(request, "simulate", int, 0)
    _field(request, "seed", int, 0)
    emit = request.get("emit", [])
    if not isinstance(emit, list) or not all(isinstance(kind, str) for kind in emit):
        raise _RequestError("field 'emit' must be a list of artifact names")
    unknown = [kind for kind in emit if kind not in EMIT_KINDS]
    if unknown:
        raise _RequestError(f"unknown emit kind(s) {unknown}; expected {list(EMIT_KINDS)}")
    return source, style, build_flat, modular


def _compile_response(request: dict, record: dict, origin: str) -> Dict[str, object]:
    """The response to a validated ``compile`` answered by ``record``."""
    response: Dict[str, object] = {
        "ok": True,
        "op": "compile",
        "name": record["name"],
        "fingerprint": record["fingerprint"],
        "origin": origin,
        "statistics": record["statistics"],
    }
    if request.get("modular"):
        response["modular"] = True
    emit, simulate, seed = request.get("emit"), request.get("simulate", 0), request.get("seed", 0)
    if emit:
        artifacts = dict(record["artifacts"])
        artifacts["stats"] = record["statistics"]
        response["artifacts"] = {kind: artifacts[kind] for kind in emit}
    if simulate > 0:
        executable = executable_from_record(record)
        oracle = random_oracle(types_from_record(record), seed=seed)
        trace = ReactiveExecutor(executable).run(simulate, oracle)
        response["simulation"] = {
            "reactions": simulate,
            "seed": seed,
            "diagram": timing_diagram(trace.observations()),
        }
    return response


def _parse_line(line: Union[str, bytes]) -> Tuple[Optional[dict], Optional[dict]]:
    """``(request, None)`` for a JSON object line, else ``(None, error response)``."""
    try:
        request = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        return None, _error_response("invalid-json", f"request is not valid JSON: {error}")
    if not isinstance(request, dict):
        return None, _error_response("invalid-request", "request must be a JSON object")
    return request, None


class CompilationDaemon:
    """Engine and server of the compilation daemon.

    The engine half (:meth:`compile_record`, :meth:`handle_request`) is
    synchronous and usable without any socket -- tests and benchmarks drive
    it directly; the server half (:meth:`serve`, :meth:`run`) exposes it
    over asyncio TCP / unix-socket streams.
    """

    def __init__(
        self,
        service: Optional[CompilationService] = None,
        store: Optional[Union[CompileStore, str, os.PathLike]] = None,
        max_entries: int = 128,
        jobs: int = 1,
        request_log: Optional[Union[str, os.PathLike, IO[str]]] = None,
        store_max_bytes: Optional[int] = None,
        drain_timeout: float = 30.0,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if store is not None and not isinstance(store, CompileStore):
            store = CompileStore(store)
        self.store: Optional[CompileStore] = store
        # A self-created service shares the daemon's store (an injected
        # service keeps whatever store its owner configured).
        self.service = service if service is not None else CompilationService(
            max_entries=max_entries, store=store
        )
        self._jobs = jobs
        self._store_max_bytes = store_max_bytes
        self.drain_timeout = drain_timeout
        self._records: LRUCache[Dict[str, object]] = LRUCache(max_entries)
        self._digests: LRUCache[str] = LRUCache(max(max_entries * 4, 16))
        self._lock = threading.RLock()
        self._requests = 0
        self._compile_requests = 0
        self._memory_hits = 0
        self._store_hits = 0
        self._compiles = 0
        self._errors = 0
        self._store_put_failures = 0
        self._store_pruned_entries = 0
        # Request log (opened lazily; "-" = stdout, streams used as-is).
        self._request_log_target = request_log
        self._request_log: Optional[IO[str]] = None
        self._request_log_owned = False
        self._log_lock = threading.Lock()
        # Server state (populated by serve()).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._drain_requested = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self.address: Optional[Union[str, Tuple[str, int]]] = None

    # -- engine --------------------------------------------------------------
    def compile_record(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        modular: bool = False,
    ) -> Tuple[Dict[str, object], str]:
        """Compile (or fetch) the artifact record for one source.

        Returns ``(record, origin)`` where origin is ``"memory"``,
        ``"store"`` or ``"compiled"``.

        ``modular`` changes only how a *miss* compiles: unit-by-unit
        against the service's unit cache and the daemon's store (which
        gains per-unit records any fleet member can ``store-get``).  The
        record tiers stay keyed by the whole-program fingerprint -- a
        monolithic record answers a modular request for the same program
        and vice versa.  The two records are trace-equivalent, not
        byte-identical (a linked program numbers its clock flags per
        unit), so which bytes a program is served depends on which kind
        of request missed first.  A miss renders its record from the step
        IR; nothing here byte-compiles the Python it serves.

        Thread-safe without a global compile lock: the record/digest LRUs
        and the store synchronize themselves, so ``jobs`` worker threads
        (and the event loop, for memory hits) probe the tiers and compile
        misses concurrently.  Two threads racing on the *same* key may both
        compile and both publish -- wasteful but harmless, because
        compilation is deterministic and every tier is last-writer-wins.
        """
        with self._lock:
            self._compile_requests += 1
        digest = source_digest(source)
        key, record = self._memory_tier(digest, style, build_flat)
        process = None
        program = None
        if key is None:
            process = parse_process(source)
            program = normalize(process)
            self._digests.put(digest, program.fingerprint())
            key, record = self._memory_tier(digest, style, build_flat)
        if record is not None:
            return record, "memory"

        if self.store is not None:
            record = self.store.get(key)
            if record is not None:
                with self._lock:
                    self._store_hits += 1
                self._records.put(key, record)
                return record, "store"

        record = self.service.compile_record(
            source,
            style=style,
            build_flat=build_flat,
            process=process,
            program=program,
            modular=modular,
            store=self.store,  # None falls back to the service's own
            jobs=self._jobs,
        )
        self._records.put(key, record)
        if self.store is not None:
            # Best-effort spill: the compile succeeded and the record is
            # served from memory either way; a full disk must not turn a
            # good compilation into an error response.
            try:
                self.store.put(key, record)
            except OSError:
                with self._lock:
                    self._store_put_failures += 1
            else:
                self._enforce_store_budget()
        with self._lock:
            self._compiles += 1
        return record, "compiled"

    def _memory_tier(
        self, digest: str, style: GenerationStyle, build_flat: bool
    ) -> Tuple[Optional[tuple], Optional[dict]]:
        """Tier 1: ``(key, record)``, ``record`` None on a miss.

        ``key`` is None when the digest memo does not know the source.  Never
        parses, compiles or reads the store, so the event loop may call it.
        """
        # The digest memo lets repeat traffic reach the record tiers
        # without parsing; it must live here (not only in the service)
        # because a memory/store hit never enters the service at all.
        fingerprint = self._digests.get(digest)
        if fingerprint is None:
            return None, None
        key = store_key(fingerprint, style, build_flat)
        record = self._records.get(key)
        if record is not None:
            with self._lock:
                self._memory_hits += 1
            if self.store is not None:
                # Keep the disk entry's recency honest: without this, hot
                # records served from memory would look cold to prune().
                self.store.touch(key)
        return key, record

    def _enforce_store_budget(self) -> None:
        """Apply the ``--store-max-bytes`` policy after a successful spill."""
        if self._store_max_bytes is None or self.store is None:
            return
        try:
            report = self.store.enforce_budget(self._store_max_bytes)
        except OSError:  # pragma: no cover - scan raced a concurrent wipe
            return
        if report is not None and report["removed"]:
            with self._lock:
                self._store_pruned_entries += report["removed"]

    def statistics(self) -> Dict[str, object]:
        """The three-tier cache counters plus the wrapped layers' stats."""
        with self._lock:
            daemon = {
                "protocol": PROTOCOL_VERSION,
                "workers": "processes" if self._jobs > 1 else "threads",
                "jobs": self._jobs,
                "requests": self._requests,
                "compile_requests": self._compile_requests,
                "memory_hits": self._memory_hits,
                "store_hits": self._store_hits,
                "compiles": self._compiles,
                "errors": self._errors,
                "store_put_failures": self._store_put_failures,
                "store_max_bytes": self._store_max_bytes or 0,
                "store_pruned_entries": self._store_pruned_entries,
                "record_entries": len(self._records),
            }
        return {
            "daemon": daemon,
            "service": self.service.statistics(),
            "store": self.store.statistics() if self.store is not None else None,
        }

    def clear_caches(self, include_store: bool = False) -> None:
        with self._lock:
            self._records.clear()
            self._digests.clear()
            self.service.clear_cache()
            if include_store and self.store is not None:
                self.store.clear()

    # -- request logging -----------------------------------------------------
    def _log_stream(self) -> Optional[IO[str]]:
        if self._request_log_target is None:
            return None
        # The lazy open must happen under the log lock: with jobs > 1 two
        # request threads can race the first log line, and the loser's file
        # descriptor would leak.
        with self._log_lock:
            if self._request_log is None:
                target = self._request_log_target
                if target == "-":
                    self._request_log = sys.stdout
                elif hasattr(target, "write"):
                    self._request_log = target  # caller-owned stream, never closed
                else:
                    self._request_log = open(target, "a", encoding="utf-8")
                    self._request_log_owned = True
            return self._request_log

    def _log_request(
        self, op: Optional[object], response: Dict[str, object], elapsed: float
    ) -> None:
        """Append one JSON line per handled request (opt-in, best-effort).

        The log is an operability aid, not an audit trail: a full disk or a
        closed stream silently drops lines rather than failing requests.
        Sources are deliberately not logged (they can be megabytes); the
        origin tier and duration are what operators page through.
        """
        stream = self._log_stream()
        if stream is None:
            return
        entry: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "op": op if isinstance(op, str) else None,
            "ok": bool(response.get("ok")),
            "elapsed_ms": round(elapsed * 1000.0, 3),
        }
        if "origin" in response:
            entry["origin"] = response["origin"]
        error = response.get("error")
        if isinstance(error, dict):
            entry["code"] = error.get("code")
        with self._log_lock:
            try:
                stream.write(json.dumps(entry) + "\n")
                stream.flush()
            except (OSError, ValueError):  # pragma: no cover - log must not kill requests
                pass

    def close_request_log(self) -> None:
        """Close a log file the daemon opened itself (idempotent)."""
        if self._request_log_owned and self._request_log is not None:
            with contextlib.suppress(OSError):
                self._request_log.close()
        self._request_log = None
        self._request_log_owned = False

    # -- request dispatch ----------------------------------------------------
    def handle_line(self, line: Union[str, bytes]) -> Dict[str, object]:
        """Parse one protocol line and dispatch it; never raises."""
        return self._handle_parsed(*_parse_line(line))

    def _handle_parsed(self, request: Optional[dict], refusal: Optional[dict]) -> dict:
        """Answer one parsed line: ``request``, or the ``refusal`` its parse gave."""
        with self._lock:
            self._requests += 1
        if refusal is None:
            return self.handle_request(request)
        self._log_request(None, self._count_error(refusal), 0.0)
        return refusal

    def handle_request(self, request: Dict[str, object]) -> Dict[str, object]:
        started = time.perf_counter()
        op = request.get("op")
        response = self._guard(op, self._dispatch_op, op, request)
        self._log_request(op, response, time.perf_counter() - started)
        return response

    def _answer_from_memory(self, request: Dict[str, object]) -> Optional[Dict[str, object]]:
        """The event loop's answer to a memory-tier ``compile`` hit, else None.

        Counts, responds and logs like a worker.  Leaves ``simulate``, and any
        subclass that replaces ``_handle_compile`` (the gateway forwards), to
        the workers.
        """
        if request.get("op") != "compile" or request.get("simulate") or (
            type(self)._handle_compile is not CompilationDaemon._handle_compile
        ):
            return None
        started = time.perf_counter()
        try:
            source, style, build_flat, _ = _compile_arguments(request)
            digest = source_digest(source)
        except (_RequestError, UnicodeError):  # the pool answers the error
            return None
        _, record = self._memory_tier(digest, style, build_flat)
        if record is None:
            return None
        with self._lock:
            self._requests += 1
            self._compile_requests += 1
        response = self._guard("compile", _compile_response, request, record, "memory")
        self._log_request("compile", response, time.perf_counter() - started)
        return response

    def _guard(self, op: object, handler: Callable[..., dict], *args) -> Dict[str, object]:
        """``handler(*args)``, with every exception turned into an error response."""
        try:
            return handler(*args)
        except _RequestError as error:
            return self._count_error(_error_response("invalid-request", str(error), op))
        except SignalError as error:
            return self._count_error(_error_response(error_code(error), str(error), op))
        except Exception as error:  # noqa: BLE001 - the daemon must survive anything
            return self._count_error(
                _error_response(error_code(error), f"{type(error).__name__}: {error}", op)
            )

    def _dispatch_op(self, op: object, request: Dict[str, object]) -> Dict[str, object]:
        """Route one validated request object by ``op``.

        Subclasses (the gateway) override this to reinterpret or add ops
        and fall through to ``super()`` for the rest; the exception ladder
        in :meth:`_guard` stays in force either way.
        """
        if op == "compile":
            return self._handle_compile(request)
        if op == "stats":
            return {"ok": True, "op": "stats", **self.statistics()}
        if op == "ping":
            return {"ok": True, "op": "ping", "protocol": PROTOCOL_VERSION}
        if op == "clear-cache":
            include_store = _field(request, "store", bool, False)
            self.clear_caches(include_store=include_store)
            return {"ok": True, "op": "clear-cache", "store": include_store}
        if op == "prune":
            return self._handle_prune(request)
        if op == "store-get":
            return self._handle_store_get(request)
        if op == "store-put":
            return self._handle_store_put(request)
        if op == "shutdown":
            drain = _field(request, "drain", bool, False)
            return {"ok": True, "op": "shutdown", "drain": drain}
        return self._count_error(
            _error_response(
                "invalid-request",
                f"unknown op {op!r} (expected compile/stats/ping/clear-cache/"
                "prune/store-get/store-put/shutdown)",
            )
        )

    def _store_request_key(self, request: Dict[str, object]):
        """Build the cache key a ``store-get`` request names.

        ``kind: "unit"`` addresses a per-unit artifact record by its unit
        fingerprint (modular compilation); the default kind ``"program"``
        addresses a whole-program record by kernel fingerprint and options,
        whether a monolithic or a modular compile wrote it.
        """
        fingerprint = request.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise _RequestError("field 'fingerprint' must be a non-empty string")
        kind = _field(request, "kind", str, "program")
        if kind == "unit":
            return unit_store_key(fingerprint)
        if kind != "program":
            raise _RequestError("field 'kind' must be 'program' or 'unit'")
        return store_key(fingerprint, *_options(request))

    def _handle_store_get(self, request: Dict[str, object]) -> Dict[str, object]:
        """The ``store-get`` op: read the artifact tier without compiling.

        Probes memory then disk (promoting a disk hit into memory, like a
        compile would).  A miss is a successful response with
        ``found: false`` -- the caller decides whether to compile.
        """
        key = self._store_request_key(request)
        record = self._records.get(key)
        origin = "memory"
        if record is None and self.store is not None:
            record = self.store.get(key)
            if record is not None:
                origin = "store"
                self._records.put(key, record)
        if record is None:
            return {"ok": True, "op": "store-get", "found": False}
        return {"ok": True, "op": "store-get", "found": True, "origin": origin,
                "record": record}

    def _handle_store_put(self, request: Dict[str, object]) -> Dict[str, object]:
        """The ``store-put`` op: inject an artifact record into the tiers.

        The record self-describes its key (fingerprint + options), so a
        node that compiled elsewhere -- another daemon, a batch run -- can
        warm this one.  The memory tier always takes the record; the disk
        write is best-effort like a compile's spill.  ``stored`` reports
        whether the record reached disk.
        """
        record = request.get("record")
        try:
            key = key_from_record(record)
        except ValueError as error:
            raise _RequestError(f"field 'record' is not a valid artifact record: {error}")
        self._records.put(key, record)
        stored = False
        if self.store is not None:
            try:
                self.store.put(key, record)
            except OSError:
                with self._lock:
                    self._store_put_failures += 1
            else:
                stored = True
                self._enforce_store_budget()
        return {"ok": True, "op": "store-put", "stored": stored}

    def _handle_prune(self, request: Dict[str, object]) -> Dict[str, object]:
        """The ``prune`` op: shrink the disk store to a byte budget."""
        if self.store is None:
            raise _RequestError(
                "no compile store configured (start the daemon with --store)"
            )
        max_bytes = request.get("max_bytes", self._store_max_bytes)
        if max_bytes is None:
            raise _RequestError(
                "field 'max_bytes' is required (no --store-max-bytes policy is set)"
            )
        if not isinstance(max_bytes, int) or isinstance(max_bytes, bool) or max_bytes < 0:
            raise _RequestError("field 'max_bytes' must be a non-negative integer")
        report = self.store.prune(max_bytes)
        if report["removed"]:
            with self._lock:
                self._store_pruned_entries += report["removed"]
        return {"ok": True, "op": "prune", "max_bytes": max_bytes, **report}

    def _count_error(self, response: Dict[str, object]) -> Dict[str, object]:
        with self._lock:
            self._errors += 1
        return response

    def _handle_compile(self, request: Dict[str, object]) -> Dict[str, object]:
        record, origin = self.compile_record(*_compile_arguments(request))
        return _compile_response(request, record, origin)

    # -- asyncio server ------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    response = _error_response(
                        "invalid-request", f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
                    writer.write((json.dumps(response) + "\n").encode("utf-8"))
                    await writer.drain()
                    break
                if not line:
                    break
                # Once a drain is requested, established connections stop
                # accepting new work too (the listener is already closed);
                # a chatty pipelining client must not extend the shutdown,
                # and a line read after the idle check must not start a
                # compile that gets cancelled unanswered.  This check and
                # the increment below run in one event-loop step (no await
                # between them), so the drain logic in serve() observes
                # either the refusal or the in-flight request, never a gap.
                if self._drain_requested:
                    break
                # The in-flight window covers the response write as well as
                # the compile, so a graceful drain never cancels a request
                # whose answer has not reached the client yet.
                self._inflight += 1
                if self._idle is not None:
                    self._idle.clear()
                try:
                    # A memory hit is answered right here, so it never queues
                    # behind a compile; everything else goes to a worker.
                    request, refusal = _parse_line(line)
                    response = None if request is None else self._answer_from_memory(request)
                    if response is None:
                        response = await loop.run_in_executor(
                            self._pool, self._handle_parsed, request, refusal
                        )
                    writer.write((json.dumps(response) + "\n").encode("utf-8"))
                    await writer.drain()
                finally:
                    self._inflight -= 1
                    if self._inflight == 0 and self._idle is not None:
                        self._idle.set()
                if response.get("ok") and response.get("op") == "shutdown":
                    self.request_shutdown(drain=bool(response.get("drain")))
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client died
            pass
        except asyncio.CancelledError:
            # Server shutting down mid-read: end the task cleanly so the
            # teardown is quiet; the client sees the connection close.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        on_ready: Optional[Callable[[], None]] = None,
    ) -> None:
        """Serve until :meth:`request_shutdown` (or task cancellation).

        Binds a unix domain socket when ``socket_path`` is given, a TCP
        socket on ``host``/``port`` otherwise (``port=0`` picks a free
        port).  The bound address is published on ``self.address`` -- and
        ``on_ready`` (if any) is called -- before the first connection is
        accepted.  ``SIGTERM`` (where the platform and thread allow
        installing a handler) requests a graceful drain-then-exit.
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._inflight = 0
        self._drain_requested = False
        self._connections = set()
        # `jobs` request workers; with one worker compilations serialize
        # exactly like the historical daemon, and memory hits skip them.
        self._pool = ThreadPoolExecutor(
            max_workers=self._jobs, thread_name_prefix="repro-daemon"
        )
        sigterm_installed = False
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            # Fails on non-unix loops or when the loop does not run in the
            # main thread (e.g. ThreadedDaemon); supervisors only ever
            # SIGTERM real `python -m repro serve` processes, which do run
            # the loop in the main thread.
            self._loop.add_signal_handler(
                signal.SIGTERM, self.request_shutdown, True
            )
            sigterm_installed = True
        bound_socket_path = None  # only unlink a socket *this* process bound
        try:
            if socket_path is not None:
                # asyncio's start_unix_server silently unlinks an existing
                # socket file -- even one with a live listener -- so probe
                # first: a second daemon must fail loudly, not hijack the
                # path out from under the first.
                self._ensure_socket_path_free(socket_path)
                server = await asyncio.start_unix_server(
                    self._handle_connection, path=socket_path, limit=MAX_LINE_BYTES
                )
                bound_socket_path = socket_path
                self.address = socket_path
            else:
                server = await asyncio.start_server(
                    self._handle_connection, host, port, limit=MAX_LINE_BYTES
                )
                bound = server.sockets[0].getsockname()
                self.address = (bound[0], bound[1])
            self._ready.set()
            if on_ready is not None:
                on_ready()
            async with server:
                await self._shutdown.wait()
            # Graceful drain (SIGTERM / shutdown {"drain": true}): the
            # listening socket is closed, so no new work arrives; wait for
            # every in-flight request to finish and flush its response.
            if self._drain_requested and self._inflight > 0:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout)
            # Drain open connections before tearing the loop down, so their
            # tasks end cleanly instead of being killed by asyncio.run().
            for connection in list(self._connections):
                connection.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
        finally:
            if sigterm_installed:
                with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                    self._loop.remove_signal_handler(signal.SIGTERM)
            # cancel_futures drops requests still queued behind a running
            # one; wait=True lets the running request handler finish before
            # the service below is closed.  Both matter: a handler that ran
            # after close() would silently resurrect the worker-process
            # pool as an orphan.  (A pathologically hung compile would make
            # this wait block -- but its non-daemon executor thread would
            # block interpreter exit regardless.)
            self._pool.shutdown(wait=True, cancel_futures=True)
            if self._jobs > 1:
                # The daemon started the service's worker-process pool; a
                # clean exit must not leave orphan workers behind.  close()
                # is recoverable, so an injected service stays usable.
                self.service.close()
            self.close_request_log()
            if bound_socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(bound_socket_path)

    @staticmethod
    def _ensure_socket_path_free(socket_path: str) -> None:
        """Refuse to bind over a live daemon's unix socket.

        A leftover socket from a crashed daemon (nothing listening) is fine
        -- asyncio removes it and rebinds; a path with a live listener
        raises ``EADDRINUSE``; a non-socket file raises ``EEXIST`` rather
        than being deleted.
        """
        try:
            mode = os.stat(socket_path).st_mode
        except (FileNotFoundError, OSError):
            return
        if not stat.S_ISSOCK(mode):
            raise OSError(
                errno.EEXIST, f"{socket_path!r} exists and is not a socket"
            )
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(socket_path)
        except OSError:
            return  # stale socket: nobody answered, safe to rebind
        finally:
            probe.close()
        raise OSError(
            errno.EADDRINUSE,
            f"another daemon is already listening on {socket_path!r}",
        )

    def request_shutdown(self, drain: bool = False) -> None:
        """Ask a running server to stop (safe from any thread; idempotent).

        With ``drain=True`` (what ``SIGTERM`` requests) the server finishes
        and answers every in-flight request -- waiting up to
        ``drain_timeout`` seconds -- before closing connections; without it
        the stop is prompt and in-flight work is abandoned.
        """
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            if drain:
                self._drain_requested = True
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(shutdown.set)

    def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        on_ready: Optional[Callable[[], None]] = None,
    ) -> None:
        """Blocking entry point used by ``python -m repro serve``."""
        try:
            asyncio.run(
                self.serve(
                    host=host, port=port, socket_path=socket_path, on_ready=on_ready
                )
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass


class ThreadedDaemon:
    """Run a :class:`CompilationDaemon` on a background thread.

    Context-manager convenience for tests, benchmarks and applications that
    want an in-process daemon::

        with ThreadedDaemon(store="cache-dir") as daemon:
            client = RemoteCompiler(*daemon.address)

    ``daemon.address`` is the bound ``(host, port)`` tuple (or the socket
    path).  Exiting the context shuts the server down and joins the thread.
    """

    def __init__(
        self,
        daemon: Optional[CompilationDaemon] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        **daemon_options,
    ):
        self.daemon = daemon if daemon is not None else CompilationDaemon(**daemon_options)
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self):
        return self.daemon.address

    def start(self, timeout: float = 10.0) -> "ThreadedDaemon":
        if self._thread is not None:
            raise RuntimeError("daemon thread already started")
        self.daemon._ready.clear()
        self._error: Optional[BaseException] = None

        def target() -> None:
            try:
                self.daemon.run(
                    host=self._host, port=self._port, socket_path=self._socket_path
                )
            except BaseException as error:  # surfaced to start()'s caller
                self._error = error

        self._thread = threading.Thread(
            target=target, name="repro-daemon-server", daemon=True
        )
        self._thread.start()
        deadline = timeout
        while deadline > 0:
            if self.daemon._ready.wait(min(0.05, deadline)):
                return self
            deadline -= 0.05
            if not self._thread.is_alive():
                break
        self._thread = None
        if self._error is not None:
            raise RuntimeError(f"daemon failed to start: {self._error}") from self._error
        raise RuntimeError("daemon did not come up within the timeout")

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self.daemon.request_shutdown()
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ThreadedDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
