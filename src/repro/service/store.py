"""Disk-backed persistence of compile-cache entries (the *artifact store*).

The store gives the compilation daemon a warm start: every compilation is
serialized to a JSON *artifact record* keyed by the same identity as the
in-memory compile cache -- the normalized kernel fingerprint plus the
code-generation options -- so a restarted daemon answers repeat compiles
from disk without re-running the pipeline.

What persists and what does not
-------------------------------

A full :class:`~repro.compiler.CompilationResult` cannot round-trip through
JSON: the clock hierarchy, dependency graph and schedule hold BDD handles
bound to the live manager of the process that compiled them.  The record
therefore captures the *rendered* artifacts -- generated Python and C
sources, the clock tree and clock system as text, the kernel form, the size
statistics -- plus exactly enough metadata (inputs, outputs, root flags,
signal types, the generated step source) to rebuild a runnable
:class:`~repro.codegen.python_backend.CompiledProcess` via
:func:`executable_from_record`.  That covers everything the daemon protocol
can answer (``--emit`` artifacts and simulation); callers that need the
analysis objects themselves recompile.

Records are versioned (:data:`STORE_FORMAT`); entries written by an
incompatible version, truncated by a crash, or otherwise corrupt are
treated as misses and deleted, never trusted.  Writes go through a
temporary file and ``os.replace`` so concurrent readers see either the old
or the new record, never a partial one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..codegen.ir import GenerationStyle
from ..codegen.python_backend import CompiledProcess
from ..lang.types import SignalType

if TYPE_CHECKING:  # avoid a circular import at runtime
    from ..compiler import CompilationResult

__all__ = [
    "STORE_FORMAT",
    "UNIT_STYLE",
    "CompileStore",
    "store_key",
    "unit_store_key",
    "key_from_record",
    "record_from_result",
    "executable_from_record",
    "types_from_record",
]

#: version tag of the on-disk record layout; bump on incompatible changes
#: (2: added the ``c_shared`` artifact -- the reentrant columnar C source
#: that the mass-simulation runtime builds with ``cc -shared``;
#: 3: records self-describe their ``kind`` -- whole-program artifact
#: records (``"program"``) now coexist with per-unit artifact records
#: (``"unit"``, modular compilation).  Format-1/2 entries found in a store
#: directory are quarantined on read: reported as misses, counted in
#: ``invalid`` and unlinked, never parsed for artifacts.)
#: A whole program has one record kind, ``"program"``, whether a monolithic
#: or a modular compile wrote it.  ``"linked"`` files left by older format-3
#: code are never addressed again and age out through :meth:`CompileStore.prune`.
STORE_FORMAT = 3

#: the pseudo-style under which per-unit artifact records are keyed; unit
#: records are style-independent (they carry the IR of *both* generation
#: styles), so the style slot of the key is this constant instead
UNIT_STYLE = "unit"

#: store key: (kernel fingerprint, style value, build_flat, observable)
StoreKey = Tuple[str, str, bool, bool]


def store_key(
    fingerprint: str,
    style: GenerationStyle,
    build_flat: bool = False,
    observable: bool = True,
) -> StoreKey:
    """The persistent identity of one compile-cache entry.

    Mirrors the in-memory LRU key of the service: the kernel fingerprint
    normalizes away surface-text differences, the remaining fields are the
    code-generation options that change the produced artifacts.
    """
    return (fingerprint, style.value, bool(build_flat), bool(observable))


def unit_store_key(fingerprint: str) -> StoreKey:
    """The persistent identity of one per-unit artifact record.

    Unit records are keyed by the unit fingerprint alone: they carry both
    generation styles and are always observable-neutral, so the remaining
    key slots are fixed.  The ``UNIT_STYLE`` marker keeps unit and
    whole-program entries in disjoint key spaces even though they share a
    store directory (unit fingerprints are additionally versioned, see
    :data:`repro.lang.units.UNIT_FINGERPRINT_VERSION`).
    """
    return (fingerprint, UNIT_STYLE, False, True)


def _executable_record(executable: CompiledProcess) -> Dict[str, object]:
    return {
        "source": executable.source,
        "name": executable.name,
        "style": executable.style.value,
        "inputs": list(executable.inputs),
        "outputs": list(executable.outputs),
        "root_flags": [list(flag) for flag in executable.root_flags],
        "observable": executable.observable,
    }


def record_from_result(
    result: "CompilationResult",
    style: GenerationStyle,
    build_flat: bool = False,
    observable: bool = True,
) -> Dict[str, object]:
    """Serialize a compilation result into a JSON-safe artifact record."""
    record: Dict[str, object] = {
        "format": STORE_FORMAT,
        "kind": "program",
        "fingerprint": result.program.fingerprint(),
        "style": style.value,
        "build_flat": bool(build_flat),
        "observable": bool(observable),
        "name": result.name,
        "statistics": result.statistics(),
        "types": {name: type_.value for name, type_ in result.types.items()},
        "artifacts": {
            "tree": result.tree_text(),
            "clocks": str(result.clock_system),
            "kernel": str(result.program),
            "python": result.python_source(style),
            "c": result.c_source(style),
            "c_shared": result.c_shared_source(style),
        },
        "executable": _executable_record(result.executable),
        "executable_flat": (
            _executable_record(result.executable_flat)
            if result.executable_flat is not None
            else None
        ),
    }
    return record


def key_from_record(record: Dict[str, object]) -> StoreKey:
    """The store key a self-describing record belongs under.

    Validates the identity fields a record must carry (the ``store-put``
    protocol op and cross-node record transfer rely on this): a record of
    another format version, or one missing its fingerprint/style, raises
    ``ValueError`` rather than being filed under a made-up key.
    """
    if not isinstance(record, dict):
        raise ValueError("artifact record must be a JSON object")
    if record.get("format") != STORE_FORMAT:
        raise ValueError(
            f"record format {record.get('format')!r} is not the supported "
            f"format {STORE_FORMAT}"
        )
    fingerprint = record.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise ValueError("record carries no kernel fingerprint")
    kind = record.get("kind", "program")
    if kind == "unit":
        if record.get("style") != UNIT_STYLE:
            raise ValueError(
                f"unit record carries style {record.get('style')!r} instead of {UNIT_STYLE!r}"
            )
        return unit_store_key(fingerprint)
    if kind != "program":
        raise ValueError(f"record carries unknown kind {kind!r}")
    try:
        style = GenerationStyle(record.get("style"))
    except ValueError:
        raise ValueError(f"record carries unknown style {record.get('style')!r}") from None
    return store_key(
        fingerprint,
        style,
        bool(record.get("build_flat", False)),
        bool(record.get("observable", True)),
    )


def types_from_record(record: Dict[str, object]) -> Dict[str, SignalType]:
    """The signal-type map of a record (needed by input oracles)."""
    return {name: SignalType(value) for name, value in record["types"].items()}


def executable_from_record(
    record: Dict[str, object], flat: bool = False
) -> CompiledProcess:
    """Rebuild a runnable step from a persisted record.

    The generated step source is re-executed; delay registers start from
    their initial values, exactly like a fresh compile (and like the
    fresh-instance copy a memory cache hit hands out).
    """
    entry = record["executable_flat"] if flat else record["executable"]
    if entry is None:
        raise ValueError("record has no flat executable (compiled without build_flat)")
    return CompiledProcess.from_generated_source(
        source=entry["source"],
        name=entry["name"],
        style=GenerationStyle(entry["style"]),
        inputs=entry["inputs"],
        outputs=entry["outputs"],
        root_flags=[tuple(flag) for flag in entry["root_flags"]],
        types=types_from_record(record),
        observable=entry["observable"],
    )


class CompileStore:
    """A directory of artifact records, one JSON file per cache entry.

    The store is deliberately dumb: no index file, no locking protocol.
    Each entry lives at ``<dir>/<sha256(key)>.json`` and is self-describing
    (the record repeats its key fields), so the directory can be rebuilt,
    pruned or rsynced with ordinary tools, and concurrent daemons sharing a
    directory at worst rewrite identical records.
    """

    SUFFIX = ".json"

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: entries dropped because they were corrupt or from another format
        self.invalid = 0
        #: entries evicted by :meth:`prune` (oldest-recency first)
        self.pruned = 0
        #: (monotonic timestamp, entries, disk_bytes) of the last directory scan
        self._scan_cache: Optional[Tuple[float, int, int]] = None

    # -- paths ---------------------------------------------------------------
    def _entry_path(self, key: StoreKey) -> Path:
        digest = hashlib.sha256(json.dumps(list(key)).encode("utf-8")).hexdigest()
        return self.path / f"{digest}{self.SUFFIX}"

    def _entries(self):
        """Committed entry files only -- in-flight ``.tmp-*`` files (which a
        concurrent writer is about to ``os.replace``) are never touched."""
        for entry in self.path.iterdir():
            if entry.suffix == self.SUFFIX and not entry.name.startswith(".tmp-"):
                yield entry

    # -- access --------------------------------------------------------------
    def get(self, key: StoreKey) -> Optional[Dict[str, object]]:
        """The record stored under ``key``, or ``None``.

        Truncated, version-incompatible or key-mismatched entries are
        deleted and reported as misses: a warm start must never trust a
        record the current code did not (transitively) write.  Transient
        read failures (EMFILE, EACCES, ...) are plain misses -- a good
        entry is never destroyed because of a momentary resource error.
        """
        entry_path = self._entry_path(key)
        try:
            with open(entry_path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            # The record self-describes its full key; every field must
            # match, or a mis-placed file (bad rebuild/rsync of the
            # directory) would serve artifacts for the wrong options.
            if (
                not isinstance(record, dict)
                or record.get("format") != STORE_FORMAT
                or record.get("fingerprint") != key[0]
                or record.get("style") != key[1]
                or record.get("build_flat") != key[2]
                or record.get("observable") != key[3]
            ):
                raise ValueError("record does not match its key or format")
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:  # pragma: no cover - transient read failure
            with self._lock:
                self.misses += 1
            return None
        except ValueError:
            with self._lock:
                self.misses += 1
                self.invalid += 1
            try:
                entry_path.unlink()
            except OSError:  # pragma: no cover - already gone / unwritable dir
                pass
            return None
        with self._lock:
            self.hits += 1
        # Refresh the entry's recency so :meth:`prune` evicts in true
        # least-recently-used order, not write order.  Best-effort: a
        # read-only directory degrades pruning to write order, nothing else.
        with contextlib.suppress(OSError):
            os.utime(entry_path, None)
        return record

    def touch(self, key: StoreKey) -> None:
        """Refresh a key's recency without reading its record (best-effort).

        The daemon calls this on *memory-tier* hits: a hot record served
        from memory for hours never reaches :meth:`get`, and without the
        touch its disk mtime would go stale and :meth:`prune` would evict
        the hottest entries first -- the opposite of LRU.
        """
        with contextlib.suppress(OSError):
            os.utime(self._entry_path(key), None)

    def put(self, key: StoreKey, record: Dict[str, object]) -> None:
        """Atomically write ``record`` under ``key`` (last writer wins)."""
        entry_path = self._entry_path(key)
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(self.path), prefix=".tmp-", suffix=self.SUFFIX
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(temp_name, entry_path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self.writes += 1
            self._scan_cache = None  # the next statistics() must see this entry

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        """Delete every committed entry (counters are kept)."""
        for entry in self._entries():
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                pass
        with self._lock:
            self._scan_cache = None

    # -- pruning -------------------------------------------------------------
    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict entries, least recently used first, down to ``max_bytes``.

        Recency is the file mtime: :meth:`put` stamps it, :meth:`get`
        refreshes it on every hit, and upper cache tiers :meth:`touch`
        entries they answer from memory, so eviction is LRU over real
        traffic (not write order).
        The quarantine path is unaffected -- a corrupt entry that
        :meth:`get` has not met yet is ordinary prunable bytes (it counts
        toward the budget and is evicted in mtime order like any other
        file), while one already quarantined is gone before prune looks.
        In-flight ``.tmp-*`` writer files are never touched.

        Returns ``{"removed", "removed_bytes", "remaining_entries",
        "remaining_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = []
        total_bytes = 0
        for entry in self._entries():
            try:
                entry_stat = entry.stat()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            entries.append((entry_stat.st_mtime, entry_stat.st_size, entry))
            total_bytes += entry_stat.st_size
        removed = 0
        removed_bytes = 0
        for _, size, entry in sorted(entries, key=lambda item: (item[0], item[2].name)):
            if total_bytes <= max_bytes:
                break
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            total_bytes -= size
            removed += 1
            removed_bytes += size
        with self._lock:
            self.pruned += removed
            self._scan_cache = None
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "remaining_entries": len(entries) - removed,
            "remaining_bytes": total_bytes,
        }

    def enforce_budget(self, max_bytes: int) -> Optional[Dict[str, int]]:
        """Prune only when a size scan says the budget is exceeded.

        The per-write policy hook of the daemon's ``--store-max-bytes``: a
        write invalidates the scan TTL cache, so enforcement after a spill
        performs one directory scan (O(entries) ``stat`` calls) and prunes
        only on a genuine overshoot.  Returns the prune report, or ``None``
        when the store was already within budget.
        """
        _, disk_bytes = self._scan()
        if disk_bytes <= max_bytes:
            return None
        return self.prune(max_bytes)

    #: how long a directory scan stays fresh for :meth:`statistics`
    SCAN_TTL_SECONDS = 1.0

    def _scan(self) -> Tuple[int, int]:
        """``(entries, disk_bytes)``, cached briefly.

        The daemon answers ``stats`` requests on the same worker thread
        that compiles; a monitoring client polling a store with thousands
        of entries must not stall compile traffic behind O(entries)
        directory scans, so consecutive calls within the TTL reuse the
        last scan.
        """
        with self._lock:
            cached = self._scan_cache
        now = time.monotonic()
        if cached is not None and now - cached[0] < self.SCAN_TTL_SECONDS:
            return cached[1], cached[2]
        entries = 0
        disk_bytes = 0
        for entry in self._entries():
            entries += 1
            try:
                disk_bytes += entry.stat().st_size
            except OSError:  # pragma: no cover - concurrent removal
                pass
        with self._lock:
            self._scan_cache = (now, entries, disk_bytes)
        return entries, disk_bytes

    def statistics(self) -> Dict[str, int]:
        entries, disk_bytes = self._scan()
        with self._lock:
            return {
                "entries": entries,
                "disk_bytes": disk_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "invalid": self.invalid,
                "pruned": self.pruned,
            }
