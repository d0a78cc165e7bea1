"""Compilation-as-a-service layer: caching, daemon, persistence, federation.

* :mod:`repro.service.cache` -- a thread-safe LRU plus the fingerprint
  helpers used to key compilation results;
* :mod:`repro.service.service` -- :class:`CompilationService`, the
  long-lived front end that memoizes whole compilation results and unit
  records (every miss compiles on its own fresh BDD manager), and fans
  batches of sources out to worker processes;
* :mod:`repro.service.store` -- :class:`CompileStore`, disk persistence of
  rendered artifact records keyed by kernel fingerprint, so a restarted
  daemon begins warm;
* :mod:`repro.service.daemon` -- :class:`CompilationDaemon`, the asyncio
  JSON-line server (``python -m repro serve``) that lets many OS processes
  share one service, plus :class:`ThreadedDaemon` for in-process embedding;
* :mod:`repro.service.client` -- :class:`RemoteCompiler`, the blocking
  client library behind ``python -m repro remote-compile``;
* :mod:`repro.service.federation` -- :class:`CompileGateway`, the
  consistent-hash routing front-end (``python -m repro gateway``) that
  spreads compiles over a fleet of daemons with health checks, failover
  and local graceful degradation.
"""

from .cache import CacheStats, LRUCache, source_digest
from .client import RemoteCompiler, RemoteError, RemoteResult
from .daemon import PROTOCOL_VERSION, CompilationDaemon, ThreadedDaemon
from .federation import BackendState, CompileGateway, HashRing, parse_backend_spec
from .service import CompilationService
from .store import (
    UNIT_STYLE,
    CompileStore,
    executable_from_record,
    key_from_record,
    record_from_result,
    store_key,
    types_from_record,
    unit_store_key,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "source_digest",
    "CompilationService",
    "CompilationDaemon",
    "ThreadedDaemon",
    "PROTOCOL_VERSION",
    "CompileStore",
    "record_from_result",
    "executable_from_record",
    "types_from_record",
    "store_key",
    "key_from_record",
    "unit_store_key",
    "UNIT_STYLE",
    "RemoteCompiler",
    "RemoteError",
    "RemoteResult",
    "CompileGateway",
    "HashRing",
    "BackendState",
    "parse_backend_spec",
]
