"""Thread-safe LRU cache of compilation results.

The cache is keyed by the *normalized kernel program* fingerprint (plus the
code-generation options), so two surface sources that desugar to the same
kernel share one entry.  A second, source-text level memo maps the SHA-256
of the raw source to the kernel key: exact textual repeats then skip the
parse/normalize work entirely on the hot path.

What the fingerprint normalizes away
------------------------------------

The fingerprint is the SHA-256 of the kernel program's *canonical form*
(:meth:`repro.lang.kernel.KernelProgram.canonical_form`), computed after
desugaring.  Two sources therefore share one cache entry when they differ
only in

* whitespace, layout and comments (erased by the lexer),
* surface syntax that desugars to the same kernel equations (e.g. operator
  sugar versus its explicit kernel expansion), and
* anything else the deterministic normalizer maps to identical kernel text,
  including the numbering of compiler-introduced intermediate signals,
  which depends only on emission order.

It does **not** normalize away process names, signal names, declared types,
or equation order: those are part of the canonical form, so renamed or
reordered programs compile separately even when semantically equivalent.
The same fingerprint also keys the on-disk artifact store
(:mod:`repro.service.store`) and the service's one result LRU, where
monolithic and linked results of a program sit side by side under a
``modular`` flag: every layer of caching shares one identity for "the same
program".
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Optional, Tuple, TypeVar

__all__ = [
    "CacheStats",
    "LRUCache",
    "source_digest",
]

T = TypeVar("T")


def source_digest(source: str) -> str:
    """SHA-256 of raw source text (the exact-repeat fast path key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Counters exposed by :meth:`repro.service.CompilationService.statistics`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class LRUCache(Generic[T]):
    """A bounded mapping with least-recently-used eviction.

    All operations take the internal lock, so concurrent callers (the
    daemon's request threads) need no extra synchronization.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, T]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[T]:
        """Return the cached value (refreshing its recency) or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: Hashable) -> Optional[T]:
        """Like :meth:`get` but without touching recency or the counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: T) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def values(self) -> Tuple[T, ...]:
        with self._lock:
            return tuple(self._entries.values())
