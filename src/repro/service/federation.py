"""Federated compile tier: one gateway in front of a fleet of daemons.

``python -m repro gateway --backend HOST:PORT --backend HOST:PORT ...``
starts a :class:`CompileGateway`: a server speaking the *same* JSON-line
protocol as the compilation daemon, which routes every ``compile`` to one
of N backend daemons instead of compiling itself.  Clients cannot tell the
difference (responses gain a ``backend`` field naming the node that
answered); operators get one address, horizontal capacity behind it.

Routing
-------

Requests are routed by **consistent hashing of the kernel fingerprint** --
the same identity that keys every cache tier.  The gateway parses and
normalizes the source (memoizing digest -> fingerprint exactly like the
daemon does), hashes the fingerprint onto a ring of virtual nodes
(:class:`HashRing`), and forwards the raw request to the owning backend.
Two properties follow:

* the *same* program always lands on the *same* backend, so each backend's
  memory cache stays hot for its slice of the keyspace instead of every
  node caching everything;
* adding or removing a backend remaps only ~1/N of the keyspace (the
  virtual nodes interleave the ring), so scaling events do not flush the
  fleet's caches.

Failure handling
----------------

Robustness is first-class, not best-effort:

* a background health thread pings every backend on an interval; an
  unhealthy backend leaves the routing candidates until it answers again
  (plus a lazy recheck so a recovered backend is retried even between
  health sweeps);
* a forward that fails at the *transport* level (timeout, refused or reset
  connection, truncated response) marks the backend unhealthy and retries
  -- with exponential backoff -- on the ring's next healthy node, so one
  dying backend costs latency, not errors;
* structured errors *from* a backend (a parse error, a bad request) are
  relayed verbatim -- the program will not get better on another node;
* when every backend is down the gateway degrades gracefully: it compiles
  **locally** on its inherited engine (``local_fallback=True``), so the
  tier keeps answering through a full fleet outage.

The shared artifact tier
------------------------

Point the gateway and every backend at the same ``--store`` directory and
the disk store becomes a content-addressed artifact tier for the whole
fleet: any node's compile warms every node.  The ``store-get`` /
``store-put`` ops (inherited from the daemon) serve the same role over the
wire when a shared directory is not possible.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..lang.kernel import normalize
from ..lang.parser import parse_process
from .cache import source_digest
from .client import RemoteCompiler, RemoteError
from .daemon import CompilationDaemon, _RequestError, _error_response

__all__ = ["HashRing", "BackendState", "CompileGateway", "parse_backend_spec"]


def _ring_hash(value: str) -> int:
    """Position of a string on the ring (first 8 bytes of its sha256)."""
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Each node is projected onto ``replicas`` pseudo-random points of a
    64-bit ring; a key is owned by the first node point at or after the
    key's own hash (wrapping).  With enough virtual nodes per backend the
    keyspace splits evenly and removing one backend hands each of its
    slices to a *different* survivor -- ~1/N of keys move, the rest keep
    their owner (and their warm caches).
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self._replicas = replicas
        self._points: List[int] = []        # sorted ring positions
        self._owners: List[str] = []        # node owning each position
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _node_points(self, node: str) -> List[int]:
        return [_ring_hash(f"{node}#{index}") for index in range(self._replicas)]

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for point in self._node_points(node):
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def node_for(self, key: str) -> Optional[str]:
        """The node owning ``key``, or ``None`` on an empty ring."""
        if not self._points:
            return None
        index = bisect.bisect(self._points, _ring_hash(key)) % len(self._points)
        return self._owners[index]

    def preference(self, key: str) -> List[str]:
        """Every node, ordered by ring distance from ``key``.

        The first entry is :meth:`node_for`; the rest are the successive
        fallback owners a failover walks, each key getting its *own*
        fallback order (so a dead backend's traffic spreads over the
        survivors instead of piling onto one neighbour).
        """
        if not self._points:
            return []
        start = bisect.bisect(self._points, _ring_hash(key))
        seen: List[str] = []
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self._nodes):
                    break
        return seen


def parse_backend_spec(spec: str) -> Tuple[Optional[str], Optional[int], Optional[str]]:
    """Parse a ``--backend`` value into ``(host, port, socket_path)``.

    ``HOST:PORT`` means TCP; anything containing a slash (or without a
    colon) is a unix-socket path.
    """
    if "/" not in spec and ":" in spec:
        host, _, port_text = spec.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(
                f"invalid backend spec {spec!r} (expected HOST:PORT or a socket path)"
            )
        return host, int(port_text), None
    return None, None, spec


class BackendState:
    """One backend daemon as the gateway sees it: address, health, counters."""

    def __init__(self, spec: str):
        host, port, socket_path = parse_backend_spec(spec)
        self.spec = spec
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.healthy = True          # optimistic: probed by traffic and the health loop
        self.last_failure = 0.0      # monotonic time of the last transport failure
        self.routed = 0
        self.errors = 0
        self.inflight = 0
        self.clients: List[RemoteCompiler] = []  # idle pooled connections
        self.lock = threading.Lock()

    def snapshot(self) -> Dict[str, object]:
        with self.lock:
            return {
                "backend": self.spec,
                "healthy": self.healthy,
                "routed": self.routed,
                "errors": self.errors,
                "inflight": self.inflight,
            }


class CompileGateway(CompilationDaemon):
    """A protocol-compatible front-end routing compiles across daemons.

    Subclasses :class:`CompilationDaemon` to inherit the asyncio server,
    the graceful SIGTERM drain, the request log, the ``store-get`` /
    ``store-put`` artifact ops *and* a full local compilation engine --
    which is exactly the graceful-degradation path: when no backend is
    reachable the gateway answers compiles itself (sharing the fleet's
    ``store`` if configured), rather than erroring.

    Protocol differences from a plain daemon:

    * ``compile`` responses carry ``"backend"``: the spec of the node that
      answered (``"local"`` for a fallback compile);
    * ``ping`` responses carry ``"role": "gateway"`` and backend counts;
    * ``stats`` responses gain ``"gateway"`` (routing counters, fleet
      aggregate) and ``"backends"`` (per-backend health + counters +
      that backend's own stats);
    * ``clear-cache`` is broadcast to every healthy backend after clearing
      the gateway's own tiers.
    """

    def __init__(
        self,
        backends: Sequence[str] = (),
        local_fallback: bool = True,
        backend_timeout: float = 60.0,
        connect_timeout: float = 5.0,
        retry_backoff: float = 0.05,
        max_attempts: Optional[int] = None,
        health_interval: float = 2.0,
        recheck_interval: float = 1.0,
        replicas: int = 64,
        **daemon_options,
    ):
        super().__init__(**daemon_options)
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self._local_fallback = local_fallback
        self._backend_timeout = backend_timeout
        self._connect_timeout = connect_timeout
        self._retry_backoff = retry_backoff
        self._max_attempts = max_attempts
        self._health_interval = health_interval
        self._recheck_interval = recheck_interval
        self._ring = HashRing(replicas=replicas)
        self._backends: Dict[str, BackendState] = {}
        self._gateway_lock = threading.Lock()
        self._routed = 0
        self._retried = 0
        self._failed_over = 0
        self._health_stop: Optional[threading.Event] = None
        for spec in backends:
            self.add_backend(spec)

    # -- ring membership -----------------------------------------------------
    def add_backend(self, spec: str) -> BackendState:
        """Add a backend to the ring (only ~1/N of keys move to it)."""
        with self._gateway_lock:
            if spec in self._backends:
                raise ValueError(f"backend {spec!r} is already registered")
            state = BackendState(spec)  # validates the spec before ring mutation
            self._ring.add(spec)
            self._backends[spec] = state
        return state

    def remove_backend(self, spec: str) -> None:
        """Drop a backend; its keyspace slices fall to the ring successors."""
        with self._gateway_lock:
            state = self._backends.pop(spec, None)
            if state is None:
                raise ValueError(f"backend {spec!r} is not registered")
            self._ring.remove(spec)
        self._drop_idle_clients(state)

    @property
    def backends(self) -> List[str]:
        with self._gateway_lock:
            return sorted(self._backends)

    # -- backend connections -------------------------------------------------
    def _connect_backend(self, state: BackendState) -> RemoteCompiler:
        if state.socket_path is not None:
            return RemoteCompiler(
                socket_path=state.socket_path,
                timeout=self._backend_timeout,
                connect_timeout=self._connect_timeout,
            )
        return RemoteCompiler(
            host=state.host,
            port=state.port,
            timeout=self._backend_timeout,
            connect_timeout=self._connect_timeout,
        )

    def _borrow(self, state: BackendState) -> RemoteCompiler:
        with state.lock:
            if state.clients:
                return state.clients.pop()
        return self._connect_backend(state)  # OSError = transport failure

    def _return(self, state: BackendState, client: RemoteCompiler) -> None:
        with state.lock:
            # Cap the idle pool at the request-thread count; more could
            # never be borrowed concurrently.
            if state.healthy and len(state.clients) < self._jobs:
                state.clients.append(client)
                return
        client.close()

    def _drop_idle_clients(self, state: BackendState) -> None:
        with state.lock:
            clients, state.clients = state.clients, []
        for client in clients:
            client.close()

    def _forward(self, state: BackendState, request: Dict[str, object]) -> Dict[str, object]:
        """One request to one backend; raises on transport failure only."""
        client = self._borrow(state)
        try:
            response = client.call(request)
        except RemoteError:
            client.close()
            raise
        self._return(state, client)
        return response

    # -- health --------------------------------------------------------------
    def _mark_unhealthy(self, state: BackendState) -> None:
        with state.lock:
            state.healthy = False
            state.last_failure = time.monotonic()
            state.errors += 1
        self._drop_idle_clients(state)

    def _mark_healthy(self, state: BackendState) -> None:
        with state.lock:
            state.healthy = True

    def check_backends(self) -> Dict[str, bool]:
        """Ping every backend once and update its health flag.

        The health loop calls this on an interval; tests and operators can
        call it synchronously.  Probes use a fresh short-timeout connection
        so a wedged pooled connection cannot fake a healthy backend.
        """
        with self._gateway_lock:
            states = list(self._backends.values())
        health: Dict[str, bool] = {}
        for state in states:
            try:
                probe = self._connect_backend(state)
            except OSError:
                self._mark_unhealthy(state)
                health[state.spec] = False
                continue
            try:
                probe.ping()
            except RemoteError:
                self._mark_unhealthy(state)
                health[state.spec] = False
            else:
                self._mark_healthy(state)
                health[state.spec] = True
            finally:
                probe.close()
        return health

    def _health_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self._health_interval):
            try:
                self.check_backends()
            except Exception:  # pragma: no cover - the loop must survive anything
                pass

    # -- routing -------------------------------------------------------------
    def _fingerprint_for(self, source: str) -> str:
        """The routing key: digest-memoized kernel fingerprint.

        Parsing locally means garbage requests are rejected at the edge
        (via the inherited error ladder) without bothering any backend, and
        the memo makes repeat traffic route without parsing at all.
        """
        digest = source_digest(source)
        fingerprint = self._digests.get(digest)
        if fingerprint is None:
            fingerprint = normalize(parse_process(source)).fingerprint()
            self._digests.put(digest, fingerprint)
        return fingerprint

    def _candidates(self, fingerprint: str) -> List[BackendState]:
        """Backends to try, in order: healthy by ring preference, then
        unhealthy ones whose recheck interval has elapsed (a recovered
        backend must win its keys back without waiting for a health sweep)."""
        with self._gateway_lock:
            order = [
                self._backends[spec]
                for spec in self._ring.preference(fingerprint)
                if spec in self._backends
            ]
        now = time.monotonic()
        healthy = [state for state in order if state.healthy]
        recheck = [
            state
            for state in order
            if not state.healthy and now - state.last_failure >= self._recheck_interval
        ]
        return healthy + recheck

    def _handle_compile(self, request: Dict[str, object]) -> Dict[str, object]:
        source = request.get("source")
        if not isinstance(source, str) or not source.strip():
            raise _RequestError("field 'source' must be a non-empty string")
        fingerprint = self._fingerprint_for(source)  # SignalError -> answered locally
        candidates = self._candidates(fingerprint)
        if self._max_attempts is not None:
            candidates = candidates[: self._max_attempts]
        for attempt, state in enumerate(candidates):
            if attempt:
                time.sleep(self._retry_backoff * (2 ** (attempt - 1)))
                with self._gateway_lock:
                    self._retried += 1
            with state.lock:
                state.inflight += 1
            try:
                response = self._forward(state, request)
            except (RemoteError, OSError):
                # Transport failure: the backend is gone (or wedged); every
                # op is idempotent, so resending to the next ring node is
                # safe even if the dead backend did run the compile.
                self._mark_unhealthy(state)
                continue
            finally:
                with state.lock:
                    state.inflight -= 1
            self._mark_healthy(state)
            with state.lock:
                state.routed += 1
            with self._gateway_lock:
                self._routed += 1
            response["backend"] = state.spec
            return response
        # Every backend is down (or none is registered): degrade gracefully
        # to the inherited local engine rather than failing the client.
        if self._local_fallback:
            with self._gateway_lock:
                self._failed_over += 1
            response = super()._handle_compile(request)
            response["backend"] = "local"
            return response
        return self._count_error(
            _error_response(
                "no-backend",
                "no backend is reachable and local fallback is disabled",
                "compile",
            )
        )

    # -- protocol extensions -------------------------------------------------
    def _dispatch_op(self, op: object, request: Dict[str, object]) -> Dict[str, object]:
        if op == "ping":
            response = super()._dispatch_op(op, request)
            with self._gateway_lock:
                states = list(self._backends.values())
            response["role"] = "gateway"
            response["backends"] = len(states)
            response["healthy_backends"] = sum(1 for s in states if s.healthy)
            return response
        if op == "clear-cache":
            response = super()._dispatch_op(op, request)
            if response.get("ok"):
                response["backends_cleared"] = self._broadcast(
                    {"op": "clear-cache", "store": response.get("store", False)}
                )
            return response
        return super()._dispatch_op(op, request)

    def _broadcast(self, request: Dict[str, object]) -> List[str]:
        """Send one request to every healthy backend; return who answered ok."""
        with self._gateway_lock:
            states = [s for s in self._backends.values() if s.healthy]
        answered: List[str] = []
        for state in states:
            try:
                response = self._forward(state, request)
            except (RemoteError, OSError):
                self._mark_unhealthy(state)
                continue
            if response.get("ok"):
                answered.append(state.spec)
        return answered

    def statistics(self) -> Dict[str, object]:
        """Federated stats: local tiers + routing counters + fleet aggregate.

        Each healthy backend is asked for its own ``stats``; the per-daemon
        tier counters are summed into ``gateway.fleet`` so one number
        answers "how hot is the tier" across N nodes.  A backend that fails
        the stats probe is reported unhealthy, not an error.
        """
        base = super().statistics()
        with self._gateway_lock:
            states = list(self._backends.values())
            gateway: Dict[str, object] = {
                "routed": self._routed,
                "retried": self._retried,
                "failed_over": self._failed_over,
                "backends": len(states),
            }
        per_backend: List[Dict[str, object]] = []
        fleet = {
            "compile_requests": 0,
            "memory_hits": 0,
            "store_hits": 0,
            "compiles": 0,
            "errors": 0,
        }
        # Modular counters live in the per-daemon *service* stats; summing
        # them here answers "how hot are the unit tier and the link stage"
        # for the whole fleet the same way ``fleet`` does for record tiers.
        modular_fleet = {
            "unit_hits": 0,
            "unit_misses": 0,
            "unit_store_hits": 0,
            "links": 0,
            "link_hits": 0,
            "link_misses": 0,
        }
        for state in states:
            entry = state.snapshot()
            if entry["healthy"]:
                try:
                    response = self._forward(state, {"op": "stats"})
                except (RemoteError, OSError):
                    self._mark_unhealthy(state)
                    entry["healthy"] = False
                else:
                    if response.get("ok"):
                        entry["stats"] = {
                            key: value
                            for key, value in response.items()
                            if key not in ("ok", "op")
                        }
                        daemon_stats = entry["stats"].get("daemon") or {}
                        for key in fleet:
                            value = daemon_stats.get(key)
                            if isinstance(value, int):
                                fleet[key] += value
                        service_stats = entry["stats"].get("service") or {}
                        for key in modular_fleet:
                            value = service_stats.get(key)
                            if isinstance(value, int):
                                modular_fleet[key] += value
            per_backend.append(entry)
        gateway["healthy"] = sum(1 for entry in per_backend if entry["healthy"])
        gateway["fleet"] = fleet
        gateway["modular_fleet"] = modular_fleet
        return {**base, "gateway": gateway, "backends": per_backend}

    # -- server --------------------------------------------------------------
    async def serve(self, *args, **kwargs) -> None:
        """Serve like the daemon, with the health loop running alongside."""
        stop = threading.Event()
        self._health_stop = stop
        thread: Optional[threading.Thread] = None
        if self._health_interval > 0:
            thread = threading.Thread(
                target=self._health_loop,
                args=(stop,),
                name="repro-gateway-health",
                daemon=True,
            )
            thread.start()
        try:
            await super().serve(*args, **kwargs)
        finally:
            stop.set()
            if thread is not None:
                thread.join(timeout=5.0)
            with self._gateway_lock:
                states = list(self._backends.values())
            for state in states:
                self._drop_idle_clients(state)
