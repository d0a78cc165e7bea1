"""Client library for the compilation daemon (and the compile gateway).

:class:`RemoteCompiler` is a small blocking client for the JSON-line
protocol served by :mod:`repro.service.daemon` and
:mod:`repro.service.federation`::

    from repro.service import RemoteCompiler

    with RemoteCompiler(port=7420) as compiler:
        result = compiler.compile(source, emit=["python", "stats"])
        print(result.artifacts["python"])
        print(compiler.stats()["daemon"]["memory_hits"])

Remote compilations return :class:`RemoteResult` -- rendered artifacts and
statistics, not live analysis objects (BDDs never cross the wire).  Protocol
failures raise :class:`RemoteError`, which carries the structured error code
the daemon reported (``parse-error``, ``clock-error``, ...), so callers can
distinguish a bad program from a dead socket.

Timeouts and retries
--------------------

``timeout`` bounds each request round-trip and ``connect_timeout`` (default:
the request timeout) bounds connection establishment.  With ``retries=N``
the client survives transport failures: a timed-out, reset or closed
connection is torn down and re-established (with exponential backoff) and
the request is resent, up to ``N`` extra attempts.  Every protocol op is
idempotent -- compilation is deterministic and the caches are
last-writer-wins -- so a resend can never corrupt server state.  Structured
daemon errors (a bad program, an invalid request) are **never** retried:
the program will not get better by asking again.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union

from ..codegen.ir import GenerationStyle

__all__ = ["RemoteCompiler", "RemoteResult", "RemoteError", "TRANSPORT_ERROR_CODES"]

#: :class:`RemoteError` codes that mean "the transport failed", not "the
#: daemon answered no" -- the retry loop (and the gateway's failover)
#: re-sends only these.
TRANSPORT_ERROR_CODES = frozenset(
    {"timeout", "io-error", "connection-closed", "connection-unusable",
     "connect-failed", "invalid-response"}
)


class RemoteError(Exception):
    """A failure reported by (or while talking to) the compilation daemon."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        #: the protocol error code (``parse-error``, ``invalid-request``,
        #: ``connection-closed``, ...)
        self.code = code
        #: the human-readable message from the daemon
        self.remote_message = message

    @property
    def transport(self) -> bool:
        """True when the failure is the connection's, not the program's."""
        return self.code in TRANSPORT_ERROR_CODES


@dataclass
class RemoteResult:
    """The daemon's answer to one ``compile`` request."""

    name: str
    fingerprint: str
    #: which cache tier answered: ``"memory"``, ``"store"`` or ``"compiled"``
    origin: str
    statistics: Dict[str, int]
    #: requested artifact texts, keyed by emit kind (``python``, ``tree``, ...)
    artifacts: Dict[str, object] = field(default_factory=dict)
    #: ``{"reactions", "seed", "diagram"}`` when simulation was requested
    simulation: Optional[Dict[str, object]] = None
    #: which backend served the request (gateway responses only)
    backend: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.origin != "compiled"


class RemoteCompiler:
    """A connection to a running compilation daemon or gateway.

    Connects over TCP (``host``/``port``) or a unix domain socket
    (``socket_path``).  The connection is persistent: repeated compiles
    reuse it, which is what makes the daemon's source-digest fast path
    worthwhile.  Instances are not thread-safe; use one per thread (the
    daemon interleaves clients fairly).

    With the default ``retries=0`` a transport failure marks the connection
    unusable (a late response may still be in flight and there is no
    request-id correlation, so reusing the stream could pair the next
    request with the previous answer) and the caller must open a new
    client.  With ``retries>0`` the client heals itself instead: a fresh
    connection has no stale in-flight responses, so tearing down and
    reconnecting is always safe.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        timeout: float = 60.0,
        connect_timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.05,
    ):
        if (port is None) == (socket_path is None):
            raise ValueError("exactly one of port= or socket_path= is required")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._timeout = timeout
        self._connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._socket: Optional[socket.socket] = None
        self._stream = None
        self._dead = False
        # The initial connect honours the retry budget too, so a client can
        # be created while its daemon is still starting up.  The final
        # failure stays an OSError for backward compatibility.
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(self._retry_backoff * (2 ** (attempt - 1)))
            try:
                self._connect()
                break
            except OSError:
                if attempt == self._retries:
                    raise

    # -- plumbing ------------------------------------------------------------
    def _connect(self) -> None:
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self._connect_timeout)
                sock.connect(self._socket_path)
            except BaseException:
                sock.close()  # no fd leak when the daemon is not up yet
                raise
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
        sock.settimeout(self._timeout)
        self._socket = sock
        self._stream = sock.makefile("rwb")
        self._dead = False

    def _close_transport(self) -> None:
        try:
            if self._stream is not None:
                self._stream.close()
        except OSError:
            pass
        finally:
            if self._socket is not None:
                self._socket.close()
            self._stream = None
            self._socket = None

    def _call_once(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request/response round-trip; raises on transport failures."""
        if self._dead or self._stream is None:
            raise RemoteError(
                "connection-unusable",
                "a previous request failed mid-flight; open a new RemoteCompiler "
                "or construct it with retries= to let it reconnect",
            )
        try:
            self._stream.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._stream.flush()
            line = self._stream.readline()
        except socket.timeout as error:
            self._dead = True
            raise RemoteError("timeout", f"daemon did not answer in time: {error}") from None
        except OSError as error:
            self._dead = True
            raise RemoteError("io-error", f"connection to the daemon failed: {error}") from None
        if not line:
            self._dead = True
            raise RemoteError("connection-closed", "daemon closed the connection")
        try:
            response = json.loads(line)
        except ValueError as error:
            self._dead = True
            raise RemoteError("invalid-response", f"unparseable response: {error}") from None
        if not isinstance(response, dict):
            self._dead = True
            raise RemoteError("invalid-response", "response is not a JSON object")
        return response

    def call(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one raw request; return the response object **verbatim**.

        Unlike :meth:`request`, an ``{"ok": false}`` response is returned,
        not raised -- this is what the gateway uses to relay a backend's
        structured errors to its own client untouched.  Transport failures
        still raise :class:`RemoteError` (after exhausting ``retries``).
        """
        last_error: Optional[RemoteError] = None
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(self._retry_backoff * (2 ** (attempt - 1)))
            if self._dead and self._retries > 0:
                self._close_transport()
                try:
                    self._connect()
                except OSError as error:
                    last_error = RemoteError(
                        "connect-failed", f"cannot reconnect to the daemon: {error}"
                    )
                    continue
            try:
                return self._call_once(payload)
            except RemoteError as error:
                last_error = error
                if not error.transport:
                    raise
        assert last_error is not None
        raise last_error

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one raw request and return the daemon's success response.

        Raises :class:`RemoteError` both for transport failures (code in
        :data:`TRANSPORT_ERROR_CODES`, retried per ``retries=``) and for
        structured daemon errors (never retried).
        """
        response = self.call(payload)
        if not response.get("ok"):
            error_info = response.get("error") or {}
            raise RemoteError(
                str(error_info.get("code", "unknown")),
                str(error_info.get("message", "no message")),
            )
        return response

    # -- operations ----------------------------------------------------------
    def compile(
        self,
        source: str,
        style: Union[GenerationStyle, str] = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        emit: Iterable[str] = (),
        simulate: int = 0,
        seed: int = 0,
        modular: bool = False,
    ) -> RemoteResult:
        """Compile SIGNAL source on the daemon and fetch rendered artifacts.

        ``modular=True`` asks the daemon to compile misses unit-by-unit
        against its unit cache; hits and the response shape are unchanged
        (the record tiers stay whole-program keyed).
        """
        style_value = style.value if isinstance(style, GenerationStyle) else str(style)
        request: Dict[str, object] = {
            "op": "compile",
            "source": source,
            "style": style_value,
            "build_flat": build_flat,
            "observable": observable,
            "emit": list(emit),
            "simulate": simulate,
            "seed": seed,
        }
        if modular:
            request["modular"] = True
        response = self.request(request)
        return RemoteResult(
            name=response["name"],
            fingerprint=response["fingerprint"],
            origin=response["origin"],
            statistics=response["statistics"],
            artifacts=response.get("artifacts", {}),
            simulation=response.get("simulation"),
            backend=response.get("backend"),
        )

    def stats(self) -> Dict[str, object]:
        """The server's statistics (``stats`` request).

        A daemon answers with ``daemon``/``service``/``store`` sections; a
        gateway adds ``gateway`` and ``backends``.  Everything but the
        protocol envelope (``ok``/``op``) is returned.
        """
        response = self.request({"op": "stats"})
        return {key: value for key, value in response.items() if key not in ("ok", "op")}

    def ping(self) -> int:
        """Round-trip check; returns the daemon's protocol version."""
        return self.request({"op": "ping"})["protocol"]

    def clear_cache(self, store: bool = False) -> None:
        """Drop the daemon's in-memory caches (and the disk store if asked)."""
        self.request({"op": "clear-cache", "store": store})

    def store_get(
        self,
        fingerprint: str,
        style: Union[GenerationStyle, str] = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> Optional[Dict[str, object]]:
        """Fetch the artifact record cached under a key, or ``None``.

        The read half of the content-addressed artifact tier: the record
        (the same JSON the disk store holds) comes back without compiling
        anything, so a warm node can be used to warm another.
        """
        style_value = style.value if isinstance(style, GenerationStyle) else str(style)
        response = self.request(
            {
                "op": "store-get",
                "fingerprint": fingerprint,
                "style": style_value,
                "build_flat": build_flat,
                "observable": observable,
            }
        )
        return response["record"] if response.get("found") else None

    def store_put(self, record: Dict[str, object]) -> bool:
        """Inject an artifact record into the daemon's cache tiers.

        The write half of the artifact tier: the record is filed under the
        key it self-describes (memory tier always; the disk store when the
        daemon has one).  Returns whether the record reached disk.
        """
        return bool(self.request({"op": "store-put", "record": record})["stored"])

    def prune(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Shrink the daemon's disk store to ``max_bytes`` (LRU eviction).

        Omitting ``max_bytes`` uses the daemon's configured
        ``--store-max-bytes`` policy; if the daemon has neither a store nor
        a policy the call raises :class:`RemoteError` (``invalid-request``).
        Returns the prune report (``removed``, ``removed_bytes``, ...).
        """
        payload: Dict[str, object] = {"op": "prune"}
        if max_bytes is not None:
            payload["max_bytes"] = max_bytes
        response = self.request(payload)
        return {
            key: response[key]
            for key in ("removed", "removed_bytes", "remaining_entries", "remaining_bytes")
        }

    def shutdown(self, drain: bool = False) -> None:
        """Ask the daemon to exit after acknowledging this request.

        ``drain=True`` asks for a graceful stop: the daemon answers every
        request already in flight before closing connections.
        """
        self.request({"op": "shutdown", "drain": drain})

    def close(self) -> None:
        self._close_transport()

    def __enter__(self) -> "RemoteCompiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
