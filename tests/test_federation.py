"""The federated compile tier: ring, routing, failover, degradation.

Ring tests are pure; gateway tests route over real ``ThreadedDaemon``
backends (in-process asyncio servers, real sockets) by driving the
gateway's engine (`handle_request`) directly or its own server through
:class:`RemoteCompiler`; one test SIGTERMs a real ``python -m repro
gateway`` process.
"""

import os
import signal
import threading
import time

import pytest

from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.programs import COUNTER_SOURCE, WATCHDOG_SOURCE, benchmark_source
from repro.service import (
    CompileGateway,
    CompileStore,
    HashRing,
    RemoteCompiler,
    RemoteError,
    ThreadedDaemon,
    parse_backend_spec,
)

SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE] + [
    benchmark_source(name) for name in ("STOPWATCH", "CHRONO", "SUPERVISOR", "PACE_MAKER")
]


def spec_of(daemon: ThreadedDaemon) -> str:
    host, port = daemon.address
    return f"{host}:{port}"


def fingerprint_of(source: str) -> str:
    return normalize(parse_process(source)).fingerprint()


def counter_variant(n: int) -> str:
    # A distinct init constant gives a distinct normalized-kernel
    # fingerprint, i.e. a fresh routing key.
    return COUNTER_SOURCE.replace("COUNT", f"COUNT_{n}").replace("init 0", f"init {n}")


def covering_sources(*specs: str) -> list:
    """Sources guaranteed to give every backend at least one ring key.

    Ring positions depend on the backends' ephemeral ports, so a fixed
    corpus cannot promise that every node owns something; extend it with
    counter variants until the split covers all of ``specs``.
    """
    ring = HashRing(list(specs))
    pool = list(SOURCES)
    for n in range(1, 65):
        if {ring.node_for(fingerprint_of(source)) for source in pool} == set(specs):
            return pool
        pool.append(counter_variant(n))
    pytest.fail("hash ring starved a backend across 64 extra keys (regression)")


def _rebind_daemon(port: int, attempts: int = 10) -> ThreadedDaemon:
    """Restart a daemon on a just-released port, tolerating parallel CI.

    Between the stop and the rebind another test process may grab the
    ephemeral port (or the kernel may hold it briefly); retry, and if it
    stays taken by somebody else, skip rather than flake.
    """
    last_error = None
    for _ in range(attempts):
        try:
            return ThreadedDaemon(port=port).start()
        except (RuntimeError, OSError) as error:
            last_error = error
            time.sleep(0.1)
    pytest.skip(f"port {port} was reclaimed by another process: {last_error}")


def gateway_over(*daemons: ThreadedDaemon, **options) -> CompileGateway:
    options.setdefault("health_interval", 0)  # sweeps are explicit in tests
    options.setdefault("retry_backoff", 0.01)
    options.setdefault("connect_timeout", 2.0)
    return CompileGateway(backends=[spec_of(d) for d in daemons], **options)


class TestHashRing:
    def test_ownership_is_deterministic_and_total(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(300)]
        owners = {key: ring.node_for(key) for key in keys}
        assert set(owners.values()) == {"a", "b", "c"}  # no node starves
        assert all(ring.node_for(key) == owners[key] for key in keys)

    def test_preference_starts_with_the_owner_and_covers_all_nodes(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in ("x", "y", "z"):
            preference = ring.preference(key)
            assert preference[0] == ring.node_for(key)
            assert sorted(preference) == ["a", "b", "c", "d"]

    def test_removal_only_remaps_the_removed_nodes_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove("c")
        for key in keys:
            if before[key] != "c":
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) in ("a", "b")

    def test_adding_a_node_back_restores_its_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(200)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove("b")
        ring.add("b")
        assert all(ring.node_for(key) == before[key] for key in keys)

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.node_for("anything") is None
        assert ring.preference("anything") == []
        assert len(ring) == 0

    def test_membership_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("b")

    def test_virtual_nodes_spread_the_keyspace(self):
        ring = HashRing(["a", "b", "c", "d"], replicas=128)
        counts = {}
        for i in range(4000):
            owner = ring.node_for(f"key-{i}")
            counts[owner] = counts.get(owner, 0) + 1
        # With 128 virtual nodes each backend owns a sane share; the bound
        # is loose on purpose (consistent hashing is not perfectly even).
        assert all(count > 400 for count in counts.values())


class TestBackendSpecs:
    def test_tcp_and_socket_specs(self):
        assert parse_backend_spec("127.0.0.1:7420") == ("127.0.0.1", 7420, None)
        assert parse_backend_spec("/tmp/daemon.sock") == (None, None, "/tmp/daemon.sock")
        assert parse_backend_spec("./d.sock") == (None, None, "./d.sock")

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            parse_backend_spec("host:notaport")
        with pytest.raises(ValueError):
            parse_backend_spec(":7420")
        with pytest.raises(ValueError):
            CompileGateway(backends=["host:nope"])

    def test_duplicate_backend_is_rejected(self):
        gateway = CompileGateway(backends=["127.0.0.1:1"], health_interval=0)
        with pytest.raises(ValueError):
            gateway.add_backend("127.0.0.1:1")
        with pytest.raises(ValueError):
            gateway.remove_backend("127.0.0.1:2")


class TestRouting:
    def test_routes_consistently_and_reuses_backend_caches(self):
        with ThreadedDaemon() as one, ThreadedDaemon() as two:
            gateway = gateway_over(one, two)
            owners = {}
            for source in SOURCES:
                response = gateway.handle_request({"op": "compile", "source": source})
                assert response["ok"], response
                assert response["backend"] in (spec_of(one), spec_of(two))
                owners[source] = response["backend"]
            # Repeat traffic: same owner, answered from its memory tier.
            for source in SOURCES:
                response = gateway.handle_request({"op": "compile", "source": source})
                assert response["backend"] == owners[source]
                assert response["origin"] == "memory"

    def test_both_backends_get_traffic(self):
        with ThreadedDaemon() as one, ThreadedDaemon() as two:
            gateway = gateway_over(one, two)
            sources = covering_sources(spec_of(one), spec_of(two))
            backends = {
                gateway.handle_request({"op": "compile", "source": source})["backend"]
                for source in sources
            }
            assert backends == {spec_of(one), spec_of(two)}

    def test_garbage_is_rejected_at_the_gateway(self):
        with ThreadedDaemon() as one:
            gateway = gateway_over(one)
            response = gateway.handle_request({"op": "compile", "source": "process ="})
            assert not response["ok"]
            assert response["error"]["code"] == "parse-error"
            assert gateway.handle_request({"op": "stats"})["gateway"]["routed"] == 0

    def test_stale_ring_after_backend_removal(self):
        with ThreadedDaemon() as one, ThreadedDaemon() as two:
            gateway = gateway_over(one, two)
            gateway.remove_backend(spec_of(one))
            for source in SOURCES:
                response = gateway.handle_request({"op": "compile", "source": source})
                assert response["ok"]
                assert response["backend"] == spec_of(two)


class TestFailover:
    def test_dead_backend_fails_over_to_the_next_ring_node(self):
        with ThreadedDaemon() as one:
            two = ThreadedDaemon().start()
            gateway = gateway_over(one, two, recheck_interval=30.0)
            sources = covering_sources(spec_of(one), spec_of(two))
            owners = {
                source: gateway.handle_request({"op": "compile", "source": source})["backend"]
                for source in sources
            }
            two.stop()  # one backend dies; its keys must fail over
            survivors = spec_of(one)
            for source in sources:
                response = gateway.handle_request({"op": "compile", "source": source})
                assert response["ok"], response
                assert response["backend"] == survivors
            stats = gateway.handle_request({"op": "stats"})
            assert stats["gateway"]["retried"] >= 1
            assert stats["gateway"]["healthy"] == 1
            # The survivor now answers the dead node's keys too.
            assert any(owner != survivors for owner in owners.values())

    def test_recovered_backend_wins_its_keys_back(self):
        one = ThreadedDaemon().start()
        try:
            with ThreadedDaemon() as two:
                gateway = gateway_over(one, two, recheck_interval=0.0)
                spec_one = spec_of(one)
                sources = covering_sources(spec_one, spec_of(two))
                owned = [
                    source
                    for source in sources
                    if gateway.handle_request({"op": "compile", "source": source})["backend"]
                    == spec_one
                ]
                assert owned, "covering_sources promised backend one a key"
                port = one.address[1]
                one.stop()
                gateway.handle_request({"op": "compile", "source": owned[0]})
                assert gateway.check_backends()[spec_one] is False
                # Restart on the same port; with recheck due, traffic returns.
                one = _rebind_daemon(port)
                assert gateway.check_backends()[spec_one] is True
                response = gateway.handle_request({"op": "compile", "source": owned[0]})
                assert response["backend"] == spec_one
        finally:
            one.stop()

    def test_local_fallback_when_every_backend_is_down(self):
        daemon = ThreadedDaemon().start()
        spec = spec_of(daemon)
        daemon.stop()
        gateway = CompileGateway(
            backends=[spec], health_interval=0, retry_backoff=0.01, connect_timeout=1.0
        )
        response = gateway.handle_request({"op": "compile", "source": COUNTER_SOURCE})
        assert response["ok"]
        assert response["backend"] == "local"
        assert response["name"] == "COUNT"
        stats = gateway.handle_request({"op": "stats"})
        assert stats["gateway"]["failed_over"] == 1

    def test_served_local_fallback_compiles_on_worker_processes(self):
        """With jobs > 1 a served gateway's local fallback compiles on the
        service's worker processes, answers like ``compile_source``, and
        shuts that pool down when it stops."""
        from repro import compile_source

        gateway = CompileGateway(backends=[], jobs=2, health_interval=0)
        with ThreadedDaemon(daemon=gateway) as front:
            with RemoteCompiler(*front.address) as client:
                response = client.call(
                    {"op": "compile", "source": COUNTER_SOURCE, "emit": ["python"]}
                )
            assert gateway.service.statistics()["process_records"] == 1
        assert response["ok"] and response["backend"] == "local"
        assert response["artifacts"]["python"] == compile_source(COUNTER_SOURCE).python_source()
        assert gateway.service._process_pool is None

    def test_no_backend_error_when_fallback_is_disabled(self):
        daemon = ThreadedDaemon().start()
        spec = spec_of(daemon)
        daemon.stop()
        gateway = CompileGateway(
            backends=[spec],
            local_fallback=False,
            health_interval=0,
            retry_backoff=0.01,
            connect_timeout=1.0,
        )
        response = gateway.handle_request({"op": "compile", "source": COUNTER_SOURCE})
        assert not response["ok"]
        assert response["error"]["code"] == "no-backend"

    def test_health_sweep_marks_backends(self):
        with ThreadedDaemon() as alive:
            dead = ThreadedDaemon().start()
            dead_spec = spec_of(dead)
            dead.stop()
            gateway = gateway_over(alive, connect_timeout=1.0)
            gateway.add_backend(dead_spec)
            health = gateway.check_backends()
            assert health == {spec_of(alive): True, dead_spec: False}


class TestSharedStore:
    def test_any_backends_compile_warms_every_node(self, tmp_path):
        """The shared store is a fleet-wide artifact tier: after backend A
        compiles a program, backend B answers it from the store without
        compiling -- exactly what the restarted node in a rolling restart
        sees."""
        store = CompileStore(tmp_path / "fleet")
        with ThreadedDaemon(store=store) as one:
            two = ThreadedDaemon(store=store).start()
            try:
                gateway = gateway_over(one, two, recheck_interval=30.0)
                sources = covering_sources(spec_of(one), spec_of(two))
                origins = {}
                for source in sources:
                    response = gateway.handle_request({"op": "compile", "source": source})
                    origins[source] = (response["backend"], response["origin"])
                compiled_on_two = [
                    source
                    for source, (backend, origin) in origins.items()
                    if backend == spec_of(two) and origin == "compiled"
                ]
                assert compiled_on_two, "covering_sources promised backend two a key"
            finally:
                two.stop()
            for source in compiled_on_two:
                response = gateway.handle_request({"op": "compile", "source": source})
                assert response["ok"]
                assert response["backend"] == spec_of(one)
                assert response["origin"] == "store"  # warmed by the dead sibling

    def test_store_ops_replicate_records_between_daemons(self, tmp_path):
        """store-get/store-put move artifact records over the wire when a
        shared directory is not possible."""
        with ThreadedDaemon(store=tmp_path / "a") as one, ThreadedDaemon(
            store=tmp_path / "b"
        ) as two:
            with RemoteCompiler(*one.address) as source_client, RemoteCompiler(
                *two.address
            ) as target_client:
                result = source_client.compile(COUNTER_SOURCE)
                record = source_client.store_get(result.fingerprint)
                assert record is not None
                assert record["fingerprint"] == result.fingerprint
                assert target_client.store_get(result.fingerprint) is None
                assert target_client.store_put(record) is True
                replayed = target_client.compile(COUNTER_SOURCE)
                assert replayed.origin == "memory"  # injected, never compiled
                assert (
                    target_client.stats()["daemon"]["compiles"] == 0
                )


class TestGatewayServer:
    def test_end_to_end_over_sockets(self, tmp_path):
        store = CompileStore(tmp_path / "fleet")
        with ThreadedDaemon(store=store) as one, ThreadedDaemon(store=store) as two:
            gateway = CompileGateway(
                backends=[spec_of(one), spec_of(two)],
                store=store,
                health_interval=0.2,
                retry_backoff=0.01,
            )
            with ThreadedDaemon(daemon=gateway) as front:
                with RemoteCompiler(*front.address, retries=1) as client:
                    assert client.ping() >= 1
                    sources = covering_sources(spec_of(one), spec_of(two))
                    results = [client.compile(source) for source in sources]
                    assert {r.backend for r in results} == {spec_of(one), spec_of(two)}
                    assert all(not r.cached for r in results)
                    again = client.compile(sources[0])
                    assert again.cached and again.backend == results[0].backend
                    stats = client.stats()
                    assert stats["gateway"]["routed"] == len(sources) + 1
                    assert stats["gateway"]["healthy"] == 2
                    assert stats["gateway"]["fleet"]["compiles"] == len(sources)
                    assert len(stats["backends"]) == 2

    def test_served_gateway_forwards_off_the_event_loop(self, tmp_path):
        """A gateway whose own memory tier holds a program (from a local
        fallback) still forwards it once the backend is up, and forwards
        on a worker thread, never on the server's event loop thread."""
        spec = str(tmp_path / "backend.sock")
        gateway = CompileGateway(
            backends=[spec], health_interval=0, retry_backoff=0.01,
            connect_timeout=1.0, recheck_interval=0.0,
        )
        request = {"op": "compile", "source": COUNTER_SOURCE}
        assert gateway.handle_request(request)["backend"] == "local"
        assert gateway.statistics()["daemon"]["record_entries"] == 1
        forwarding_threads = []
        forward = gateway._forward

        def recording_forward(state, payload):
            forwarding_threads.append(threading.current_thread())
            return forward(state, payload)

        gateway._forward = recording_forward
        with ThreadedDaemon(socket_path=spec):
            assert gateway.check_backends() == {spec: True}
            with ThreadedDaemon(daemon=gateway) as front:
                with RemoteCompiler(*front.address) as client:
                    response = client.call(request)
                loop_thread = front._thread
        assert response["ok"] and response["backend"] == spec
        assert len(forwarding_threads) == 1
        assert forwarding_threads[0] is not loop_thread
        assert forwarding_threads[0].name.startswith("repro-daemon_")

    def test_clear_cache_broadcasts_to_backends(self):
        with ThreadedDaemon() as one, ThreadedDaemon() as two:
            gateway = gateway_over(one, two)
            for source in SOURCES[:2]:
                gateway.handle_request({"op": "compile", "source": source})
            response = gateway.handle_request({"op": "clear-cache"})
            assert response["ok"]
            assert sorted(response["backends_cleared"]) == sorted(
                [spec_of(one), spec_of(two)]
            )
            for daemon in (one, two):
                with RemoteCompiler(*daemon.address) as client:
                    assert client.stats()["daemon"]["record_entries"] == 0

    def test_sigterm_drains_a_real_gateway_process(self, tmp_path, cli_server):
        """`python -m repro gateway` + SIGTERM: clean exit, socket removed.

        The ``cli_server`` fixture owns the child's lifetime: even if an
        assertion fires before the SIGTERM, teardown reaps the process.
        """
        socket_path = str(tmp_path / "gateway.sock")
        process = cli_server("gateway", "--socket", socket_path)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not os.path.exists(socket_path):
            time.sleep(0.05)
        assert os.path.exists(socket_path), "gateway never bound its socket"
        with RemoteCompiler(socket_path=socket_path) as client:
            # No backends registered: the gateway compiles locally.
            result = client.compile(COUNTER_SOURCE)
            assert result.name == "COUNT" and result.backend == "local"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=20) == 0
        assert not os.path.exists(socket_path)


class TestClientRetries:
    def test_retrying_client_survives_a_daemon_restart(self, tmp_path):
        socket_path = str(tmp_path / "daemon.sock")
        first = ThreadedDaemon(socket_path=socket_path).start()
        client = RemoteCompiler(socket_path=socket_path, retries=3, retry_backoff=0.05)
        try:
            assert client.compile(COUNTER_SOURCE).name == "COUNT"
            first.stop()
            second = ThreadedDaemon(socket_path=socket_path).start()
            try:
                # The old connection is dead; retries reconnect transparently.
                assert client.compile(COUNTER_SOURCE).name == "COUNT"
            finally:
                second.stop()
        finally:
            client.close()
            first.stop()

    def test_default_client_stays_failed_after_transport_loss(self, tmp_path):
        socket_path = str(tmp_path / "daemon.sock")
        daemon = ThreadedDaemon(socket_path=socket_path).start()
        client = RemoteCompiler(socket_path=socket_path)
        try:
            client.compile(COUNTER_SOURCE)
            daemon.stop()
            with pytest.raises(RemoteError) as first_failure:
                client.compile(COUNTER_SOURCE)
            assert first_failure.value.transport
            with pytest.raises(RemoteError) as reuse:
                client.ping()
            assert reuse.value.code == "connection-unusable"
        finally:
            client.close()
            daemon.stop()

    def test_structured_errors_are_never_retried(self):
        with ThreadedDaemon() as daemon:
            with RemoteCompiler(*daemon.address, retries=5) as client:
                started = time.perf_counter()
                with pytest.raises(RemoteError) as failure:
                    client.compile("process =")
                assert failure.value.code == "parse-error"
                assert not failure.value.transport
                # 5 retries with backoff would take visible time; a
                # structured error must return in one round-trip.
                assert time.perf_counter() - started < 1.0

    def test_constructor_retries_wait_for_a_slow_daemon(self, tmp_path):
        socket_path = str(tmp_path / "late.sock")
        holder = []

        def start_late():
            time.sleep(0.3)
            holder.append(ThreadedDaemon(socket_path=socket_path).start())

        starter = threading.Thread(target=start_late)
        starter.start()
        try:
            client = RemoteCompiler(
                socket_path=socket_path, retries=20, retry_backoff=0.05
            )
            with client:
                assert client.ping() >= 1
        finally:
            starter.join()
            for daemon in holder:
                daemon.stop()
