"""The compilation daemon: protocol, caching tiers, restarts, resilience.

Engine-level tests drive :class:`CompilationDaemon.handle_request` directly
(no sockets); server-level tests run a real asyncio server on a background
thread (:class:`ThreadedDaemon`) and talk to it through
:class:`RemoteCompiler` or a raw socket.
"""

import ctypes
import gc
import io
import json
import multiprocessing
import os
import platform
import signal
import socket
import sys
import threading
import time

import pytest

from repro import GenerationStyle, compile_source
from repro.service import (
    CompilationDaemon,
    CompilationService,
    CompileStore,
    RemoteCompiler,
    RemoteError,
    ThreadedDaemon,
)
from repro.service.daemon import pin_allocator
from repro.programs import (
    ALARM_SOURCE,
    COUNTER_SOURCE,
    WATCHDOG_SOURCE,
    FleetSpec,
    generate_fleet,
)


class TestEngine:
    def test_compile_origins_progress_memory(self):
        daemon = CompilationDaemon()
        _, origin_one = daemon.compile_record(COUNTER_SOURCE)
        _, origin_two = daemon.compile_record(COUNTER_SOURCE)
        assert (origin_one, origin_two) == ("compiled", "memory")

    def test_store_tier_fills_and_promotes(self, tmp_path):
        store = CompileStore(tmp_path)
        first = CompilationDaemon(store=store)
        first.compile_record(COUNTER_SOURCE)
        assert len(store) == 1

        second = CompilationDaemon(store=store)
        _, origin = second.compile_record(COUNTER_SOURCE)
        assert origin == "store"
        _, origin = second.compile_record(COUNTER_SOURCE)
        assert origin == "memory"  # promoted on the store hit
        assert second.statistics()["daemon"]["compiles"] == 0

    def test_reformatted_source_hits_without_reparse(self):
        daemon = CompilationDaemon()
        daemon.compile_record(COUNTER_SOURCE)
        reformatted = "\n".join(
            line.rstrip() + "  " for line in COUNTER_SOURCE.splitlines()
        )
        _, origin = daemon.compile_record(reformatted)
        assert origin == "memory"

    def test_compile_response_artifacts_match_local_compiler(self):
        daemon = CompilationDaemon()
        response = daemon.handle_request(
            {
                "op": "compile",
                "source": COUNTER_SOURCE,
                "emit": ["tree", "clocks", "kernel", "python", "c", "stats"],
            }
        )
        assert response["ok"]
        local = compile_source(COUNTER_SOURCE)
        artifacts = response["artifacts"]
        assert artifacts["python"] == local.python_source()
        assert artifacts["c"] == local.c_source()
        assert artifacts["tree"] == local.tree_text()
        assert artifacts["clocks"] == str(local.clock_system)
        assert artifacts["kernel"] == str(local.program)
        assert artifacts["stats"] == local.statistics()

    def test_simulation_is_deterministic_per_seed(self):
        daemon = CompilationDaemon()
        request = {"op": "compile", "source": COUNTER_SOURCE, "simulate": 8, "seed": 3}
        first = daemon.handle_request(request)
        second = daemon.handle_request(request)
        assert first["simulation"]["diagram"] == second["simulation"]["diagram"]
        other_seed = daemon.handle_request(dict(request, seed=4))
        assert other_seed["simulation"]["diagram"] != first["simulation"]["diagram"]

    def test_flat_style_is_a_distinct_entry(self):
        daemon = CompilationDaemon()
        daemon.compile_record(COUNTER_SOURCE)
        _, origin = daemon.compile_record(COUNTER_SOURCE, style=GenerationStyle.FLAT)
        assert origin == "compiled"

    def test_response_is_json_serializable(self):
        daemon = CompilationDaemon()
        response = daemon.handle_request(
            {"op": "compile", "source": COUNTER_SOURCE, "emit": ["stats"], "simulate": 2}
        )
        json.dumps(response)  # must not raise


class TestEngineErrors:
    def test_parse_error_code(self):
        response = CompilationDaemon().handle_request(
            {"op": "compile", "source": "process X = nonsense"}
        )
        assert response == {
            "ok": False,
            "op": "compile",
            "error": response["error"],
        }
        assert response["error"]["code"] == "parse-error"
        assert response["error"]["message"]

    def test_causality_error_code(self):
        broken = (
            "process BAD = ( ? integer A; ! integer X, Y; )"
            " (| X := Y + A | Y := X + A |) end;"
        )
        response = CompilationDaemon().handle_request({"op": "compile", "source": broken})
        assert not response["ok"]
        assert response["error"]["code"] == "causality-error"

    @pytest.mark.parametrize(
        "request_object, code",
        [
            ({"op": "compile"}, "invalid-request"),  # no source
            ({"op": "compile", "source": 17}, "invalid-request"),
            ({"op": "compile", "source": "  "}, "invalid-request"),
            ({"op": "compile", "source": "x", "style": "spiral"}, "invalid-request"),
            ({"op": "compile", "source": "x", "emit": "python"}, "invalid-request"),
            ({"op": "compile", "source": "x", "emit": ["bogus"]}, "invalid-request"),
            ({"op": "compile", "source": "x", "simulate": True}, "invalid-request"),
            ({"op": "warm-up"}, "invalid-request"),
            ({}, "invalid-request"),
        ],
    )
    def test_invalid_requests_are_structured(self, request_object, code):
        response = CompilationDaemon().handle_request(request_object)
        assert not response["ok"]
        assert response["error"]["code"] == code

    def test_invalid_json_line(self):
        response = CompilationDaemon().handle_line(b"{not json\n")
        assert not response["ok"]
        assert response["error"]["code"] == "invalid-json"

    def test_non_object_json_line(self):
        response = CompilationDaemon().handle_line(b"[1, 2, 3]\n")
        assert not response["ok"]
        assert response["error"]["code"] == "invalid-request"

    def test_errors_are_counted_but_do_not_poison_the_engine(self):
        daemon = CompilationDaemon()
        daemon.handle_line(b"garbage\n")
        daemon.handle_request({"op": "compile", "source": "broken"})
        response = daemon.handle_request({"op": "compile", "source": COUNTER_SOURCE})
        assert response["ok"]
        assert daemon.statistics()["daemon"]["errors"] == 2


class TestServer:
    def test_ping_stats_clear_roundtrip(self):
        with ThreadedDaemon() as daemon:
            with RemoteCompiler(*daemon.address) as client:
                assert isinstance(client.ping(), int)
                client.compile(COUNTER_SOURCE)
                assert client.stats()["daemon"]["compiles"] == 1
                client.clear_cache()
                result = client.compile(COUNTER_SOURCE)
                assert result.origin == "compiled"

    def test_remote_modular_compile_round_trip(self):
        """``RemoteCompiler.compile(modular=True)`` drives the daemon's
        modular miss path; the response shape stays whole-program keyed."""
        with ThreadedDaemon() as daemon:
            with RemoteCompiler(*daemon.address) as client:
                result = client.compile(
                    COUNTER_SOURCE, emit=["python"], modular=True
                )
                assert result.origin == "compiled"
                assert result.artifacts["python"] == compile_source(
                    COUNTER_SOURCE
                ).python_source()
                stats = client.stats()["service"]
                assert stats["modular_requests"] == 1
                assert stats["links"] == 1

    def test_concurrent_clients_share_the_cache(self):
        """N clients x M repeats of one source: exactly one real compile."""
        clients, repeats = 4, 3
        with ThreadedDaemon() as daemon:
            errors = []

            def hammer():
                try:
                    with RemoteCompiler(*daemon.address) as client:
                        for _ in range(repeats):
                            client.compile(COUNTER_SOURCE)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

            with RemoteCompiler(*daemon.address) as client:
                stats = client.stats()["daemon"]
            assert stats["compile_requests"] == clients * repeats
            assert stats["compiles"] == 1
            assert stats["memory_hits"] == clients * repeats - 1
            # Hit ratio: everything after the very first request was cached.
            hit_ratio = stats["memory_hits"] / stats["compile_requests"]
            assert hit_ratio == pytest.approx(1 - 1 / (clients * repeats))

    def test_kill_restart_rewarms_from_disk_store(self, tmp_path):
        """A restarted daemon answers its first repeat compile from the store."""
        sources = [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE]
        with ThreadedDaemon(store=str(tmp_path)) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                for source in sources:
                    assert client.compile(source).origin == "compiled"
        # The daemon is dead; only the directory survives.
        assert len(CompileStore(tmp_path)) == len(sources)

        with ThreadedDaemon(store=str(tmp_path)) as reborn:
            with RemoteCompiler(*reborn.address) as client:
                for source in sources:
                    assert client.compile(source).origin == "store"
                stats = client.stats()
                assert stats["daemon"]["compiles"] == 0
                assert stats["daemon"]["store_hits"] == len(sources)
                assert stats["store"]["hits"] == len(sources)
                # ...and the rewarmed entries now live in memory.
                for source in sources:
                    assert client.compile(source).origin == "memory"

    def test_restarted_daemon_results_match_fresh_compiles(self, tmp_path):
        local = compile_source(ALARM_SOURCE)
        with ThreadedDaemon(store=str(tmp_path)) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                client.compile(ALARM_SOURCE)
        with ThreadedDaemon(store=str(tmp_path)) as reborn:
            with RemoteCompiler(*reborn.address) as client:
                result = client.compile(ALARM_SOURCE, emit=["python", "stats"])
                assert result.origin == "store"
                assert result.artifacts["python"] == local.python_source()
                assert result.artifacts["stats"] == local.statistics()

    def test_malformed_requests_do_not_kill_the_server(self):
        with ThreadedDaemon() as daemon:
            host, port = daemon.address
            raw = socket.create_connection((host, port), timeout=10)
            stream = raw.makefile("rwb")
            try:
                for payload in (b"definitely not json\n", b"[]\n", b'{"op": "nope"}\n'):
                    stream.write(payload)
                    stream.flush()
                    response = json.loads(stream.readline())
                    assert response["ok"] is False
                    assert "code" in response["error"]
                # Same connection still serves good requests...
                stream.write(json.dumps({"op": "ping"}).encode() + b"\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
            finally:
                raw.close()
            # ...and so do fresh connections.
            with RemoteCompiler(host, port) as client:
                assert client.compile(COUNTER_SOURCE).name == "COUNT"

    def test_compile_error_reaches_client_as_remote_error(self):
        with ThreadedDaemon() as daemon:
            with RemoteCompiler(*daemon.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.compile("process X = gibberish")
                assert excinfo.value.code == "parse-error"
                # The connection survives the failed compile.
                assert client.compile(COUNTER_SOURCE).name == "COUNT"

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "daemon.sock")
        with ThreadedDaemon(socket_path=path) as daemon:
            assert daemon.address == path
            with RemoteCompiler(socket_path=path) as client:
                assert client.compile(COUNTER_SOURCE).name == "COUNT"

    def test_second_daemon_cannot_hijack_a_live_socket(self, tmp_path):
        """Double-binding a unix socket fails loudly and harms nobody.

        (asyncio's start_unix_server would happily unlink a live daemon's
        socket; the daemon probes for a listener first.)
        """
        path = str(tmp_path / "daemon.sock")
        with ThreadedDaemon(socket_path=path) as daemon:
            with pytest.raises(RuntimeError, match="already listening"):
                ThreadedDaemon(socket_path=path).start(timeout=5)
            # The first daemon's socket file and service are untouched.
            with RemoteCompiler(socket_path=path) as client:
                assert client.compile(COUNTER_SOURCE).name == "COUNT"

    def test_stale_socket_is_rebound(self, tmp_path):
        """A socket file left by a crashed daemon does not block restarts."""
        path = str(tmp_path / "daemon.sock")
        socket.socket(socket.AF_UNIX, socket.SOCK_STREAM).bind(path)  # stale
        with ThreadedDaemon(socket_path=path) as daemon:
            with RemoteCompiler(socket_path=path) as client:
                assert client.ping() >= 1

    def test_shutdown_request_stops_the_server(self):
        daemon = ThreadedDaemon().start()
        try:
            host, port = daemon.address
            with RemoteCompiler(host, port) as client:
                client.shutdown()
            daemon._thread.join(10)
            assert daemon._thread is None or not daemon._thread.is_alive()
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=2)
        finally:
            daemon.stop()

    def test_remote_simulation_matches_local(self):
        local = compile_source(COUNTER_SOURCE)
        from repro.runtime import ReactiveExecutor, random_oracle, timing_diagram

        trace = ReactiveExecutor(local.executable).run(
            6, random_oracle(local.types, seed=2)
        )
        with ThreadedDaemon() as daemon:
            with RemoteCompiler(*daemon.address) as client:
                result = client.compile(COUNTER_SOURCE, simulate=6, seed=2)
        assert result.simulation["diagram"] == timing_diagram(trace.observations())


class TestParallelDaemon:
    """The daemon with several request threads, each parked on a worker process."""

    def test_thread_workers_compile_concurrently(self):
        """jobs=3 request threads compiling distinct programs concurrently
        on worker processes: every answer matches a local compile."""
        sources = [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE]
        with ThreadedDaemon(jobs=3) as daemon:
            errors = []
            answers = {}

            def hammer(source):
                try:
                    with RemoteCompiler(*daemon.address) as client:
                        answers[source] = client.compile(source, emit=["python"])
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=hammer, args=(s,)) for s in sources]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            for source in sources:
                local = compile_source(source)
                assert answers[source].artifacts["python"] == local.python_source()
            with RemoteCompiler(*daemon.address) as client:
                stats = client.stats()
                assert stats["daemon"]["jobs"] == 3
                assert stats["daemon"]["compiles"] == len(sources)
                # Misses keep no live result, hence no BDD manager.
                assert stats["service"]["scopes"] == 0
                assert stats["service"]["pooled_bdd_nodes"] == 0

    def test_process_workers_compile_and_cache(self):
        """jobs > 1: misses compile in worker processes, repeats hit the
        daemon's memory tier, artifacts match a local compile."""
        with ThreadedDaemon(jobs=2) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                first = client.compile(COUNTER_SOURCE, emit=["python", "c"])
                second = client.compile(COUNTER_SOURCE)
                assert (first.origin, second.origin) == ("compiled", "memory")
                local = compile_source(COUNTER_SOURCE)
                assert first.artifacts["python"] == local.python_source()
                assert first.artifacts["c"] == local.c_source()
                stats = client.stats()["daemon"]
                assert stats["workers"] == "processes"
        # The daemon shut its worker-process pool down on exit.
        assert daemon.daemon.service._process_pool is None

    def test_process_worker_errors_reach_the_client(self):
        with ThreadedDaemon(jobs=2) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.compile(
                        "process BAD = ( ? integer A; ! integer X, Y; )"
                        " (| X := Y + A | Y := X + A |) end;"
                    )
                assert excinfo.value.code == "causality-error"
                # The daemon and its process pool survive the failure.
                assert client.compile(COUNTER_SOURCE).name == "COUNT"

    def test_killed_worker_costs_one_request(self):
        """SIGKILL a pool worker while a compile is in flight on the pool:
        that request fails with ``worker-crashed``, and the next compile
        runs on a fresh pool."""
        with ThreadedDaemon(jobs=2) as daemon:
            service = daemon.daemon.service
            with RemoteCompiler(*daemon.address) as client:
                client.compile(WATCHDOG_SOURCE)  # starts the worker processes
            pool = service._process_pool
            # Keep both workers busy, so the compile below is still in
            # flight when the kill lands however fast the compile would be.
            pool.submit(time.sleep, 60)
            pool.submit(time.sleep, 60)
            pid = next(iter(pool._processes))
            errors = []

            def compile_in_flight():
                with RemoteCompiler(*daemon.address) as client:
                    try:
                        client.compile(ALARM_SOURCE)
                    except RemoteError as error:
                        errors.append(error)

            worker = threading.Thread(target=compile_in_flight)
            worker.start()
            deadline = time.monotonic() + 30
            while len(pool._pending_work_items) < 3:  # the sleeps and the compile
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(pid, signal.SIGKILL)
            worker.join(30)
            assert not worker.is_alive()
            assert [error.code for error in errors] == ["worker-crashed"]
            with RemoteCompiler(*daemon.address) as client:
                answer = client.compile(COUNTER_SOURCE, emit=["python"])
            assert answer.origin == "compiled"
            assert answer.artifacts["python"] == compile_source(
                COUNTER_SOURCE
            ).python_source()
            assert pid not in service._process_pool._processes

    def test_process_workers_simulate_from_records(self):
        """Simulation runs on an executable rebuilt from the worker's record."""
        from repro.runtime import ReactiveExecutor, random_oracle, timing_diagram

        local = compile_source(COUNTER_SOURCE)
        trace = ReactiveExecutor(local.executable).run(
            5, random_oracle(local.types, seed=9)
        )
        with ThreadedDaemon(jobs=2) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                result = client.compile(COUNTER_SOURCE, simulate=5, seed=9)
        assert result.simulation["diagram"] == timing_diagram(trace.observations())

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers must inherit the wrapped store methods",
    )
    def test_process_miss_touches_the_store_once_per_key_from_the_daemon(
        self, tmp_path, monkeypatch
    ):
        """Workers compile, the daemon caches: with jobs=2 a monolithic and a
        modular miss read and write each store key once, all from the
        daemon's process."""
        log = tmp_path / "store-io.log"

        def logged(name):
            method = getattr(CompileStore, name)

            def wrapper(self, key, *args):
                with open(log, "a", encoding="utf-8") as stream:
                    stream.write(f"{os.getpid()}\t{name}\t{key!r}\n")
                return method(self, key, *args)

            return wrapper

        monkeypatch.setattr(CompileStore, "get", logged("get"))
        monkeypatch.setattr(CompileStore, "put", logged("put"))
        modular = generate_fleet(
            FleetSpec(name="IO", programs=1, library_size=3, units_per_program=3,
                      shared_units=1, seed=7)
        )[0]
        daemon = CompilationDaemon(store=tmp_path / "store", jobs=2)
        try:
            assert daemon.compile_record(COUNTER_SOURCE)[1] == "compiled"
            assert daemon.compile_record(modular, modular=True)[1] == "compiled"
            assert daemon.service.statistics()["process_records"] == 2
        finally:
            daemon.service.close()
        calls = [line.split("\t") for line in log.read_text().splitlines()]
        assert {pid for pid, _, _ in calls} == {str(os.getpid())}
        for name in ("get", "put"):
            keys = [key for _, op, key in calls if op == name]
            assert len(keys) == len(set(keys)) == 2 + 3, name  # 2 programs, 3 units


class TestRecordOnlyMisses:
    """The daemon caches records, never live compilation results."""

    def test_misses_keep_no_result_and_match_fresh_compiles(self):
        from repro.compiler import CompilationResult, LinkedCompilationResult
        from repro.service import record_from_result

        results = (CompilationResult, LinkedCompilationResult)
        monolithic = [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE]
        modular = generate_fleet(
            FleetSpec(name="RO", programs=3, library_size=5, units_per_program=3,
                      shared_units=2, seed=5)
        )
        gc.collect()
        before = [obj for obj in gc.get_objects() if isinstance(obj, results)]
        daemon = CompilationDaemon()
        served = [daemon.compile_record(source) for source in monolithic]
        served += [daemon.compile_record(source, modular=True) for source in modular]
        assert [origin for _, origin in served] == ["compiled"] * len(served)

        stats = daemon.statistics()["service"]
        assert stats["cache_entries"] == 0
        assert stats["scopes"] == 0
        assert stats["pooled_bdd_nodes"] == 0
        gc.collect()
        leaked = [
            obj for obj in gc.get_objects()
            if isinstance(obj, results) and not any(obj is old for old in before)
        ]
        assert leaked == []

        for source in monolithic:
            assert daemon.compile_record(source)[1] == "memory"
        for source in modular:
            assert daemon.compile_record(source, modular=True)[1] == "memory"

        def dumped(record):
            return json.dumps(record, sort_keys=True)

        for source, (record, _) in zip(monolithic, served):
            expected = record_from_result(
                compile_source(source), GenerationStyle.HIERARCHICAL
            )
            assert dumped(record) == dumped(expected)
        with CompilationService() as reference:
            for source, (record, _) in zip(modular, served[len(monolithic):]):
                expected = record_from_result(
                    reference.compile_modular(source), GenerationStyle.HIERARCHICAL
                )
                assert dumped(record) == dumped(expected)


class _SlowService(CompilationService):
    """A service whose compiles block until released (drain testing).

    The delay sits on :meth:`compile_record`, the entry point of the
    daemon's monolithic miss path; ``delayed`` counts the delays that ran,
    so a test can prove a compile really was in flight.  With a ``gate``
    a compile waits until the gate is set instead of sleeping, and
    ``entered`` is set as soon as a compile has started waiting.
    """

    def __init__(self, delay=0.3, gate=None):
        super().__init__()
        self.delay = delay
        self.gate = gate
        self.entered = threading.Event()
        self.delayed = 0

    def compile_record(self, *args, **kwargs):
        self.entered.set()
        if self.gate is None:
            time.sleep(self.delay)
        else:
            assert self.gate.wait(30), "the test never released the compile"
        self.delayed += 1
        return super().compile_record(*args, **kwargs)


class TestGracefulDrain:
    def test_drain_finishes_inflight_compiles_before_exit(self):
        """request_shutdown(drain=True) mid-compile: the client still gets
        its full response, then the server exits."""
        service = _SlowService()
        daemon = ThreadedDaemon(daemon=CompilationDaemon(service=service))
        daemon.start()
        try:
            host, port = daemon.address
            responses = []

            def compile_slowly():
                with RemoteCompiler(host, port) as client:
                    responses.append(client.compile(COUNTER_SOURCE, emit=["python"]))

            worker = threading.Thread(target=compile_slowly)
            worker.start()
            time.sleep(0.1)  # let the request reach the compile worker
            daemon.daemon.request_shutdown(drain=True)
            worker.join(10)
            assert not worker.is_alive()
            assert len(responses) == 1
            assert service.delayed == 1
            assert responses[0].artifacts["python"] == compile_source(
                COUNTER_SOURCE
            ).python_source()
        finally:
            daemon.stop()

    def test_shutdown_op_with_drain_answers_inflight_requests(self):
        """A client-requested drain shutdown behaves like SIGTERM."""
        service = _SlowService()
        daemon = ThreadedDaemon(daemon=CompilationDaemon(service=service))
        daemon.start()
        try:
            host, port = daemon.address
            responses = []

            def compile_slowly():
                with RemoteCompiler(host, port) as client:
                    responses.append(client.compile(COUNTER_SOURCE))

            worker = threading.Thread(target=compile_slowly)
            worker.start()
            time.sleep(0.1)
            with RemoteCompiler(host, port) as control:
                control.shutdown(drain=True)
            worker.join(10)
            assert not worker.is_alive()
            assert len(responses) == 1 and responses[0].name == "COUNT"
            assert service.delayed == 1
        finally:
            daemon.stop()

    def test_drain_refuses_new_work_on_open_connections(self):
        """Once draining, an established connection cannot submit new work
        (its next request sees the connection close), while the in-flight
        compile still completes and answers."""
        service = _SlowService(0.6)
        daemon = ThreadedDaemon(daemon=CompilationDaemon(service=service))
        daemon.start()
        try:
            host, port = daemon.address
            idle_client = RemoteCompiler(host, port)  # connected before drain
            responses = []

            def compile_slowly():
                with RemoteCompiler(host, port) as client:
                    responses.append(client.compile(COUNTER_SOURCE))

            worker = threading.Thread(target=compile_slowly)
            worker.start()
            time.sleep(0.15)  # the slow compile is now in flight
            daemon.daemon.request_shutdown(drain=True)
            time.sleep(0.05)
            with pytest.raises(RemoteError):
                idle_client.compile(WATCHDOG_SOURCE)  # refused, not compiled
            idle_client.close()
            worker.join(10)
            assert not worker.is_alive()
            assert len(responses) == 1 and responses[0].name == "COUNT"
            assert service.delayed == 1
        finally:
            daemon.stop()

    def test_sigterm_drains_a_real_serve_process(self, tmp_path, cli_server):
        """`python -m repro serve` + SIGTERM: clean exit, socket removed.

        The ``cli_server`` fixture owns the child's lifetime: even if an
        assertion fires before the SIGTERM, teardown reaps the process.
        """
        socket_path = str(tmp_path / "daemon.sock")
        process = cli_server("serve", "--socket", socket_path)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not os.path.exists(socket_path):
            time.sleep(0.05)
        assert os.path.exists(socket_path), "daemon never bound its socket"
        with RemoteCompiler(socket_path=socket_path) as client:
            assert client.compile(COUNTER_SOURCE).name == "COUNT"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=20) == 0
        assert not os.path.exists(socket_path)


class TestMemoryHitsOnTheEventLoop:
    def test_memory_hit_does_not_wait_behind_a_compile(self):
        """With one worker held by a miss, a memory hit on another
        connection is still answered: the event loop answers it."""
        gate = threading.Event()
        gate.set()
        service = _SlowService(gate=gate)
        with ThreadedDaemon(daemon=CompilationDaemon(service=service, jobs=1)) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                assert client.compile(COUNTER_SOURCE).origin == "compiled"
            gate.clear()
            service.entered.clear()
            held = []

            def compile_miss():
                with RemoteCompiler(*daemon.address, timeout=60) as client:
                    held.append(client.compile(WATCHDOG_SOURCE))

            miss = threading.Thread(target=compile_miss)
            miss.start()
            try:
                assert service.entered.wait(10), "the miss never reached the worker"
                with RemoteCompiler(*daemon.address, timeout=5) as client:
                    hit = client.compile(COUNTER_SOURCE, emit=["python"])
                assert hit.origin == "memory" and hit.name == "COUNT"
                assert miss.is_alive() and held == []  # still held by the gate
            finally:
                gate.set()
                miss.join(30)
            assert not miss.is_alive()
            assert len(held) == 1 and held[0].origin == "compiled"
            assert service.delayed == 2

    def test_served_answers_match_in_process_answers(self):
        """The same lines over a socket and through ``handle_line`` on a
        fresh engine: identical response bytes, counters and log fields."""
        fingerprint = compile_source(COUNTER_SOURCE).program.fingerprint()
        compile_counter = {"op": "compile", "source": COUNTER_SOURCE}
        # A record another node put without its "name" is refused, so the
        # program then misses and hits as usual, on the loop as in a worker.
        broken, _ = CompilationDaemon().compile_record(WATCHDOG_SOURCE)
        broken = {key: value for key, value in broken.items() if key != "name"}
        compile_watchdog = {"op": "compile", "source": WATCHDOG_SOURCE}
        lines = [
            json.dumps(request).encode() + b"\n"
            for request in (
                compile_counter,  # miss
                compile_counter,  # hit
                {**compile_counter, "emit": ["python", "stats"]},  # hit with emit
                {**compile_counter, "simulate": 4, "seed": 7},  # hit with simulate
            )
        ] + [
            b"definitely not json\n",
            b'{"op": "nope"}\n',
            json.dumps({"op": "compile", "source": "\ud800"}).encode() + b"\n",
            json.dumps({"op": "store-get", "fingerprint": fingerprint}).encode() + b"\n",
            json.dumps({"op": "store-put", "record": broken}).encode() + b"\n",
            json.dumps(compile_watchdog).encode() + b"\n",  # a miss
            json.dumps(compile_watchdog).encode() + b"\n",  # a hit
            b'{"op": "stats"}\n',
        ]
        served_log = io.StringIO()
        with ThreadedDaemon(request_log=served_log) as daemon:
            raw = socket.create_connection(daemon.address, timeout=30)
            stream = raw.makefile("rwb")
            try:
                served = []
                for line in lines:
                    stream.write(line)
                    stream.flush()
                    served.append(stream.readline())
            finally:
                raw.close()
        local_log = io.StringIO()
        engine = CompilationDaemon(request_log=local_log)
        local = [
            (json.dumps(engine.handle_line(line)) + "\n").encode() for line in lines
        ]
        assert [json.loads(line).get("origin") for line in served[:4]] == [
            "compiled", "memory", "memory", "memory",
        ]
        assert json.loads(served[-4])["error"]["code"] == "invalid-request"
        assert [json.loads(line)["origin"] for line in served[-3:-1]] == [
            "compiled", "memory",
        ]
        assert served == local  # the stats line carries every counter

        def fields(log):
            entries = [json.loads(line) for line in log.getvalue().splitlines()]
            for entry in entries:
                del entry["ts"], entry["elapsed_ms"]
            return entries

        assert len(fields(served_log)) == len(lines)
        assert fields(served_log) == fields(local_log)

    def test_log_lines_cover_every_request(self):
        log = io.StringIO()
        daemon = CompilationDaemon(request_log=log)
        daemon.handle_request({"op": "compile", "source": COUNTER_SOURCE})
        daemon.handle_request({"op": "compile", "source": COUNTER_SOURCE})
        daemon.handle_request({"op": "ping"})
        daemon.handle_request({"op": "compile", "source": "broken"})
        daemon.handle_line(b"not json\n")
        entries = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [e["op"] for e in entries] == [
            "compile", "compile", "ping", "compile", None,
        ]
        assert [e["ok"] for e in entries] == [True, True, True, False, False]
        assert entries[0]["origin"] == "compiled"
        assert entries[1]["origin"] == "memory"
        assert entries[3]["code"] == "parse-error"
        assert entries[4]["code"] == "invalid-json"
        assert all(e["elapsed_ms"] >= 0 for e in entries)

    def test_log_file_is_created_and_closed_by_the_server(self, tmp_path):
        log_path = tmp_path / "requests.log"
        with ThreadedDaemon(request_log=str(log_path)) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                client.compile(COUNTER_SOURCE)
                client.ping()
        entries = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert [e["op"] for e in entries] == ["compile", "ping"]
        # The daemon closed its own file handle on shutdown.
        assert daemon.daemon._request_log is None

    def test_no_log_by_default(self):
        daemon = CompilationDaemon()
        daemon.handle_request({"op": "ping"})
        assert daemon._log_stream() is None


class TestStorePruning:
    def _fill(self, client, sources):
        for source in sources:
            client.compile(source)

    def test_prune_op_shrinks_the_store(self, tmp_path):
        with ThreadedDaemon(store=str(tmp_path)) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                self._fill(client, [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE])
                before = client.stats()["store"]["entries"]
                assert before == 3
                report = client.prune(max_bytes=0)
                assert report["removed"] == 3
                assert report["remaining_entries"] == 0
                assert client.stats()["store"]["entries"] == 0

    def test_prune_without_store_is_invalid_request(self):
        response = CompilationDaemon().handle_request({"op": "prune", "max_bytes": 10})
        assert not response["ok"]
        assert response["error"]["code"] == "invalid-request"

    def test_prune_without_budget_or_policy_is_invalid_request(self, tmp_path):
        daemon = CompilationDaemon(store=CompileStore(tmp_path))
        response = daemon.handle_request({"op": "prune"})
        assert not response["ok"]
        assert response["error"]["code"] == "invalid-request"

    def test_prune_defaults_to_the_configured_policy(self, tmp_path):
        daemon = CompilationDaemon(store=CompileStore(tmp_path), store_max_bytes=0)
        daemon.compile_record(COUNTER_SOURCE)
        # The policy already pruned on spill; an explicit no-budget prune
        # then uses the same configured budget.
        response = daemon.handle_request({"op": "prune"})
        assert response["ok"]
        assert response["remaining_bytes"] == 0

    def test_store_max_bytes_policy_bounds_the_store(self, tmp_path):
        """Under a tight byte budget the store never retains more than the
        budget after a spill (give or take the entry being written)."""
        store = CompileStore(tmp_path)
        probe = CompilationDaemon(store=store)
        probe.compile_record(COUNTER_SOURCE)
        entry_bytes = store.statistics()["disk_bytes"]
        store.clear()

        budget = entry_bytes + entry_bytes // 2  # room for one entry, not two
        daemon = CompilationDaemon(store=store, store_max_bytes=budget)
        for source in [COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE]:
            daemon.compile_record(source)
        assert store.statistics()["disk_bytes"] <= budget
        assert daemon.statistics()["daemon"]["store_pruned_entries"] >= 2

    def test_memory_tier_hits_keep_store_entries_prune_safe(self, tmp_path):
        """A record served from memory must stay recent on disk: prune()
        evicts by mtime, and hot records never reach store.get()."""
        from repro.lang.kernel import normalize
        from repro.lang.parser import parse_process
        from repro.service.store import store_key

        def key_of(source):
            return store_key(
                normalize(parse_process(source)).fingerprint(),
                GenerationStyle.HIERARCHICAL, False,
            )

        store = CompileStore(tmp_path)
        daemon = CompilationDaemon(store=store)
        daemon.compile_record(COUNTER_SOURCE)
        daemon.compile_record(WATCHDOG_SOURCE)
        # Age both entries deterministically, then hit COUNTER from the
        # memory tier: the hit must refresh its disk recency.
        for index, source in enumerate([COUNTER_SOURCE, WATCHDOG_SOURCE]):
            os.utime(store._entry_path(key_of(source)), (1000 + index, 1000 + index))
        _, origin = daemon.compile_record(COUNTER_SOURCE)
        assert origin == "memory"
        survivor_bytes = store._entry_path(key_of(COUNTER_SOURCE)).stat().st_size
        store.prune(survivor_bytes)
        assert store.get(key_of(COUNTER_SOURCE)) is not None
        assert store.get(key_of(WATCHDOG_SOURCE)) is None  # cold: evicted

    def test_pruned_entry_recompiles_cleanly(self, tmp_path):
        with ThreadedDaemon(store=str(tmp_path)) as daemon:
            with RemoteCompiler(*daemon.address) as client:
                assert client.compile(COUNTER_SOURCE).origin == "compiled"
                client.prune(max_bytes=0)
                client.clear_cache()  # drop the memory tier too
                result = client.compile(COUNTER_SOURCE, emit=["python"])
                assert result.origin == "compiled"
                assert result.artifacts["python"] == compile_source(
                    COUNTER_SOURCE
                ).python_source()


def _hollow(record):
    """``record`` with its identity fields only."""
    identity = ("format", "kind", "fingerprint", "style", "build_flat")
    return {key: record[key] for key in identity}


class TestStoreOps:
    """The store-get/store-put ops: the artifact tier over the wire."""

    def _record(self):
        daemon = CompilationDaemon()
        record, _ = daemon.compile_record(COUNTER_SOURCE)
        return record

    def test_store_get_miss_then_hit_with_origins(self, tmp_path):
        daemon = CompilationDaemon(store=str(tmp_path))
        record, _ = daemon.compile_record(COUNTER_SOURCE)
        fingerprint = record["fingerprint"]
        response = daemon.handle_request(
            {"op": "store-get", "fingerprint": fingerprint}
        )
        assert response["ok"] and response["found"]
        assert response["origin"] == "memory"
        assert response["record"]["fingerprint"] == fingerprint

        # A fresh daemon on the same store answers from disk and promotes.
        restarted = CompilationDaemon(store=str(tmp_path))
        response = restarted.handle_request(
            {"op": "store-get", "fingerprint": fingerprint}
        )
        assert response["found"] and response["origin"] == "store"
        response = restarted.handle_request(
            {"op": "store-get", "fingerprint": fingerprint}
        )
        assert response["found"] and response["origin"] == "memory"

    def test_store_get_miss_is_ok_not_error(self):
        daemon = CompilationDaemon()
        response = daemon.handle_request(
            {"op": "store-get", "fingerprint": "no-such-kernel"}
        )
        assert response["ok"] and response["found"] is False
        assert daemon.statistics()["daemon"]["errors"] == 0

    def test_store_get_validates_fields(self):
        daemon = CompilationDaemon()
        for request in (
            {"op": "store-get"},
            {"op": "store-get", "fingerprint": ""},
            {"op": "store-get", "fingerprint": "x", "style": "baroque"},
        ):
            response = daemon.handle_request(request)
            assert not response["ok"]
            assert response["error"]["code"] == "invalid-request"

    def test_store_put_feeds_both_tiers(self, tmp_path):
        record = self._record()
        daemon = CompilationDaemon(store=str(tmp_path))
        response = daemon.handle_request({"op": "store-put", "record": record})
        assert response["ok"] and response["stored"] is True
        # The injected record answers compiles without compiling.
        _, origin = daemon.compile_record(COUNTER_SOURCE)
        assert origin == "memory"
        assert daemon.statistics()["daemon"]["compiles"] == 0

    def test_store_get_refuses_the_linked_kind(self, tmp_path):
        """A whole program has one record kind: ``store-get`` answers
        ``kind: "linked"`` with ``invalid-request`` naming the two kinds
        it serves, and a modular compile spills only program and unit
        records, which ``store-get`` finds under those kinds."""
        from repro.lang.kernel import normalize
        from repro.lang.parser import parse_process
        from repro.lang.units import split_units

        daemon = CompilationDaemon(store=str(tmp_path))
        record, _ = daemon.compile_record(COUNTER_SOURCE, modular=True)
        response = daemon.handle_request(
            {"op": "store-get", "kind": "linked", "fingerprint": record["fingerprint"]}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "invalid-request"
        assert "'program' or 'unit'" in response["error"]["message"]

        units = split_units(normalize(parse_process(COUNTER_SOURCE)))
        assert len(daemon.store) == len(units) + 1
        kinds = {"program": record["fingerprint"]}
        kinds.update({"unit": unit.fingerprint() for unit in units})
        for kind, fingerprint in kinds.items():
            found = daemon.handle_request(
                {"op": "store-get", "kind": kind, "fingerprint": fingerprint}
            )
            assert found["ok"] and found["found"]
            assert found["record"]["kind"] == kind

    def test_store_put_without_disk_store_feeds_memory_only(self):
        record = self._record()
        daemon = CompilationDaemon()
        response = daemon.handle_request({"op": "store-put", "record": record})
        assert response["ok"] and response["stored"] is False
        _, origin = daemon.compile_record(COUNTER_SOURCE)
        assert origin == "memory"

    def test_store_put_rejects_invalid_records(self):
        daemon = CompilationDaemon()
        record = self._record()
        for bad in (
            None,
            "not a record",
            {},
            {**record, "format": 999},
            {**record, "fingerprint": ""},
            {**record, "style": "baroque"},
        ):
            response = daemon.handle_request({"op": "store-put", "record": bad})
            assert not response["ok"]
            assert response["error"]["code"] == "invalid-request"

    def test_hollow_record_cannot_wedge_a_program(self):
        """A record carrying only its identity fields is refused, so every
        later compile of its program is still answered."""
        record = self._record()
        daemon = CompilationDaemon()
        response = daemon.handle_request({"op": "store-put", "record": _hollow(record)})
        assert response["error"]["code"] == "invalid-request"
        response = daemon.handle_request({"op": "compile", "source": COUNTER_SOURCE})
        assert response["ok"] and response["origin"] == "compiled"

    def test_hollow_record_on_disk_is_quarantined_across_a_restart(self, tmp_path):
        """A hollow record written to disk under the program's key (by a
        build that did not check records) is quarantined by the restarted
        daemon, which compiles, rewrites the entry and serves it again."""
        from repro.service.store import key_from_record

        record = self._record()
        CompileStore(tmp_path).put(key_from_record(record), _hollow(record))
        restarted = CompilationDaemon(store=str(tmp_path))
        request = {"op": "compile", "source": COUNTER_SOURCE, "simulate": 2}
        response = restarted.handle_request(request)
        assert response["ok"] and response["origin"] == "compiled"
        assert restarted.statistics()["store"]["invalid"] == 1
        again = CompilationDaemon(store=str(tmp_path)).handle_request(request)
        assert again["origin"] == "store"
        assert again["simulation"] == response["simulation"]

    def test_unknown_op_lists_the_store_ops(self):
        response = CompilationDaemon().handle_request({"op": "nope"})
        assert "store-get" in response["error"]["message"]
        assert "store-put" in response["error"]["message"]


class TestPinAllocator:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="mallopt thresholds are a glibc interface",
    )
    def test_pins_both_thresholds_on_glibc(self):
        assert pin_allocator() is True

    def test_without_mallopt_it_does_nothing(self, monkeypatch):
        class NoMallopt:
            def __init__(self, name):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
        assert pin_allocator() is False
