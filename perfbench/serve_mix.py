"""Workload ``serve_mix``: a compile daemon serving a mixed request stream.

A real ``python -m repro serve --socket ... --store ...`` daemon with its
default options runs as a child process; one closed-loop client
connection sends the seeded stream of :class:`perfbench.corpus.ServeCorpus`
(hot-set repeats, never-seen programs, modular fleet members) until
``--seconds`` have passed.  Over a run the distinct programs outnumber the
daemon's 128-entry result LRU, so evictions and store reads happen.  The
cache tiers, the store, the protocol and the pooled BDD manager do most of
the work here.

The traced run replays the same requests in-process through
``CompilationDaemon.compile_record`` with spans around the service, store
and compiler layers, restarts a daemon on the written store to time
store-tier reads, and reads the child daemon's ``stats`` counters.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro import compile_source
from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.service.client import RemoteCompiler
from repro.service.daemon import CompilationDaemon
from repro.service.service import CompilationService
from repro.service.store import CompileStore, executable_from_record
from repro.service import daemon as daemon_module

from . import checks
from .common import (
    ROOT,
    Speed,
    WorkloadResult,
    loglog_slope,
    median_setup,
    peak_rss_mib,
    percentile,
    scratch_dir,
    source_env,
    cpu_clock,
)
from .corpus import Request, ServeCorpus
from .tracing import Tracer, install_compiler_probes, probe_seconds, stage_metrics

#: requests drawn up front; a run stops early if it ever consumes them all
MAX_REQUESTS = 6000
#: the daemon's peak RSS is read after this many requests, so that it
#: reflects the same work in every run (the pool grows with each miss);
#: the window is extended if it ends before this many requests
RSS_REQUESTS = 1000
#: served programs checked against in-process compiles, per kind
ORACLE_MONOLITHIC = 6
ORACLE_MODULAR = 3


class Daemon:
    """A ``repro serve`` child process on a unix socket, plus one client."""

    def __init__(self, directory, store):
        self.store = store
        # Relative to the checkout root (the working directory), which keeps
        # the socket path under the unix-socket length limit.
        self.socket = os.path.relpath(directory / "daemon.sock", ROOT)
        self.log = open(directory / "daemon.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--store", os.path.relpath(store, ROOT)],
            cwd=ROOT, env=source_env(), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = None
        deadline = time.monotonic() + 60.0
        while self.client is None:
            if self.process.poll() is not None:
                self.close()
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            try:
                self.client = RemoteCompiler(socket_path=self.socket, timeout=120.0)
            except OSError:
                if time.monotonic() > deadline:
                    self.close()
                    raise
                time.sleep(0.01)
        self.client.ping()
        self.cpu = cpu_clock(self.process.pid)

    def compile(self, request: Request) -> Tuple[float, float, dict]:
        """Send one compile request: (service seconds, wall seconds, response).

        The service time is the CPU time the client and the daemon spend on
        the request -- the round trip without the time a shared host gives
        other tenants.
        """
        payload = {"op": "compile", "source": request.source}
        if request.modular:
            payload["modular"] = True
        client, daemon, wall = time.process_time(), self.cpu(), time.perf_counter()
        response = self.client.call(payload)
        wall = time.perf_counter() - wall
        return time.process_time() - client + self.cpu() - daemon, wall, response

    def close(self) -> None:
        """Shut the daemon down and wait for it; kill it if it hangs."""
        if self.client is not None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 - the kill below still reaps it
                pass
            self.client.close()
            self.client = None
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.log.close()


def _start(corpus: ServeCorpus, out: WorkloadResult, index: int) -> Daemon:
    """Set-up: a fresh daemon on an empty store, with the hot set compiled."""
    directory = scratch_dir(f"serve-{index}")
    daemon = Daemon(directory, directory / "store")
    for label, source in corpus.hot:
        response = daemon.compile(Request("hot", label, source, label))[2]
        out.check(bool(response.get("ok")), f"warm-up {label}: {response.get('error')}")
    return daemon


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: bool = False) -> WorkloadResult:
    out = WorkloadResult()
    corpus = ServeCorpus(seed, tiny)
    stream = corpus.requests()
    requests = [next(stream) for _ in range(MAX_REQUESTS)]
    starts = itertools.count()
    setup_s, daemon = median_setup(
        lambda: _start(corpus, out, next(starts)), discard=lambda old: old.close(),
        live_cpu=lambda started: started.cpu(),
    )
    try:
        sent, rss = _stream(daemon, requests, seconds, out, 100 if tiny else RSS_REQUESTS)
        stats = daemon.client.stats() if trace else None
        _check(daemon, sent, seed, out, corrupt)
    finally:
        daemon.close()

    if trace:
        _traced(out, corpus, sent, stats, daemon.store)
        return out

    # Each request is charged the median service time of its class: the
    # same program answered by the same tier, or the same miss shape
    # compiled.  A modular compile is the only one of its class.
    def key(index: int, request: Request, origin: str) -> tuple:
        if origin == "compiled" and request.kind != "miss":
            return ("once", index)
        return (request.shape, origin)

    keys = [key(index, request, origin) for index, (request, _, origin) in enumerate(sent)]
    samples: Dict[tuple, List[float]] = {}
    for k, (_, cost, _) in zip(keys, sent):
        samples.setdefault(k, []).append(cost)
    typical = {k: statistics.median(costs) for k, costs in samples.items()}
    estimates = [typical[k] for k in keys]
    shapes = {request.shape: request.source for request, _, _ in sent if request.kind == "miss"}
    out.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "service_ms.p50": 1000.0 * statistics.median(estimates),
        "service_ms.tail": 1000.0 * percentile(estimates, 99),
        "throughput_per_s": len(estimates) / sum(estimates),
        "size_exponent": loglog_slope(
            [(_signals(source), typical[(shape, "compiled")]) for shape, source in shapes.items()]
        ),
    }
    out.details.update(tail_percentile=99, classes=len(typical), miss_shapes=len(shapes),
                       wall_throughput_per_s=len(sent) / out.details["window_s"])
    return out


def _signals(source: str) -> int:
    return len(normalize(parse_process(source)).signals)


def _stream(daemon: Daemon, requests: List[Request], seconds: float, out: WorkloadResult,
            rss_requests: int) -> Tuple[List[Tuple[Request, float, str]], float]:
    """The timed window: one request at a time until ``seconds`` have passed.

    Returns the answered requests with their service times (at the
    reference speed, see :class:`perfbench.common.Speed`) and origins, and
    the daemon's peak RSS after ``rss_requests`` requests.  The raw CPU
    times go to ``out.details["raw_cpu_s"]``.
    """
    sent = []
    raw = []
    walls = []
    rss = None
    speed = Speed(interval=0.05, window=9)
    started = time.perf_counter()
    deadline = started + seconds
    for index, request in enumerate(requests):
        if index == rss_requests:
            rss = peak_rss_mib(str(daemon.process.pid))
        if time.perf_counter() >= deadline and rss is not None:
            break
        cost, wall, response = daemon.compile(request)
        ok = bool(response.get("ok"))
        out.check(ok, f"{request.label}: {response.get('error')}")
        if ok:
            sent.append((request, speed.normalize(cost), response["origin"]))
            raw.append(cost)
            walls.append(wall)
    out.details["window_s"] = time.perf_counter() - started
    out.details["wall_ms_p50_p99"] = [1000.0 * statistics.median(walls),
                                      1000.0 * percentile(walls, 99)]
    out.details["requests"] = len(sent)
    out.details["raw_cpu_s"] = raw
    out.details["origins"] = {
        origin: sum(1 for _, _, o in sent if o == origin) for origin in ("memory", "store", "compiled")
    }
    return sent, rss


def _check(daemon: Daemon, sent, seed: int, out: WorkloadResult, corrupt: bool) -> None:
    """Served records against in-process compiles of the same sources.

    Monolithic responses must carry exactly the generated Python of a local
    ``compile_source`` and replay on the interpreter; modular responses
    must produce the same output trace as the local monolithic compile.
    """
    rng = random.Random(f"serve_mix:{seed}:oracle")
    distinct: Dict[str, Request] = {}
    for request, _, _ in sent:
        distinct.setdefault(request.label, request)
    monolithic = checks.sample(rng, sorted(l for l, r in distinct.items() if not r.modular),
                               ORACLE_MONOLITHIC)
    modular = checks.sample(rng, sorted(l for l, r in distinct.items() if r.modular),
                            ORACLE_MODULAR)
    for index, label in enumerate(monolithic + modular):
        request = distinct[label]
        local = compile_source(request.source)
        found = daemon.client.call(
            {"op": "store-get", "fingerprint": local.program.fingerprint()}
        )
        if not found.get("found"):
            out.check(False, f"{label}: served record not found ({found})")
            continue
        record = found["record"]
        if not request.modular:
            out.check(record["artifacts"]["python"] == local.python_source(),
                      f"{label}: served Python differs from an in-process compile")
        schedule = checks.draw_schedule(local.executable, local.types,
                                        random.Random(f"{seed}:{label}"))
        served = checks.run_schedule(executable_from_record(record), schedule)
        if corrupt and index == 0:
            checks.corrupt(served)
        if request.modular:
            problem = checks.outputs_mismatch(
                checks.output_rows(served),
                checks.output_rows(checks.run_schedule(local.executable, schedule)),
            )
            out.check(problem is None, f"{label}: modular against monolithic: {problem}")
        problem = checks.interpreter_mismatch(local.interpreter(), served)
        out.check(problem is None, f"{label}: {problem}")


def _traced(out: WorkloadResult, corpus: ServeCorpus, sent, stats: dict, store) -> None:
    """Daemon counters, a store restart, and the traced in-process replay."""
    daemon_stats, service_stats = stats["daemon"], stats["service"]
    requests = daemon_stats["compile_requests"]
    raw = out.details.pop("raw_cpu_s")
    hit_costs = [cost for (_, _, origin), cost in zip(sent, raw) if origin == "memory"]
    out.per_layer.update({
        "service.hit_ratio": (daemon_stats["memory_hits"] + daemon_stats["store_hits"]) / requests,
        "service.memory_hits": daemon_stats["memory_hits"],
        "service.store_hits": daemon_stats["store_hits"],
        "service.compiles": daemon_stats["compiles"],
        "service.unit_hits": service_stats["unit_hits"],
        "service.unit_misses": service_stats["unit_misses"],
        "service.link_hits": service_stats["link_hits"],
        "service.links": service_stats["links"],
        "bdd.pool_nodes": service_stats["pooled_bdd_nodes"],
        "service.scopes": service_stats["scopes"],
    })

    # Restart on the written store: every distinct program once, read from disk.
    distinct: Dict[str, Request] = {}
    for request, _, _ in sent:
        distinct.setdefault(request.label, request)
    restarted = Daemon(scratch_dir("serve-restart"), store)
    try:
        restart_costs = []
        for request in distinct.values():
            cost, _, response = restarted.compile(request)
            out.check(response.get("origin") == "store",
                      f"restart {request.label}: answered from {response.get('origin')}")
            restart_costs.append(cost)
    finally:
        restarted.close()
    out.per_layer["service.restart_ms.p50"] = 1000.0 * statistics.median(restart_costs)

    replay = [request for request, _, _ in sent]
    untraced_s = _replay(corpus, replay, scratch_dir("serve-untraced") / "store", out)
    tracer = Tracer()
    traced_store = scratch_dir("serve-traced") / "store"
    traced_s = _replay(corpus, replay, traced_store, out, tracer)
    with tracer:
        _install_service_probes(tracer)
        engine = CompilationDaemon(store=traced_store)
        try:
            for request in distinct.values():
                engine.compile_record(request.source, modular=request.modular)
        finally:
            engine.service.close()

    def engine_p50(origin: str) -> float:
        spans = tracer.select("service.engine", origin=origin)
        return 1000.0 * statistics.median(span.duration for span in spans) if spans else 0.0

    out.per_layer.update(stage_metrics(tracer))
    out.per_layer.update({
        "service.engine_hit_ms.p50": engine_p50("memory"),
        "service.engine_miss_ms.p50": engine_p50("compiled"),
        "service.protocol_ms.p50": 1000.0 * statistics.median(hit_costs) - engine_p50("memory"),
        "service.store_get_ms": tracer.self_ms("service.store_get"),
        "service.store_put_ms": tracer.self_ms("service.store_put"),
        "service.record_render_ms": tracer.self_ms("service.record_render"),
        "service.unit_compile_ms": tracer.self_ms("service.unit_compile"),
        "service.link_ms": tracer.self_ms("service.link"),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.probe_s": probe_seconds(tracer),
        "trace.spans": len(tracer.spans),
    })
    out.tracer = tracer


def _install_service_probes(tracer: Tracer) -> None:
    install_compiler_probes(tracer)
    tracer.wrap(CompilationDaemon, "compile_record", "service.engine",
                tag=lambda span, value: span.attrs.__setitem__("origin", value[1]))
    tracer.wrap(CompilationService, "compile_process", "service.compile")
    tracer.wrap(CompilationService, "compile_modular", "service.compile_modular")
    tracer.wrap(CompileStore, "get", "service.store_get")
    tracer.wrap(CompileStore, "put", "service.store_put")
    tracer.wrap(daemon_module, "record_from_result", "service.record_render")


def _replay(corpus: ServeCorpus, replay: List[Request], store, out: WorkloadResult,
            tracer: Tracer = None) -> float:
    """The requests of the timed window, in-process on a fresh engine; CPU seconds."""
    engine = CompilationDaemon(store=store)
    try:
        for _, source in corpus.hot:
            engine.compile_record(source)
        started = time.process_time()
        if tracer is None:
            for request in replay:
                engine.compile_record(request.source, modular=request.modular)
            return time.process_time() - started
        with tracer:
            _install_service_probes(tracer)
            for index, request in enumerate(replay):
                tracer.group = f"request-{index}"
                engine.compile_record(request.source, modular=request.modular)
            return time.process_time() - started
    finally:
        engine.service.close()
