"""Helpers shared by the workloads: statistics, memory, paths, results."""

from __future__ import annotations

import collections
import ctypes
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything a run writes (traces, result log, daemon stores and sockets)
OUT = ROOT / ".perfbench-out"

#: repetitions of a workload's set-up; ``setup_s`` is their median
SETUP_REPEATS = 3

#: CPU seconds :func:`reference_loop` takes on an uncontended core of the
#: 2-core x86-64 VM (Python 3.11) the bounds in ``BENCHMARK.json`` were set
#: on.  Service times are reported at that speed (see :class:`Speed`).
REFERENCE_SECONDS = 1.32e-3


def source_env() -> Dict[str, str]:
    """Environment for child interpreters that import the compiler from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def scratch_dir(name: str) -> pathlib.Path:
    """A fresh, empty directory under :data:`OUT` (removed first if present)."""
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def loglog_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log(y)`` against ``log(x)``."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


def peak_rss_mib(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid != "self":
        raise RuntimeError(f"cannot read the peak RSS of process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_clock(pid: int) -> Callable[[], float]:
    """A reader of the CPU seconds live process ``pid`` has used so far."""
    libc = ctypes.CDLL(None, use_errno=True)
    clock = ctypes.c_int()
    if libc.clock_getcpuclockid(pid, ctypes.byref(clock)) != 0:
        raise OSError(ctypes.get_errno(), f"no CPU clock for process {pid}")
    return lambda: time.clock_gettime(clock.value)


def own_cpu() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_loop() -> int:
    """Fixed interpreter work (dict updates, tuples, a sort) of about a millisecond."""
    counts: Dict[int, int] = {}
    items = []
    for index in range(3000):
        key = (index * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
        items.append((key, index))
    items.sort()
    return len(counts) + items[-1][1]


def reference_cpu() -> float:
    """CPU seconds one :func:`reference_loop` takes right now."""
    started = time.process_time()
    reference_loop()
    return time.process_time() - started


class Speed:
    """How fast the core runs right now, measured with :func:`reference_loop`.

    On a shared host the speed of a core changes by up to 2x for seconds
    or minutes at a time (another tenant on the sibling hyperthread), and
    CPU time grows with it.  The benchmark pins itself and its children to
    one core and runs the reference loop next to the work it measures;
    :meth:`normalize` converts CPU seconds to CPU seconds at the reference
    speed (:data:`REFERENCE_SECONDS`).  The reference is the median of the
    last few loop timings, taken at most every ``interval`` seconds.
    """

    def __init__(self, interval: float = 0.0, window: int = 3):
        self.interval = interval
        self._samples: Deque[float] = collections.deque(maxlen=window)
        self._due = 0.0

    def sample(self) -> None:
        self._samples.append(reference_cpu())
        self._due = time.perf_counter() + self.interval

    def normalize(self, cpu_seconds: float) -> float:
        if not self._samples or time.perf_counter() >= self._due:
            self.sample()
        return cpu_seconds * REFERENCE_SECONDS / statistics.median(self._samples)


def median_setup(
    setup: Callable[[], object],
    discard: Callable[[object], None] = lambda value: None,
    live_cpu: Callable[[object], float] = lambda value: 0.0,
) -> Tuple[float, object]:
    """Run ``setup`` :data:`SETUP_REPEATS` times; (median cost, last value).

    A set-up's cost is the CPU time of this process and of the children it
    reaped meanwhile (``cc``, interpreters), plus ``live_cpu(value)`` for
    processes it leaves running (a daemon), at the reference speed measured
    before and after it.  ``discard`` releases what an earlier repetition
    returned before the next one starts.
    """
    costs: List[float] = []
    value = None
    for repeat in range(SETUP_REPEATS):
        if repeat:
            discard(value)
        before = [reference_cpu() for _ in range(3)]
        started = own_cpu()
        value = setup()
        cost = own_cpu() - started + live_cpu(value)
        reference = statistics.median(before + [reference_cpu() for _ in range(3)])
        costs.append(cost * REFERENCE_SECONDS / reference)
    return statistics.median(costs), value


def start_interpreter() -> None:
    """Run a fresh interpreter that imports the whole compiler (a CLI start-up)."""
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.service.daemon, repro.runtime.mass"],
        env=source_env(),
        check=True,
        stdin=subprocess.DEVNULL,
    )


@dataclass
class WorkloadResult:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: failure descriptions (first few), for the report on stderr
    failures: List[str] = field(default_factory=list)
    #: extra facts for the result log (sample counts, window length, ...)
    details: Dict[str, object] = field(default_factory=dict)
    #: the traced run's :class:`perfbench.tracing.Tracer`, written out at the end
    tracer: object = None

    def check(self, ok: bool, description: str) -> None:
        """Count one operation or oracle check; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(description)

    def operations(self, count: int) -> None:
        """Count successful timed operations (compiles, requests, ticks)."""
        self.attempted += count
