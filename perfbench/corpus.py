"""Seeded inputs of the three workloads.

Every program comes from the repository's own control-program generator
(``repro.programs``).  Program *shapes* are a fixed stratified design
(module counts, sensors, branching and complementary feature flags), so
every seed does the same amount of work and ten seeds agree within the
bounds in ``BENCHMARK.json``.  The seed draws everything else: process
names (hence kernel fingerprints), compile order, hot-set popularity, the
request order, oracle samples and every input schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

from repro.programs import ControlProgramSpec, generate_control_program
from repro.programs.generators import FleetSpec, generate_fleet
from repro.programs.suite import benchmark_names, benchmark_source

FEATURES = ("with_filter", "with_counter", "with_arithmetic")

#: the size ladder of ``compile_cold``: modules -> signals (branching 3, sensors 3)
LADDER = {10: 269, 20: 539, 40: 1079}
TINY_LADDER = {2: 53, 4: 107}


@dataclass(frozen=True)
class Program:
    label: str
    source: str
    kind: str  # "generated", "fig13" or "ladder"


def _pair(name: str, modules: int, sensors: int) -> List[ControlProgramSpec]:
    """Two programs of one stratum with complementary shapes.

    The first gets the feature flags and branching picked by the stratum,
    the second the other features, branching ``4 - b`` and ``5 - s``
    sensors, so a pair covers every feature once.
    """
    pick = modules + sensors
    flags = [bool(pick >> bit & 1) for bit in range(len(FEATURES))]
    branching = 1 + pick % 3
    return [
        ControlProgramSpec(
            name=f"{name}A", modules=modules, branching=branching, sensors=sensors,
            **dict(zip(FEATURES, flags)),
        ),
        ControlProgramSpec(
            name=f"{name}B", modules=modules, branching=4 - branching, sensors=5 - sensors,
            **dict(zip(FEATURES, [not flag for flag in flags])),
        ),
    ]


def cold_programs(seed: int, tiny: bool = False) -> List[Program]:
    """``compile_cold``: 48 generated programs, the Figure-13 seven, the ladder.

    Generated programs cover modules 1-12 x sensors 1-4 as one
    complementary pair per module count and sensor split (1+4, 2+3).  The
    seed shuffles them with the Figure-13 programs; the ladder closes the
    list in order of size, so on every seed its three rungs compile back to
    back, after the same set of programs.
    """
    rng = random.Random(f"compile_cold:{seed}")
    programs: List[Program] = []
    for modules in ((1, 3) if tiny else range(1, 13)):
        for sensors in ((2,) if tiny else (1, 2)):
            for spec in _pair(f"G{seed}M{modules}S{sensors}", modules, sensors):
                programs.append(Program(spec.name, generate_control_program(spec), "generated"))
    names = benchmark_names()[-2:] if tiny else benchmark_names()
    programs += [Program(f"fig13-{name}", benchmark_source(name), "fig13") for name in names]
    rng.shuffle(programs)
    for modules, signals in (TINY_LADDER if tiny else LADDER).items():
        spec = ControlProgramSpec(f"LADDER{modules}", modules=modules, branching=3, sensors=3)
        programs.append(Program(f"ladder-{signals}", generate_control_program(spec), "ladder"))
    return programs


@dataclass(frozen=True)
class Request:
    kind: str  # "hot", "miss" or "modular"
    label: str
    source: str
    #: programs of one shape cost the same to compile (misses share shapes)
    shape: str

    @property
    def modular(self) -> bool:
        return self.kind == "modular"


class ServeCorpus:
    """``serve_mix``: a hot set, never-seen programs and a shared-module fleet.

    The request stream is ~75% hot-set repeats (Zipf popularity, exponent
    1.2, in hot-set order, over 32 programs of 1-4 modules), ~8% never-seen programs of 1-10
    modules and ~17% modular
    requests for members of a 24-program fleet whose members share one
    library module and draw two more from an 11-module pool.
    """

    HOT = 32
    MISS_SHAPES = 20
    BLOCK = 100
    #: requests of each kind per block (the rest are modular)
    HOT_REQUESTS = 75
    MISS_REQUESTS = 8

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.hot: List[Tuple[str, str]] = []
        hot = 8 if tiny else self.HOT
        for pair in range(hot // 2):
            modules, sensors = 1 + pair % 4, 1 + pair // 4 % 2
            for spec in _pair(f"H{seed}P{pair}", modules, sensors):
                self.hot.append((spec.name, generate_control_program(spec)))
        self.hot_weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(self.hot))]
        spec = FleetSpec(
            name=f"F{seed}N", programs=6 if tiny else 24, library_size=12,
            units_per_program=3, shared_units=1, seed=7,
        )
        self.fleet = [(f"F{seed}N{i}", source) for i, source in enumerate(generate_fleet(spec))]

    def miss(self, index: int) -> Tuple[str, str, str]:
        """The ``index``-th never-seen program: (label, shape, source).

        Misses cycle through :data:`MISS_SHAPES` program shapes (modules
        1-10, two complementary variants each).  Every repeat of a shape
        carries a new process name, hence a new kernel fingerprint, so the
        daemon has never seen it and compiles it from scratch; repeats let
        a run report the median compile of each shape.
        """
        shape = index % self.MISS_SHAPES
        pair = shape // 2
        specs = _pair(f"M{self.seed}P{pair}", 1 + pair, 1 + pair % 2)
        spec = specs[shape % 2]
        label = f"{spec.name}R{index // self.MISS_SHAPES}"
        source = generate_control_program(replace(spec, name=label))
        return label, spec.name, source

    def requests(self) -> Iterator[Request]:
        """The endless seeded request stream; a run consumes a prefix.

        Requests come in blocks of 100 with exactly 75 hot, 8 miss and 17
        modular requests in seeded order, so every prefix has the same mix.
        """
        rng = random.Random(f"serve_mix:{self.seed}:stream")
        block = ["hot"] * self.HOT_REQUESTS + ["miss"] * self.MISS_REQUESTS
        block += ["modular"] * (self.BLOCK - len(block))
        misses = 0
        while True:
            rng.shuffle(block)
            for kind in block:
                if kind == "hot":
                    label, source = rng.choices(self.hot, weights=self.hot_weights)[0]
                elif kind == "miss":
                    label, shape, source = self.miss(misses)
                    misses += 1
                    yield Request(kind, label, source, shape)
                    continue
                else:
                    label, source = rng.choice(self.fleet)
                yield Request(kind, label, source, label)


def simulate_specs(seed: int, tiny: bool = False) -> List[ControlProgramSpec]:
    """``simulate``: three programs of 3, 6 and 10 modules with every feature on."""
    return [
        ControlProgramSpec(
            name=f"SIM{seed}M{modules}", modules=modules, branching=2, sensors=2,
            with_filter=True, with_counter=True, with_arithmetic=True,
        )
        for modules in ((1, 2) if tiny else (3, 6, 10))
    ]


def distributed_spec(seed: int) -> ControlProgramSpec:
    """The edge/cloud program of the ``simulate`` workload's distributed leg."""
    return ControlProgramSpec(
        name=f"DIST{seed}", modules=3, branching=2, sensors=2,
        with_filter=True, with_counter=True, distributed=True,
    )
