"""The event-driven class placement equals the fixpoint sweeps it replaced.

``SweepResolver`` keeps the specification of
``ArborescentResolver._place_classes`` as it was first written: sweep the
unplaced classes in sorted order while a sweep places something, and when
one places nothing assume a class free and sweep again.  The worklist must
give the same placement order, definitions, BDDs (node for node, in the same
construction order), assumed-free victims and unresolved constraints on the
Figure-13 programs, the differential fuzz corpus and generated programs with
several independent counter cycles, with and without the ``synchro`` that
makes them resolvable.
"""

import pytest

from repro import compile_source
from repro.clocks.equations import extract_clock_system
from repro.clocks.resolution import ArborescentResolver, FreeDefinition
from repro.errors import ClockCalculusError
from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.lang.types import infer_types
from repro.programs import ControlProgramSpec, generate_control_program
from repro.programs.suite import benchmark_names, benchmark_source

from test_differential_fuzz import NUM_PROGRAMS, spec_for_seed


class SweepResolver(ArborescentResolver):
    """The reference: placement by fixpoint sweeps, one victim per stuck sweep."""

    def _place_classes(self) -> None:
        unplaced = sorted(self._classes, key=lambda c: (c.display_name(), c.id))
        while unplaced:
            progress = False
            for clock_class in list(unplaced):
                if self._try_place(clock_class):
                    unplaced.remove(clock_class)
                    self._placement_order.append(clock_class)
                    progress = True
            if progress:
                continue
            victim = self._choose_victim(unplaced)
            victim.definition = FreeDefinition("assumed free to break a clock cycle")
            victim.assumed_free = True
            victim.bdd = self.manager.declare(f"h_{victim.id}_{victim.display_name()}")
            unplaced.remove(victim)
            self._placement_order.append(victim)


def counting(resolver_class):
    """``resolver_class`` counting its calls of ``_try_place`` in ``tries``."""

    class Counting(resolver_class):
        tries = 0

        def _try_place(self, clock_class):
            self.tries += 1
            return super()._try_place(clock_class)

    return Counting


def multi_counter(cycles, synchro):
    """``cycles`` independent resettable counters, each a ``Z := N $ 1`` loop.

    Each counter's clock is defined only through itself, so every one of
    them needs a victim.  With ``synchro { N, R }`` the deferred equation is
    provable and the program resolves; without it, it is not.
    """
    lines = []
    for i in range(cycles):
        lines.append(f"N{i} := (0 when R{i}) default (Z{i} + 1)")
        lines.append(f"Z{i} := N{i} $ 1 init 0")
        if synchro:
            lines.append(f"synchro {{ N{i}, R{i} }}")
    return (
        "process MC =\n"
        f"  ( ? boolean {', '.join(f'R{i}' for i in range(cycles))};\n"
        f"    ! integer {', '.join(f'N{i}' for i in range(cycles))}; )\n"
        "  (| " + "\n   | ".join(lines) + "\n   |)\n"
        f"  where integer {', '.join(f'Z{i}' for i in range(cycles))};\n"
        "end;\n"
    )


def resolved(resolver_class, source):
    program = normalize(parse_process(source))
    system = extract_clock_system(program, infer_types(program))
    resolver = resolver_class(system)
    return resolver, resolver.resolve()


def outcome(resolver_class, source):
    resolver, hierarchy = resolved(resolver_class, source)
    manager = hierarchy.manager
    return {
        "placement_order": [c.id for c in resolver._placement_order],
        "definitions": [
            (c.id, repr(c.definition), c.used_candidate, c.merged_into, c.bdd.ref)
            for c in resolver._classes
        ],
        "assumed_free": [c.id for c in resolver._placement_order if c.assumed_free],
        "unresolved": [str(u) for u in hierarchy.unresolved],
        "bdd": (manager.num_nodes, [manager.name_of(i) for i in range(manager.num_vars)]),
        "forest": hierarchy.render_forest(),
    }


CORPUS = (
    [(f"fig13-{name}", benchmark_source(name)) for name in benchmark_names()]
    + [(f"fuzz-{seed}", generate_control_program(spec_for_seed(seed)))
       for seed in range(NUM_PROGRAMS)]
    + [(f"counters-{cycles}-{'synchro' if synchro else 'free'}", multi_counter(cycles, synchro))
       for cycles in (2, 3, 5) for synchro in (True, False)]
)


@pytest.mark.parametrize("label, source", CORPUS, ids=[label for label, _ in CORPUS])
def test_worklist_placement_equals_the_sweeps(label, source):
    assert outcome(ArborescentResolver, source) == outcome(SweepResolver, source)


@pytest.mark.parametrize("cycles", [2, 3, 5])
def test_every_counter_cycle_takes_one_victim(cycles):
    _, hierarchy = resolved(ArborescentResolver, multi_counter(cycles, synchro=True))
    assert hierarchy.is_resolved
    victims = [c for c in hierarchy.placement_order if c.assumed_free]
    assert sorted(c.display_name() for c in victims) == [f"^N{i}" for i in range(cycles)]
    compile_source(multi_counter(cycles, synchro=True))


@pytest.mark.parametrize("cycles", [2, 3, 5])
def test_unsynchronized_counters_are_rejected(cycles):
    with pytest.raises(ClockCalculusError) as excinfo:
        compile_source(multi_counter(cycles, synchro=False))
    assert f"could not resolve {cycles} constraint(s)" in str(excinfo.value)


def test_worklist_retries_only_after_a_read_class_is_placed():
    source = generate_control_program(
        ControlProgramSpec("PLACE", modules=12, branching=3, sensors=3)
    )
    worklist, _ = resolved(counting(ArborescentResolver), source)
    sweeps, _ = resolved(counting(SweepResolver), source)
    reads = sum(len(worklist._read_classes(c)) for c in worklist._classes)
    assert worklist.tries <= len(worklist._classes) + reads
    assert worklist.tries < sweeps.tries
