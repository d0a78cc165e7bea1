"""Modular compilation: unit fingerprints, artifact sharing, the link stage.

The compositional pipeline rests on four guarantees, each with its own
section below:

* **canonicalization** -- a unit's fingerprint depends only on the unit's
  *shape*: alpha-renaming the program, reordering its modules, or embedding
  the module in a different program must not change it (Hypothesis
  property tests);
* **accounting** -- the unit cache turns module overlap into exactly the
  expected number of compiles: a program sharing ``k`` of its ``n`` units
  with already-compiled programs performs exactly ``n - k`` unit compiles;
* **link determinism** -- linking cached unit artifacts (memory or disk,
  cold or warm) always produces the same whole-program record, and the
  linked executables trace-match the monolithic compile of the same source;
* **resource hygiene** -- a unit that fails to compile mid-link leaves no
  BDD scope behind, and evicting a unit record from the LRU releases its
  scope too.
"""

import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import CausalityError, CompilationService, compile_source
from repro.codegen.ir import GenerationStyle
from repro.compiler import compile_unit_record
from repro.lang import normalize, parse_process
from repro.lang.kernel import rename_program
from repro.lang.units import UNIT_FINGERPRINT_VERSION, rename_text, split_units
from repro.programs import (
    FleetSpec,
    fleet_member_modules,
    generate_fleet,
    library_module_source,
)
from repro.programs.generators import _assemble_program
from repro.programs.suite import benchmark_names, benchmark_source, fleet_sources
from repro.runtime import ReactiveExecutor, random_input_schedule
from repro.service import CompileStore
from repro.service import service as service_module
from repro.service.cache import LRUCache
from repro.service.store import record_from_result, store_key

LIBRARY = list(range(6))
STYLE = GenerationStyle.HIERARCHICAL


def kernel_of(source):
    return normalize(parse_process(source))


def unit_fingerprints(source):
    return [unit.fingerprint() for unit in split_units(kernel_of(source))]


# -- canonicalization --------------------------------------------------------

_BASE_SOURCE = _assemble_program("BASE", LIBRARY)
_BASE_PROGRAM = kernel_of(_BASE_SOURCE)
_BASE_FINGERPRINTS = [unit.fingerprint() for unit in split_units(_BASE_PROGRAM)]
_BASE_NAMES = list(_BASE_PROGRAM.inputs) + list(_BASE_PROGRAM.outputs) + list(
    _BASE_PROGRAM.locals
)


def test_unit_fingerprint_version_is_pinned():
    """Bump :data:`UNIT_FINGERPRINT_VERSION` whenever canonical_form or the
    canonicalization rules change -- stale store records must stop matching."""
    assert UNIT_FINGERPRINT_VERSION == 1


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(len(_BASE_NAMES))), st.integers(0, 9))
def test_alpha_renaming_preserves_unit_fingerprints(perm, salt):
    """Renaming every signal (injectively) changes no unit fingerprint."""
    mapping = {
        name: f"R{salt}_{index}" for name, index in zip(_BASE_NAMES, perm)
    }
    renamed = rename_program(_BASE_PROGRAM, mapping, name="OTHER")
    assert [
        unit.fingerprint() for unit in split_units(renamed)
    ] == _BASE_FINGERPRINTS


@settings(max_examples=25, deadline=None)
@given(st.permutations(LIBRARY))
def test_module_reorder_permutes_unit_fingerprints(perm):
    """Reordering modules permutes the fingerprint list, never rewrites it."""
    shuffled = unit_fingerprints(_assemble_program("SHUF", list(perm)))
    assert shuffled == [_BASE_FINGERPRINTS[module] for module in perm]
    assert sorted(shuffled) == sorted(_BASE_FINGERPRINTS)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, len(LIBRARY) - 1),
    st.integers(0, 30),
    st.integers(0, 30),
)
def test_embedding_invariance(module, position_a, position_b):
    """The same library module embedded anywhere fingerprints identically:
    standalone at any signal position, or inside the six-module program."""
    solo_a = unit_fingerprints(library_module_source(module, position=position_a))
    solo_b = unit_fingerprints(
        library_module_source(module, position=position_b, name="ZOTHER")
    )
    assert solo_a == solo_b == [_BASE_FINGERPRINTS[module]]


def test_library_modules_are_pairwise_distinct():
    """Shape distinctness: no two library modules may collide, otherwise the
    fleet's sharing accounting would silently overcount."""
    assert len(set(_BASE_FINGERPRINTS)) == len(LIBRARY)


# -- accounting --------------------------------------------------------------


def test_second_program_compiles_exactly_the_novel_units():
    """The ISSUE acceptance property: k shared units => n - k unit compiles."""
    spec = FleetSpec(
        name="ACC",
        programs=2,
        library_size=8,
        units_per_program=4,
        shared_units=2,
        seed=3,
    )
    members = fleet_member_modules(spec)
    first, second = generate_fleet(spec)
    shared = len(set(members[0]) & set(members[1]))
    novel = len(set(members[1]) - set(members[0]))
    assert shared == spec.shared_units  # the pool assignment kept them disjoint

    with CompilationService() as service:
        service.compile_modular(first)
        after_first = service.statistics()
        assert after_first["unit_misses"] == spec.units_per_program
        assert after_first["unit_hits"] == 0

        service.compile_modular(second)
        after_second = service.statistics()
        assert after_second["unit_misses"] - after_first["unit_misses"] == novel
        assert after_second["unit_hits"] - after_first["unit_hits"] == shared

        # A warm repeat is a result-cache hit: no unit resolution, no link.
        service.compile_modular(second)
        warm = service.statistics()
        assert warm["unit_misses"] == after_second["unit_misses"]
        assert warm["unit_hits"] == after_second["unit_hits"]
        assert warm["links"] == 2
        assert warm["link_hits"] == 1
        assert warm["link_misses"] == 2
        assert warm["modular_requests"] == 3


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_accounting_matches_module_ground_truth(seed):
    """For any fleet seed, per-member compiles == novel modules, hits == rest."""
    spec = FleetSpec(
        name="GT",
        programs=3,
        library_size=6,
        units_per_program=3,
        shared_units=1,
        seed=seed,
    )
    members = fleet_member_modules(spec)
    with CompilationService() as service:
        seen = set()
        for source, modules in zip(generate_fleet(spec), members):
            before = service.statistics()
            service.compile_modular(source)
            after = service.statistics()
            novel = len(set(modules) - seen)
            assert after["unit_misses"] - before["unit_misses"] == novel
            assert after["unit_hits"] - before["unit_hits"] == len(modules) - novel
            seen |= set(modules)


# -- link determinism --------------------------------------------------------

_LINK_SPEC = FleetSpec(
    name="LNK", programs=1, library_size=4, units_per_program=3, shared_units=3, seed=11
)
_LINK_SOURCE = generate_fleet(_LINK_SPEC)[0]


def test_link_determinism_cold_vs_warm(tmp_path):
    """A record linked from freshly compiled units equals one linked from
    the same units read back out of the store by a brand-new service
    (byte-for-byte), and equals the record path's modular compile.

    The cold ``compile_modular`` spills only the three unit records: live
    results never write a whole-program record.  The warm service re-links
    from those unit records without compiling any unit.
    """
    store = CompileStore(tmp_path)
    with CompilationService(store=store) as cold_service:
        cold = record_from_result(
            cold_service.compile_modular(_LINK_SOURCE, build_flat=True),
            STYLE, build_flat=True, source=_LINK_SOURCE,
        )
        assert cold_service.statistics()["unit_misses"] == 3
    key = store_key(kernel_of(_LINK_SOURCE).fingerprint(), STYLE, True)
    assert store.get(key) is None
    assert len(store) == 3

    with CompilationService(store=store) as warm_service:
        warm = record_from_result(
            warm_service.compile_modular(_LINK_SOURCE, build_flat=True),
            STYLE, build_flat=True, source=_LINK_SOURCE,
        )
        stats = warm_service.statistics()
        assert stats["unit_store_hits"] == 3
        assert stats["unit_misses"] == 0
        assert stats["links"] == 1
    assert cold == warm
    with CompilationService() as uncached:
        assert uncached.compile_record(_LINK_SOURCE, build_flat=True, modular=True) == cold


def test_link_cache_hits_return_isolated_executables():
    """A linked-cache hit behaves like a fresh compile: its own step
    instance, never the cached result's (mirrors the monolithic LRU)."""
    with CompilationService() as service:
        first = service.compile_modular(_LINK_SOURCE)
        second = service.compile_modular(_LINK_SOURCE)
        assert service.statistics()["link_hits"] == 1
        assert second.executable.step_instance is not first.executable.step_instance
        assert second.executable.source == first.executable.source


_ORDER_A = """process P =
  ( ? integer a, b; boolean c;
    ! integer x, y; )
  (| x := a + 1
   | y := b when c
   |)
end;
"""
_ORDER_B = _ORDER_A.replace(
    "(| x := a + 1\n   | y := b when c", "(| y := b when c\n   | x := a + 1"
)


def test_equation_order_is_part_of_the_linked_identity():
    """Two sources that differ only in the order of two independent
    equations share every unit and rename, but not their kernel: each
    answer carries its own fingerprint and kernel text, and the second
    costs a link instead of a ``link_hits`` answer."""
    programs = [kernel_of(_ORDER_A), kernel_of(_ORDER_B)]
    assert programs[0].fingerprint() != programs[1].fingerprint()
    assert unit_fingerprints(_ORDER_A) == unit_fingerprints(_ORDER_B)

    with CompilationService() as service:
        records = service.compile_batch_records(
            [_ORDER_A, _ORDER_B], modular=True, kinds=["kernel"]
        )
        assert [record["fingerprint"] for record in records] == [
            program.fingerprint() for program in programs
        ]
        assert [record["artifacts"]["kernel"] for record in records] == [
            str(program) for program in programs
        ]
        stats = service.statistics()
        assert (stats["links"], stats["link_hits"]) == (2, 0)

    with CompilationService() as service:
        for source, program in zip((_ORDER_A, _ORDER_B), programs):
            linked = service.compile_modular(source)
            assert linked.program.fingerprint() == program.fingerprint()
            assert str(linked.program) == str(program)
        stats = service.statistics()
        assert (stats["links"], stats["link_hits"]) == (2, 0)


def test_clear_cache_drops_linked_results():
    with CompilationService() as service:
        service.compile_modular(_LINK_SOURCE)
        service.clear_cache()
        service.compile_modular(_LINK_SOURCE)
        stats = service.statistics()
        assert stats["link_hits"] == 0
        assert stats["links"] == 2


def _alternation_renamer(mapping):
    """The boundary-lookaround regex ``rename_text`` used to build per call,
    kept here only as the oracle for the linear token scan."""
    alternation = "|".join(
        re.escape(name) for name in sorted(mapping, key=len, reverse=True)
    )
    pattern = re.compile(rf"(?<![A-Za-z0-9])(?:{alternation})(?![A-Za-z0-9])")
    return lambda text: pattern.sub(lambda match: mapping[match.group(0)], text)


def _record_texts(value):
    """Every text of a unit record: strings, dict keys, and string lists
    joined into one newline-separated text."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        yield "\n".join(map(str, value))
        for item in value.values():
            yield from _record_texts(item)
    elif isinstance(value, list):
        if value and all(isinstance(item, str) for item in value):
            yield "\n".join(value)
        else:
            for item in value:
                yield from _record_texts(item)


def test_rename_text_scan_matches_the_alternation_oracle():
    """The token scan renames every unit text of Figure 13 and of the
    reference fleet exactly like the old alternation regex."""
    sources = [benchmark_source(name) for name in benchmark_names()] + fleet_sources()
    checked = 0
    for source in sources:
        for unit in split_units(kernel_of(source)):
            mapping = unit.from_canonical
            oracle = _alternation_renamer(mapping)
            for text in _record_texts(compile_unit_record(unit)):
                assert rename_text(text, mapping) == oracle(text)
                checked += 1
    assert checked > 100


def test_batch_fan_out_matches_serial_modular(monkeypatch):
    """``compile_batch_records(modular=True, jobs>1)`` resolves units on
    worker processes but must compose exactly what serial modular compiles
    produce."""
    from repro.service import record_from_result
    from repro.codegen.ir import GenerationStyle

    spec = FleetSpec(
        name="BATCH", programs=4, library_size=6, units_per_program=3,
        shared_units=2, seed=23,
    )
    sources = generate_fleet(spec)
    with CompilationService() as serial_service:
        expected = [
            record_from_result(
                serial_service.compile_modular(source, build_flat=True),
                GenerationStyle.HIERARCHICAL,
                build_flat=True,
                source=source,
            )
            for source in sources
        ]
    parent = os.getpid()
    inline = []

    def recording(unit):
        if os.getpid() == parent:
            inline.append(unit.fingerprint())
        return compile_unit_record(unit)

    monkeypatch.setattr(service_module, "compile_unit_record", recording)
    with CompilationService() as batch_service:
        batched = batch_service.compile_batch_records(
            sources, jobs=2, build_flat=True, modular=True
        )
        stats = batch_service.statistics()

    # Every unit compiles on its own manager, so even ``bdd_nodes_total``
    # is independent of the order the workers ran in.
    assert batched == expected
    # The fan-out shipped each distinct unit to the workers exactly once,
    # counted each as a unit compile, and compiled none in this process.
    members = fleet_member_modules(spec)
    distinct = len({module for modules in members for module in modules})
    assert stats["unit_cache_entries"] == distinct
    assert stats["unit_misses"] == distinct
    assert inline == []


def test_process_modular_batch_spills_program_records(tmp_path):
    """A ``jobs > 1`` modular batch leaves one program record per source in
    the store, so a fresh daemon on that store answers every source from
    it."""
    from repro.service import CompilationDaemon

    spec = FleetSpec(
        name="SPILL", programs=3, library_size=5, units_per_program=3,
        shared_units=2, seed=7,
    )
    sources = generate_fleet(spec)
    store = CompileStore(tmp_path)
    with CompilationService(store=store) as service:
        records = service.compile_batch_records(sources, jobs=2, modular=True)
    for source, record in zip(sources, records):
        assert store.get(store_key(kernel_of(source).fingerprint(), STYLE)) == record
    daemon = CompilationDaemon(store=store)
    answers = [daemon.compile_record(source, modular=True) for source in sources]
    assert [origin for _, origin in answers] == ["store"] * len(sources)
    assert [record for record, _ in answers] == records


def test_compile_and_compile_modular_keep_separate_entries():
    """One LRU holds both kinds of result for a program, under keys that
    differ only in ``modular``: neither ever answers the other."""
    from repro.compiler import CompilationResult, LinkedCompilationResult

    expected = compile_source(_LINK_SOURCE).python_source()
    with CompilationService() as service:
        for _ in range(2):
            monolithic = service.compile(_LINK_SOURCE)
            linked = service.compile_modular(_LINK_SOURCE)
            assert isinstance(monolithic, CompilationResult)
            assert monolithic.python_source() == expected
            assert isinstance(linked, LinkedCompilationResult)
        stats = service.statistics()
    assert stats["cache_entries"] == 2
    assert stats["scopes"] == 1
    assert (stats["cache_hits"], stats["link_hits"], stats["links"]) == (2, 1, 1)


def test_modular_record_is_whole_program_keyed():
    with CompilationService() as service:
        record = service.compile_record(_LINK_SOURCE, modular=True)
    assert record["kind"] == "program"
    assert record["fingerprint"] == kernel_of(_LINK_SOURCE).fingerprint()


def test_linked_executables_trace_match_monolithic():
    """Both styles of the linked result replay the monolithic trace exactly.

    Fleet members have several free root clocks whose linked default differs
    from a single-root program's, so the run is schedule-driven: presence is
    drawn per root key, and the keys themselves must agree across pipelines.
    """
    monolithic = compile_source(_LINK_SOURCE, build_flat=True)
    with CompilationService() as service:
        linked = service.compile_modular(_LINK_SOURCE, build_flat=True)

    mono_step = monolithic.executable.fresh()
    linked_step = linked.executable.fresh()
    assert [flag[1] for flag in linked_step.root_flags] == [
        flag[1] for flag in mono_step.root_flags
    ]
    schedule = random_input_schedule(
        monolithic.types,
        mono_step.inputs,
        mono_step.root_flags,
        steps=24,
        seed=random.Random(20260808),
    )
    mono_trace = ReactiveExecutor(mono_step).run(24, inputs_per_step=schedule)
    linked_trace = ReactiveExecutor(linked_step).run(24, inputs_per_step=schedule)
    assert [step.outputs for step in linked_trace] == [
        step.outputs for step in mono_trace
    ]

    flat_trace = ReactiveExecutor(linked.executable_flat.fresh()).run(
        24, inputs_per_step=schedule
    )
    assert [step.outputs for step in flat_trace] == [
        step.outputs for step in mono_trace
    ]


# -- resource hygiene --------------------------------------------------------

_GOOD_THEN_BROKEN = (
    "process BROKEN = ( ? integer A, T; ! integer Y, X; )"
    " (| Y := A + 1 | X := X + 1 | synchro { X, T } |) end;"
)


def test_mid_link_failure_keeps_the_good_units_record():
    """Unit 1 (``Y := A + 1``) compiles and stays cached; unit 2 has an
    instantaneous cycle and dies in causality analysis, leaving no record."""
    with CompilationService() as service:
        with pytest.raises(CausalityError):
            service.compile_modular(_GOOD_THEN_BROKEN)
        stats = service.statistics()
        assert stats["unit_misses"] == 1  # only the good unit landed a record
        assert stats["unit_cache_entries"] == 1
        assert stats["links"] == 0

        # The failure poisoned nothing: an honest program still compiles,
        # and the good unit's cached record is reused for it.
        healthy = (
            "process OK = ( ? integer B; ! integer Z; ) (| Z := B + 1 |) end;"
        )
        service.compile_modular(healthy)
        assert service.statistics()["unit_hits"] == 1


def test_unit_eviction_mid_link_still_links():
    """With a 2-entry unit LRU, linking a 3-unit program evicts the first
    unit's record mid-compile; the link already holds every record."""
    spec = FleetSpec(
        name="EVC", programs=1, library_size=3, units_per_program=3,
        shared_units=3, seed=5,
    )
    source = generate_fleet(spec)[0]
    with CompilationService() as service:
        service._unit_records = LRUCache(2)
        linked = service.compile_modular(source)
        assert linked.statistics()["units"] == 3  # the link itself succeeded
        stats = service.statistics()
        assert stats["unit_cache_max_entries"] == 2
        assert stats["unit_cache_entries"] == 2

        units = split_units(kernel_of(source))
        assert [service._unit_records.peek(unit.fingerprint()) is not None
                for unit in units] == [False, True, True]
