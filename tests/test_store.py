"""The on-disk compile store: round-trips, corruption tolerance, rehydration."""

import itertools
import json

import pytest

import repro.codegen.python_backend as python_backend
import repro.compiler as compiler
from repro import GenerationStyle, compile_source
from repro.codegen.c_backend import generate_c_shared_source, generate_c_source
from repro.codegen.ir import build_step_ir
from repro.codegen.python_backend import generate_python_source
from repro.lang.parser import parse_process
from repro.lang.kernel import normalize
from repro.programs import (
    ALARM_SOURCE,
    COUNTER_SOURCE,
    benchmark_names,
    benchmark_source,
    fleet_sources,
)
from repro.runtime import ReactiveExecutor, random_oracle
from repro.compiler import compile_modular_source, compile_unit_record
from repro.lang.units import split_units
from repro.service import CompilationDaemon, CompilationService
from repro.service.service import _process_worker_record
from repro.service.store import (
    STORE_FORMAT,
    UNIT_STYLE,
    CompileStore,
    executable_from_record,
    key_from_record,
    record_from_result,
    store_key,
    types_from_record,
    unit_store_key,
)

STYLE = GenerationStyle.HIERARCHICAL


def fingerprint_of(source):
    return normalize(parse_process(source)).fingerprint()


def make_record(source=COUNTER_SOURCE, build_flat=False):
    result = compile_source(source, build_flat=build_flat)
    record = record_from_result(result, STYLE, build_flat=build_flat)
    key = store_key(result.program.fingerprint(), STYLE, build_flat)
    return result, record, key


def run_trace(executable, types, steps=15, seed=11):
    executable.reset()
    trace = ReactiveExecutor(executable).run(steps, random_oracle(types, seed=seed))
    return [(s.inputs, s.outputs, s.observations) for s in trace]


class TestRoundTrip:
    def test_put_then_get_returns_the_record(self, tmp_path):
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, record)
        assert store.get(key) == record
        assert len(store) == 1
        stats = store.statistics()
        assert stats["hits"] == 1 and stats["writes"] == 1
        assert stats["disk_bytes"] > 0

    def test_records_are_json_all_the_way_down(self, tmp_path):
        """The record must survive a real serialize/deserialize cycle."""
        _, record, key = make_record(build_flat=True)
        assert json.loads(json.dumps(record)) == record

    def test_missing_key_is_a_miss(self, tmp_path):
        store = CompileStore(tmp_path)
        assert store.get(("no-such-fingerprint", STYLE.value, False, True)) is None
        assert store.statistics()["misses"] == 1

    def test_keys_distinguish_options(self, tmp_path):
        _, record, _ = make_record()
        fingerprint = record["fingerprint"]
        store = CompileStore(tmp_path)
        store.put(store_key(fingerprint, STYLE, False), record)
        assert store.get(store_key(fingerprint, GenerationStyle.FLAT, False)) is None
        assert store.get(store_key(fingerprint, STYLE, True)) is None
        assert store.get(store_key(fingerprint, STYLE, False)) is not None

    def test_reformatted_source_shares_one_entry(self, tmp_path):
        """The disk key normalizes surface text away, like the LRU key."""
        reformatted = "\n".join(
            line.rstrip() + "  " for line in COUNTER_SOURCE.splitlines()
        )
        assert fingerprint_of(COUNTER_SOURCE) == fingerprint_of(reformatted)

    def test_clear_removes_entries(self, tmp_path):
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, record)
        store.clear()
        assert len(store) == 0
        assert store.get(key) is None


class TestCorruptionTolerance:
    def test_truncated_entry_is_dropped_and_missed(self, tmp_path):
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, record)
        entry = next(p for p in tmp_path.iterdir() if p.suffix == ".json")
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
        assert store.get(key) is None
        assert store.statistics()["invalid"] == 1
        assert not entry.exists()  # quarantined, not retried forever

    def test_foreign_format_version_is_not_trusted(self, tmp_path):
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, dict(record, format=STORE_FORMAT + 1))
        assert store.get(key) is None
        assert store.statistics()["invalid"] == 1

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        """A record must describe the program its key claims it does."""
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, dict(record, fingerprint="someone-else"))
        assert store.get(key) is None

    def test_option_mismatch_is_rejected(self, tmp_path):
        """A mis-placed record (e.g. a botched directory rebuild) must not
        serve artifacts for the wrong code-generation options."""
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, dict(record, style=GenerationStyle.FLAT.value))
        assert store.get(key) is None
        assert store.statistics()["invalid"] == 1

    @pytest.mark.parametrize(
        "damage",
        [
            {"name": None},
            {"statistics": {"classes": "many"}},
            {"types": {"N": "complex"}},
            {"artifacts": {"python": "pass"}},
            {"step": {"name": "COUNT", "inputs": ["RESET"], "outputs": ["N"]}},
            {"step": {"name": "COUNT", "inputs": "RESET", "outputs": [], "root_flags": []}},
            {"flat_python": "pass"},
        ],
        ids=["name", "statistics", "types", "artifacts", "root_flags", "inputs", "flat"],
    )
    def test_record_failing_the_layout_check_is_quarantined(self, tmp_path, damage):
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        store.put(key, {**record, **damage})
        assert store.get(key) is None
        assert store.statistics()["invalid"] == 1
        assert len(store) == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        _, record, key = make_record()
        store = CompileStore(tmp_path)
        for _ in range(3):
            store.put(key, record)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []
        assert len(store) == 1


def _old_record(old_format):
    """A current record relabelled with an older format (format 3 added ``kind``)."""
    _, record, key = make_record()
    old = dict(record, format=old_format)
    if old_format < 3:
        del old["kind"]
    return old, key


class TestFormatMigration:
    """Format 3 added the ``kind`` field (program vs unit records); format
    4 stores each record text once.

    A store directory written by an older build may hold format-1/2/3
    records at the very paths current keys hash to.  The read path must
    treat them as quarantined misses -- count them invalid and unlink them
    -- never crash or serve them.
    """

    @pytest.mark.parametrize("old_format", [1, 2, 3])
    def test_old_format_record_is_quarantined_not_crashed(self, tmp_path, old_format):
        old, key = _old_record(old_format)
        store = CompileStore(tmp_path)
        store.put(key, old)  # the exact path a current get() probes
        assert len(store) == 1

        fresh = CompileStore(tmp_path)  # a restarted daemon's view
        assert fresh.get(key) is None
        assert fresh.statistics()["invalid"] == 1
        assert len(fresh) == 0  # unlinked: the miss will recompile and overwrite

    @pytest.mark.parametrize("old_format", [1, 2, 3])
    def test_key_from_record_rejects_old_formats(self, old_format):
        old, _ = _old_record(old_format)
        with pytest.raises(ValueError):
            key_from_record(old)

    def test_key_from_record_rejects_unknown_kinds(self):
        _, record, _ = make_record()
        with pytest.raises(ValueError):
            key_from_record(dict(record, kind="mystery"))

    def test_current_program_records_carry_their_kind(self):
        _, record, key = make_record()
        assert record["kind"] == "program"
        assert key_from_record(record) == key


class TestUnitRecords:
    def _unit_record(self, source=COUNTER_SOURCE):
        program = normalize(parse_process(source))
        (unit,) = split_units(program)
        return unit, compile_unit_record(unit)

    def test_unit_record_round_trip(self, tmp_path):
        unit, record = self._unit_record()
        key = unit_store_key(unit.fingerprint())
        store = CompileStore(tmp_path)
        store.put(key, record)
        assert store.get(key) == record
        assert json.loads(json.dumps(record)) == record

    def test_unit_record_key_is_derivable_from_the_record(self):
        unit, record = self._unit_record()
        assert record["kind"] == "unit"
        assert record["style"] == UNIT_STYLE
        assert key_from_record(record) == unit_store_key(unit.fingerprint())

    def test_unit_and_program_keys_never_collide(self, tmp_path):
        """Even for the same fingerprint string, the unit pseudo-style keeps
        unit records on separate paths from every program record."""
        _, record, key = make_record()
        fingerprint = record["fingerprint"]
        store = CompileStore(tmp_path)
        store.put(key, record)
        assert store.get(unit_store_key(fingerprint)) is None
        for style in GenerationStyle:
            for build_flat in (False, True):
                assert unit_store_key(fingerprint) != store_key(fingerprint, style, build_flat)


class TestPruning:
    def _populate(self, store, count=3):
        """Distinct records with controlled, strictly increasing mtimes."""
        import os

        keys = []
        sources = [COUNTER_SOURCE, ALARM_SOURCE,
                   "process TRIV = ( ? integer A; ! integer X; )"
                   " (| X := A + 1 |) end;"][:count]
        for index, source in enumerate(sources):
            _, record, key = make_record(source)
            store.put(key, record)
            # Deterministic recency regardless of filesystem timestamp
            # granularity: entry i was last used at t=1000+i.
            os.utime(store._entry_path(key), (1000 + index, 1000 + index))
            keys.append(key)
        return keys

    def test_prune_to_zero_removes_everything(self, tmp_path):
        store = CompileStore(tmp_path)
        self._populate(store)
        report = store.prune(0)
        assert report["removed"] == 3
        assert report["remaining_entries"] == 0
        assert report["remaining_bytes"] == 0
        assert len(store) == 0
        assert store.statistics()["pruned"] == 3

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        store = CompileStore(tmp_path)
        keys = self._populate(store)
        sizes = [store._entry_path(key).stat().st_size for key in keys]
        # Budget for exactly the two most recent entries.
        report = store.prune(sizes[1] + sizes[2])
        assert report["removed"] == 1
        assert store.get(keys[0]) is None  # the oldest went first
        assert store.get(keys[1]) is not None
        assert store.get(keys[2]) is not None

    def test_get_refreshes_recency_so_prune_is_lru_not_fifo(self, tmp_path):
        import os

        store = CompileStore(tmp_path)
        keys = self._populate(store)
        # Touch the oldest entry through the public API; it becomes the
        # most recently used and must now survive a one-eviction prune.
        assert store.get(keys[0]) is not None
        os.utime(store._entry_path(keys[0]), (2000, 2000))  # deterministic
        sizes = {key: store._entry_path(key).stat().st_size for key in keys}
        report = store.prune(sizes[keys[0]] + sizes[keys[2]])
        assert report["removed"] == 1
        assert store.get(keys[1]) is None  # now the least recently used
        assert store.get(keys[0]) is not None

    def test_touch_refreshes_recency_without_reading(self, tmp_path):
        """touch() is how upper cache tiers keep hot entries prune-safe."""
        store = CompileStore(tmp_path)
        keys = self._populate(store)
        store.touch(keys[0])  # stamps "now", far newer than 1000..1002
        sizes = [store._entry_path(key).stat().st_size for key in keys]
        report = store.prune(sizes[0] + sizes[2])  # room for two entries
        assert report["removed"] == 1
        assert store.get(keys[0]) is not None  # touched: survived
        assert store.get(keys[1]) is None  # now the least recently used
        # Touching a key that has no entry is a harmless no-op.
        store.touch(("no-such-fingerprint", "hierarchical", False, True))

    def test_prune_under_budget_is_a_no_op(self, tmp_path):
        store = CompileStore(tmp_path)
        self._populate(store)
        report = store.prune(10**9)
        assert report["removed"] == 0
        assert len(store) == 3

    def test_prune_counts_corrupt_entries_as_ordinary_bytes(self, tmp_path):
        """Quarantine interaction: a corrupt file not yet seen by get() is
        prunable like any entry; one already quarantined is simply gone."""
        store = CompileStore(tmp_path)
        keys = self._populate(store)
        corrupt_path = store._entry_path(keys[0])
        corrupt_path.write_text("{truncated")
        import os

        os.utime(corrupt_path, (999, 999))  # oldest of all
        report = store.prune(0)
        assert report["removed"] == 3
        assert store.statistics()["invalid"] == 0  # pruned, never "trusted"

    def test_quarantined_entry_no_longer_counts_toward_the_budget(self, tmp_path):
        store = CompileStore(tmp_path)
        keys = self._populate(store, count=2)
        store._entry_path(keys[0]).write_text("{truncated")
        assert store.get(keys[0]) is None  # quarantined (deleted) on read
        assert store.statistics()["invalid"] == 1
        survivor_bytes = store._entry_path(keys[1]).stat().st_size
        report = store.prune(survivor_bytes)
        assert report["removed"] == 0  # the quarantined bytes are gone
        assert store.get(keys[1]) is not None

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            CompileStore(tmp_path).prune(-1)

    def test_prune_skips_inflight_temp_files(self, tmp_path):
        store = CompileStore(tmp_path)
        self._populate(store, count=1)
        inflight = tmp_path / ".tmp-writer.json"
        inflight.write_text("partial")
        store.prune(0)
        assert inflight.exists()  # a concurrent writer's file is untouched

    def test_enforce_budget_prunes_only_on_overshoot(self, tmp_path):
        store = CompileStore(tmp_path)
        self._populate(store)
        assert store.enforce_budget(10**9) is None
        report = store.enforce_budget(0)
        assert report is not None and report["removed"] == 3


class TestRehydration:
    def test_rehydrated_executable_matches_fresh_compile(self, tmp_path):
        result, record, key = make_record(ALARM_SOURCE)
        store = CompileStore(tmp_path)
        store.put(key, record)
        back = store.get(key)
        executable = executable_from_record(back)
        types = types_from_record(back)
        assert types == result.types
        assert run_trace(executable, types) == run_trace(result.executable, result.types)

    def test_rehydrated_flat_executable(self, tmp_path):
        result, record, _ = make_record(COUNTER_SOURCE, build_flat=True)
        executable = executable_from_record(record, flat=True)
        assert executable.style is GenerationStyle.FLAT
        assert run_trace(executable, result.types) == run_trace(
            result.executable_flat, result.types
        )

    def test_record_without_flat_executable_refuses_flat(self):
        _, record, _ = make_record(COUNTER_SOURCE, build_flat=False)
        with pytest.raises(ValueError):
            executable_from_record(record, flat=True)

    def test_rehydrated_executable_is_isolated(self):
        """Two rehydrations never share delay-register state."""
        _, record, _ = make_record()
        first = executable_from_record(record)
        second = executable_from_record(record)
        assert first.step_instance is not second.step_instance

    @pytest.mark.parametrize("style", list(GenerationStyle))
    def test_each_python_text_is_stored_once(self, style):
        result = compile_source(ALARM_SOURCE, style=style, build_flat=True)
        record = record_from_result(result, style, build_flat=True)
        assert ("flat_python" in record) == (style is GenerationStyle.HIERARCHICAL)
        text = json.dumps(record)
        for flat, executable in ((False, result.executable), (True, result.executable_flat)):
            assert text.count(json.dumps(executable.source)) == 1
            back = executable_from_record(record, flat=flat)
            assert (back.source, back.style) == (executable.source, executable.style)
            assert (back.name, back.inputs, back.outputs, back.root_flags) == (
                executable.name, executable.inputs, executable.outputs, executable.root_flags
            )

    def test_artifacts_match_a_fresh_compile(self):
        result, record, _ = make_record()
        assert record["artifacts"]["python"] == result.python_source(STYLE)
        assert record["artifacts"]["c"] == result.c_source(STYLE)
        assert record["artifacts"]["tree"] == result.tree_text()
        assert record["statistics"] == result.statistics()


class TestMixedKindStore:
    """Program and unit records coexisting in one store directory."""

    def _spill_modular(self, tmp_path):
        """One modular daemon compile spilled to disk: unit records + the
        program record.

        Returns ``(store, source, program_key, unit_keys)``.
        """
        from repro.programs import FleetSpec, generate_fleet

        spec = FleetSpec(
            name="MIX", programs=1, library_size=4, units_per_program=3,
            shared_units=3, seed=11,
        )
        source = generate_fleet(spec)[0]
        store = CompileStore(tmp_path)
        CompilationDaemon(store=store).compile_record(source, modular=True)
        units = split_units(normalize(parse_process(source)))
        unit_keys = [unit_store_key(unit.fingerprint()) for unit in units]
        return store, source, store_key(fingerprint_of(source), STYLE), unit_keys

    def test_modular_program_record_round_trips_and_derives_its_key(self, tmp_path):
        store, _, program_key, unit_keys = self._spill_modular(tmp_path)
        assert len(store) == len(unit_keys) + 1
        record = store.get(program_key)
        assert record is not None
        assert record["kind"] == "program"
        assert record["style"] == STYLE.value
        assert key_from_record(record) == program_key
        assert json.loads(json.dumps(record)) == record

    def test_prune_recency_orders_across_kinds(self, tmp_path):
        """Eviction is pure LRU: kinds grant no seniority.  With the modular
        program record oldest and a unit record next, a two-eviction prune
        removes exactly those two, leaving the newer unit and program
        entries."""
        import os

        store, _, program_key, unit_keys = self._spill_modular(tmp_path)
        _, other_record, other_key = make_record()
        store.put(other_key, other_record)
        every = [program_key] + unit_keys + [other_key]
        for index, key in enumerate(every):
            os.utime(store._entry_path(key), (1000 + index, 1000 + index))
        sizes = {key: store._entry_path(key).stat().st_size for key in every}
        budget = sum(sizes.values()) - sizes[program_key] - sizes[unit_keys[0]]
        report = store.prune(budget)
        assert report["removed"] == 2
        assert store.get(program_key) is None
        assert store.get(unit_keys[0]) is None
        for key in unit_keys[1:] + [other_key]:
            assert store.get(key) is not None

    def test_pruned_program_record_falls_back_to_relink_not_recompile(self, tmp_path):
        """Losing the whole-program record costs one link; the surviving
        unit records still spare every unit compile."""
        import os

        store, source, program_key, unit_keys = self._spill_modular(tmp_path)
        os.utime(store._entry_path(program_key), (1000, 1000))  # the oldest
        total = sum(
            store._entry_path(key).stat().st_size
            for key in [program_key] + unit_keys
        )
        program_size = store._entry_path(program_key).stat().st_size
        report = store.prune(total - program_size)
        assert report["removed"] == 1
        assert store.get(program_key) is None

        daemon = CompilationDaemon(store=store)
        _, origin = daemon.compile_record(source, modular=True)
        stats = daemon.statistics()["service"]
        assert origin == "compiled"
        assert stats["unit_store_hits"] == len(unit_keys)
        assert stats["unit_misses"] == 0  # re-linked, never re-compiled
        assert stats["links"] == 1

    def test_pruned_unit_record_is_covered_by_the_program_record(self, tmp_path):
        """The converse: with the program record alive, pruned unit records
        cost nothing -- a store hit never loads them."""
        import os

        store, source, program_key, unit_keys = self._spill_modular(tmp_path)
        for key in unit_keys:
            os.utime(store._entry_path(key), (1000, 1000))
        program_size = store._entry_path(program_key).stat().st_size
        report = store.prune(program_size)
        assert report["removed"] == len(unit_keys)
        assert store.get(program_key) is not None

        daemon = CompilationDaemon(store=store)
        _, origin = daemon.compile_record(source, modular=True)
        stats = daemon.statistics()["service"]
        assert origin == "store"
        assert stats["unit_store_hits"] == 0
        assert stats["unit_misses"] == 0
        assert stats["links"] == 0

    def test_leftover_linked_file_is_never_served_and_ages_out(self, tmp_path):
        """A format-3 ``kind: "linked"`` file written by older code sits
        under a key nothing computes any more: compiles never read it, the
        protocol ops refuse its kind, and ``prune`` evicts it by recency
        like any other file."""
        import hashlib
        import os

        from repro import CompilationService

        _, record, _ = make_record()
        link_fingerprint = hashlib.sha256(b"a link fingerprint").hexdigest()
        leftover = {
            **record,
            "kind": "linked",
            "fingerprint": link_fingerprint,
            "style": "linked",
            "options": {"style": STYLE.value, "build_flat": False, "observable": True},
            "program_fingerprint": record["fingerprint"],
            "unit_fingerprints": [],
        }
        store = CompileStore(tmp_path)
        leftover_key = (link_fingerprint, "linked", False, True)
        store.put(leftover_key, leftover)
        leftover_path = store._entry_path(leftover_key)
        with pytest.raises(ValueError, match="unknown kind 'linked'"):
            key_from_record(leftover)

        with CompilationService(store=store) as service:
            service.compile_modular(COUNTER_SOURCE)
            assert service.statistics()["links"] == 1
        daemon = CompilationDaemon(store=store)
        _, origin = daemon.compile_record(COUNTER_SOURCE, modular=True)
        assert origin == "compiled"  # from the unit record compile_modular spilled
        assert daemon.statistics()["service"]["unit_store_hits"] == 1
        for request in (
            {"op": "store-get", "kind": "linked", "fingerprint": link_fingerprint},
            {"op": "store-put", "record": leftover},
        ):
            response = daemon.handle_request(request)
            assert response["error"]["code"] == "invalid-request"

        os.utime(leftover_path, (1000, 1000))  # never refreshed: the oldest
        entries = [path for path in tmp_path.iterdir() if path.suffix == ".json"]
        total = sum(path.stat().st_size for path in entries)
        report = store.prune(total - leftover_path.stat().st_size)
        assert report["removed"] == 1
        assert not leftover_path.exists()
        assert report["remaining_entries"] == len(entries) - 1


class TestStepIRSharing:
    """A compile's record renders from the IR its executables were built from."""

    @pytest.fixture
    def ir_builds(self, monkeypatch):
        builds = []
        original = compiler.build_step_ir

        def counting_build(*arguments, **options):
            builds.append(arguments)
            return original(*arguments, **options)

        monkeypatch.setattr(compiler, "build_step_ir", counting_build)
        monkeypatch.setattr(python_backend, "build_step_ir", counting_build)
        return builds

    @pytest.mark.parametrize(
        "style, build_flat, expected",
        [
            (GenerationStyle.HIERARCHICAL, False, 1),
            (GenerationStyle.HIERARCHICAL, True, 2),
            (GenerationStyle.FLAT, False, 1),
        ],
    )
    def test_one_ir_build_per_style_on_a_daemon_miss(
        self, ir_builds, style, build_flat, expected
    ):
        daemon = CompilationDaemon()
        record, origin = daemon.compile_record(ALARM_SOURCE, style=style, build_flat=build_flat)
        assert origin == "compiled"
        assert record["artifacts"]["c_shared"]
        assert len(ir_builds) == expected

    @pytest.mark.parametrize("style", list(GenerationStyle))
    @pytest.mark.parametrize("build_flat", [False, True])
    def test_record_artifacts_equal_renders_of_fresh_irs(self, style, build_flat):
        result = compile_source(ALARM_SOURCE, style=style, build_flat=build_flat)
        record = record_from_result(result, style, build_flat=build_flat)
        ir = build_step_ir(result.schedule, result.types, style)
        assert record["artifacts"]["python"] == generate_python_source(ir)
        assert record["artifacts"]["c"] == generate_c_source(ir)
        assert record["artifacts"]["c_shared"] == generate_c_shared_source(ir)
        assert result.step_ir(style) is result.executable.ir
        assert result.python_source(style) is result.executable.source
        if build_flat and style is GenerationStyle.HIERARCHICAL:
            flat = result.executable_flat
            assert result.step_ir(GenerationStyle.FLAT) is flat.ir
            assert result.python_source(GenerationStyle.FLAT) is flat.source

    def test_flat_artifacts_of_a_hierarchical_only_result(self):
        result = compile_source(ALARM_SOURCE)
        assert result.executable_flat is None
        flat = GenerationStyle.FLAT
        ir = build_step_ir(result.schedule, result.types, flat)
        assert result.step_ir(flat) is not result.executable.ir
        assert result.step_ir(flat).style is flat
        assert result.python_source(flat) == generate_python_source(ir)
        assert result.c_source(flat) == generate_c_source(ir)
        assert result.python_source(flat) != result.python_source()


class TestRecordsRenderWithoutByteCompiling:
    """A record carries Python text that only its clients ``exec``: no record
    path byte-compiles it, while every API that hands out runnable code still
    does, once per executable, before it returns."""

    MEMBER = fleet_sources()[0]  # several units, so a modular compile links

    @pytest.fixture
    def instantiations(self, monkeypatch):
        calls = []
        original = python_backend._instantiate_step

        def counting(source, name):
            calls.append(name)
            return original(source, name)

        monkeypatch.setattr(compiler, "_instantiate_step", counting)
        monkeypatch.setattr(python_backend, "_instantiate_step", counting)
        return calls

    @pytest.mark.parametrize("modular", [False, True])
    @pytest.mark.parametrize("build_flat", [False, True])
    def test_record_paths_byte_compile_nothing(self, instantiations, modular, build_flat):
        record = CompilationService().compile_record(
            self.MEMBER, build_flat=build_flat, modular=modular
        )
        worker_record, _ = _process_worker_record(
            self.MEMBER, STYLE, build_flat, {} if modular else None
        )
        assert instantiations == []
        assert worker_record == record
        executable_from_record(record).step({})  # the text still loads and runs
        assert len(instantiations) == 1

    @pytest.mark.parametrize("build_flat", [False, True])
    def test_runnable_results_byte_compile_each_executable_once(
        self, instantiations, build_flat
    ):
        service = CompilationService()
        for compile_ in (
            compile_source, compile_modular_source, service.compile, service.compile_modular
        ):
            del instantiations[:]
            result = compile_(self.MEMBER, build_flat=build_flat)
            assert len(instantiations) == 1 + build_flat, compile_
            assert (result.executable_flat is not None) == build_flat
            assert result.executable is result.executable
            assert len(instantiations) == 1 + build_flat, compile_
        del instantiations[:]
        hit = service.compile(self.MEMBER, build_flat=build_flat)
        assert (hit.executable_flat is not None) == build_flat
        assert instantiations == []  # a hit re-instantiates the built classes


#: (style, build_flat): every combination of the record options
_RECORD_OPTIONS = list(itertools.product(GenerationStyle, (False, True)))
_FIG13_AND_FLEET = [benchmark_source(name) for name in benchmark_names()] + fleet_sources()


@pytest.fixture(scope="module")
def pooled_service():
    service = CompilationService()
    yield service
    service.close()


@pytest.mark.parametrize("modular", [False, True])
def test_served_records_equal_records_of_runnable_results(pooled_service, modular):
    """``compile_record`` inline and on worker processes serves exactly the
    bytes of a fully compiled result's record.  The option combinations
    rotate over the programs, so each mode meets all four across Figure 13
    and the reference fleet without paying for the full product."""
    compile_ = compile_modular_source if modular else compile_source
    inline = CompilationService()
    for index, source in enumerate(_FIG13_AND_FLEET):
        style, build_flat = _RECORD_OPTIONS[(index + 2 * modular) % 4]
        options = dict(style=style, build_flat=build_flat)
        expected = record_from_result(
            compile_(source, **options), style, build_flat=build_flat
        )
        assert inline.compile_record(source, modular=modular, **options) == expected
        assert pooled_service.compile_record(
            source, modular=modular, jobs=2, **options
        ) == expected


@pytest.mark.parametrize("modular", [False, True])
def test_both_styles_share_one_step_interface(modular):
    """What lets a record store the step interface once."""
    compile_ = compile_modular_source if modular else compile_source
    for source in _FIG13_AND_FLEET:
        result = compile_(source)
        hierarchical, flat = (result.step_ir(style) for style in GenerationStyle)
        assert (hierarchical.style, flat.style) == tuple(GenerationStyle)
        interface = [
            (ir.name, ir.inputs, ir.outputs, ir.root_flags) for ir in (hierarchical, flat)
        ]
        assert interface[0] == interface[1]
