"""Correctness of the compilation service: caching, fresh managers, batching."""

import pytest

from repro import CompilationService, GenerationStyle, compile_source
from repro.bdd import BDDManager
from repro.errors import SignalError
from repro.lang.parser import parse_process
from repro.programs import (
    ACCUMULATOR_SOURCE,
    ALARM_SOURCE,
    COUNTER_SOURCE,
    WATCHDOG_SOURCE,
)
from repro.runtime import ReactiveExecutor, random_oracle


def run_trace(result, steps=20, seed=7):
    result.executable.reset()
    executor = ReactiveExecutor(result.executable)
    trace = executor.run(steps, random_oracle(result.types, seed=seed))
    return [(step.inputs, step.outputs, step.observations) for step in trace]


class TestCompileCache:
    def test_same_source_twice_is_a_cache_hit(self):
        service = CompilationService()
        first = service.compile(COUNTER_SOURCE, build_flat=True)
        second = service.compile(COUNTER_SOURCE, build_flat=True)
        # The analysis artifacts are shared (no pipeline rerun)...
        assert second.schedule is first.schedule
        assert second.hierarchy is first.hierarchy
        # ...but the executables are fresh, isolated instances.
        assert second.executable is not first.executable
        assert second.executable.step_instance is not first.executable.step_instance
        stats = service.statistics()
        assert stats["cache_hits"] == 1
        assert stats["requests"] == 2

    def test_cached_result_has_identical_sources_and_traces(self):
        service = CompilationService()
        first = service.compile(COUNTER_SOURCE, build_flat=True)
        python_source = first.python_source()
        c_source = first.c_source()
        trace_first = run_trace(first)

        second = service.compile(COUNTER_SOURCE, build_flat=True)
        assert second.python_source() == python_source
        assert second.c_source() == c_source
        assert run_trace(second) == trace_first

        # And both agree with an uncached, unpooled compilation.
        reference = compile_source(COUNTER_SOURCE, build_flat=True)
        assert reference.python_source() == python_source
        assert reference.c_source() == c_source
        assert run_trace(reference) == trace_first

    def test_kernel_equivalent_sources_share_an_entry(self):
        service = CompilationService()
        service.compile(COUNTER_SOURCE)
        # Same program, different surface text (whitespace): same kernel
        # fingerprint, so the service must not recompile.
        reformatted = "\n".join(line.rstrip() + "  " for line in COUNTER_SOURCE.splitlines())
        result = service.compile(reformatted)
        assert result.schedule is service.compile(COUNTER_SOURCE).schedule
        # Only the very first compilation missed; the reformatted source hit.
        assert service.statistics()["cache_misses"] == 1
        assert service.statistics()["cache_hits"] == 2
        assert service.statistics()["cache_entries"] == 1

    def test_styles_and_options_are_distinct_entries(self):
        service = CompilationService()
        nested = service.compile(COUNTER_SOURCE, style=GenerationStyle.HIERARCHICAL)
        flat = service.compile(COUNTER_SOURCE, style=GenerationStyle.FLAT)
        assert nested is not flat
        assert flat.executable.style is GenerationStyle.FLAT
        assert service.statistics()["cache_entries"] == 2

    def test_lru_eviction_honours_max_entries(self):
        service = CompilationService(max_entries=2)
        first = service.compile(COUNTER_SOURCE)
        service.compile(WATCHDOG_SOURCE)
        service.compile(ACCUMULATOR_SOURCE)  # evicts the counter entry
        stats = service.statistics()
        assert stats["cache_entries"] == 2
        assert stats["cache_evictions"] == 1
        assert stats["scopes"] == 2  # the evicted program's manager went with it
        recompiled = service.compile(COUNTER_SOURCE)
        assert recompiled.schedule is not first.schedule  # really evicted
        assert service.statistics()["cache_entries"] == 2

    def test_recompilation_after_eviction_still_correct(self):
        service = CompilationService(max_entries=1)
        first = service.compile(COUNTER_SOURCE)
        trace = run_trace(first)
        service.compile(WATCHDOG_SOURCE)
        again = service.compile(COUNTER_SOURCE)
        assert run_trace(again) == trace

    def test_cache_hit_has_fresh_register_state(self):
        """A hit must behave like a fresh compile, not carry old registers."""
        service = CompilationService()
        first = service.compile(ACCUMULATOR_SOURCE)
        # Mutate the delay registers by simulating a few reactions.
        executor = ReactiveExecutor(first.executable)
        executor.run(5, random_oracle(first.types, seed=3))
        second = service.compile(ACCUMULATOR_SOURCE)
        fresh = compile_source(ACCUMULATOR_SOURCE)
        trace_hit = ReactiveExecutor(second.executable).run(
            5, random_oracle(second.types, seed=9)
        )
        trace_fresh = ReactiveExecutor(fresh.executable).run(
            5, random_oracle(fresh.types, seed=9)
        )
        assert [s.observations for s in trace_hit] == [
            s.observations for s in trace_fresh
        ]

    def test_cache_hit_does_not_disturb_an_in_progress_simulation(self):
        """Hits hand out isolated executables: no cross-caller interference."""
        service = CompilationService()
        reference = compile_source(ACCUMULATOR_SOURCE)
        expected = run_trace(reference, steps=6, seed=4)

        first = service.compile(ACCUMULATOR_SOURCE)
        first.executable.reset()
        oracle = random_oracle(first.types, seed=4)
        executor = ReactiveExecutor(first.executable)
        trace = executor.run(3, oracle)
        # Another caller compiles the same source mid-simulation...
        service.compile(ACCUMULATOR_SOURCE)
        # ...and the first caller's run continues unperturbed.
        trace.steps.extend(executor.run(3, oracle).steps)
        assert [(s.inputs, s.outputs, s.observations) for s in trace] == expected

    def test_failed_compilations_do_not_leak_scopes(self):
        """A program that fails to compile must not leave a manager behind."""
        service = CompilationService(max_entries=2)
        for index in range(6):
            broken = (
                f"process BAD{index} = ( ? integer A; ! integer X, Y; )"
                " (| X := Y + A | Y := X + A |) end;"
            )
            with pytest.raises(SignalError):
                service.compile(broken)
        assert service.statistics()["scopes"] == 0
        assert service.statistics()["cache_entries"] == 0

    def test_clear_cache(self):
        service = CompilationService()
        first = service.compile(COUNTER_SOURCE)
        service.clear_cache()
        assert service.cache_size == 0
        assert service.compile(COUNTER_SOURCE) is not first


BROKEN = (
    "process BAD = ( ? integer A; ! integer X, Y; )"
    " (| X := Y + A | Y := X + A |) end;"
)


class TestPooledManager:
    """Every miss compiles on a fresh manager, exactly like compile_source."""

    def test_distinct_programs_never_share_clock_variables(self):
        service = CompilationService()
        results = [
            service.compile(source)
            for source in (COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE)
        ]
        managers = {id(result.hierarchy.manager) for result in results}
        assert len(managers) == len(results)

    def test_pooled_and_unpooled_results_agree(self):
        service = CompilationService()
        pooled = service.compile(ALARM_SOURCE, build_flat=True)
        unpooled = compile_source(ALARM_SOURCE, build_flat=True)
        assert pooled.python_source() == unpooled.python_source()
        assert run_trace(pooled, steps=30, seed=13) == run_trace(
            unpooled, steps=30, seed=13
        )

    def test_statistics_are_a_function_of_the_program(self):
        """A program compiled after another reports only its own BDD table."""
        service = CompilationService()
        service.compile(ALARM_SOURCE)
        served = service.compile(COUNTER_SOURCE)
        assert served.statistics() == compile_source(COUNTER_SOURCE).statistics()

    def test_pool_counters_cover_exactly_the_cached_results(self):
        """``pooled_bdd_nodes``/``scopes`` count the managers the LRU holds."""
        service = CompilationService(max_entries=2)
        results = [
            service.compile(source)
            for source in (COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE)
        ]
        cached = [result.hierarchy.manager for result in results[2:]]
        stats = service.statistics()
        assert stats["scopes"] == 2
        assert stats["pooled_bdd_nodes"] == sum(manager.num_nodes for manager in cached)
        for manager in cached:
            assert manager.statistics()["ite_cache_entries"] == 0


class TestConcurrentCompiles:
    def test_threads_compile_lock_free_and_agree_with_compile_source(self):
        """More threads than cores compile at once; misses share no BDD state."""
        import sys
        import threading

        sources = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE] * 2
        expected = {source: compile_source(source).python_source() for source in sources}
        service = CompilationService()
        served, errors = {}, []

        def work(index, source):
            try:
                served[index] = service.compile(source).python_source()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(index, source))
            for index, source in enumerate(sources)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [served[index] for index in range(len(sources))] == [
            expected[source] for source in sources
        ]
        stats = service.statistics()
        assert stats["requests"] == len(sources)  # no lost counter update
        assert stats["cache_entries"] == 4


class TestBatch:
    SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE]

    def test_batch_results_in_input_order(self):
        service = CompilationService()
        results = service.compile_batch(self.SOURCES)
        assert [r.name for r in results] == ["COUNT", "WATCHDOG", "ACCUMULATOR", "ALARM"]

    def test_concurrent_batch_matches_sequential(self):
        """Worker-process records equal the serial batch's, byte for byte."""
        expected = CompilationService().compile_batch_records(self.SOURCES)
        with CompilationService() as concurrent:
            actual = concurrent.compile_batch_records(self.SOURCES, jobs=2)
        assert actual == expected

    @pytest.mark.parametrize("modular", [False, True])
    def test_batch_records_carry_the_texts_asked_for(self, modular):
        """``kinds`` adds exactly those texts, rendered in the workers or
        in the parent alike; the Python is the lean batch's."""
        from repro.service.store import ON_DEMAND_KINDS

        kinds = ["tree", "c"]  # in ON_DEMAND_KINDS order
        lean = CompilationService().compile_batch_records(self.SOURCES, modular=modular)
        expected = CompilationService().compile_batch_records(
            self.SOURCES, modular=modular, kinds=kinds
        )
        with CompilationService() as concurrent:
            actual = concurrent.compile_batch_records(
                self.SOURCES, jobs=2, modular=modular, kinds=kinds
            )
        assert actual == expected
        for lean_record, record in zip(lean, actual):
            assert [kind for kind in ON_DEMAND_KINDS if kind in record["artifacts"]] == kinds
            assert record["artifacts"]["python"] == lean_record["artifacts"]["python"]

    def test_second_batch_is_fully_cached(self):
        service = CompilationService()
        first = service.compile_batch(self.SOURCES)
        hits_before = service.statistics()["cache_hits"]
        second = service.compile_batch(self.SOURCES)
        assert service.statistics()["cache_hits"] - hits_before == len(self.SOURCES)
        for left, right in zip(first, second):
            assert left.schedule is right.schedule
            assert left.executable is not right.executable

    def test_batch_error_names_the_failing_index(self):
        service = CompilationService()
        with pytest.raises(SignalError) as excinfo:
            service.compile_batch([COUNTER_SOURCE, BROKEN, WATCHDOG_SOURCE])
        assert excinfo.value.batch_index == 1
        # The sources before the failure stay compiled and cached.
        assert service.statistics()["cache_entries"] == 1


class TestEntryPoints:
    def test_compile_process_hits_the_cache_of_compile(self):
        service = CompilationService()
        first = service.compile(COUNTER_SOURCE)
        second = service.compile_process(parse_process(COUNTER_SOURCE))
        assert first.schedule is second.schedule
        assert service.statistics()["cache_hits"] == 1

    def test_compile_respects_options(self):
        service = CompilationService()
        result = service.compile(
            COUNTER_SOURCE, style=GenerationStyle.FLAT, build_flat=True
        )
        assert result.executable.style is GenerationStyle.FLAT
        assert result.executable_flat is not None


class TestBatchFailurePath:
    BROKEN = [
        (
            f"process BAD{index} = ( ? integer A; ! integer X, Y; )"
            " (| X := Y + A | Y := X + A |) end;"
        )
        for index in range(6)
    ]

    def test_service_stays_usable_after_failing_batch(self):
        service = CompilationService()
        with pytest.raises(SignalError):
            service.compile_batch(self.BROKEN)
        result = service.compile(COUNTER_SOURCE)
        assert run_trace(result) == run_trace(compile_source(COUNTER_SOURCE))

    def test_worker_cancellation_releases_scopes(self, monkeypatch):
        """A compile interrupted by a BaseException caches nothing."""

        class Cancelled(BaseException):
            pass

        service = CompilationService()
        original = CompilationService._compile_program

        def dying(*args, **kwargs):
            original(*args, **kwargs)
            raise Cancelled()

        monkeypatch.setattr(CompilationService, "_compile_program", staticmethod(dying))
        with pytest.raises(Cancelled):
            service.compile(COUNTER_SOURCE)
        assert service.statistics()["scopes"] == 0
        assert service.statistics()["cache_entries"] == 0


def _held_objects():
    """Run in a pool worker: its pid and the compile state it holds."""
    import gc
    import os
    import time

    from repro.compiler import CompilationResult, LinkedCompilationResult
    from repro.service import CompileStore

    time.sleep(0.2)  # keep this worker busy, so sibling probes reach the others
    gc.collect()
    kinds = (
        (CompilationResult, LinkedCompilationResult), BDDManager,
        CompilationService, CompileStore,
    )
    objects = gc.get_objects()
    return os.getpid(), [sum(isinstance(o, kind) for o in objects) for kind in kinds]


class TestProcessBatch:
    SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE]

    @staticmethod
    def _probe(pool, jobs):
        """The held-object counts of the pool's workers, by pid."""
        futures = [pool.submit(_held_objects) for _ in range(2 * jobs)]
        return dict(future.result() for future in futures)

    def test_workers_keep_no_compiled_result(self):
        """Workers are stateless: monolithic and modular process-mode
        compiles leave no result, BDD manager, service or store behind in
        any worker."""
        from repro.programs import FleetSpec, generate_fleet

        modular = generate_fleet(
            FleetSpec(name="KEEP", programs=3, library_size=5, units_per_program=3,
                      shared_units=2, seed=3)
        )
        with CompilationService() as service:
            service.compile_record(COUNTER_SOURCE, jobs=2)  # starts the workers
            with service._borrow_process_pool(2) as pool:
                before = self._probe(pool, 2)
            for source in self.SOURCES:
                service.compile_record(source, jobs=2)
            for source in modular:
                service.compile_record(source, modular=True, jobs=2)
            with service._borrow_process_pool(2) as pool:
                after = self._probe(pool, 2)
        assert set(before) & set(after)
        for pid in set(before) & set(after):
            assert after[pid] <= before[pid], pid

    def test_process_batch_returns_records_in_order(self):
        with CompilationService() as service:
            records = service.compile_batch_records(self.SOURCES, jobs=2)
        assert [r["name"] for r in records] == ["COUNT", "WATCHDOG", "ACCUMULATOR"]
        for source, record in zip(self.SOURCES, records):
            assert record["artifacts"]["python"] == compile_source(source).python_source()

    def test_process_batch_error_names_the_failing_index(self):
        with CompilationService() as service:
            with pytest.raises(SignalError) as excinfo:
                service.compile_batch_records(
                    [COUNTER_SOURCE, BROKEN, WATCHDOG_SOURCE], jobs=2
                )
        assert excinfo.value.batch_index == 1

    def test_process_pool_grows_between_batches_and_survives_close(self):
        with CompilationService() as service:
            service.compile_record(self.SOURCES[0], jobs=2)
            assert service._process_jobs == 2
            service.compile_batch_records(self.SOURCES, jobs=3)
            assert service._process_jobs == 3
            service.close()  # recoverable: the next call rebuilds the pool
            record = service.compile_record(self.SOURCES[0], jobs=2)
            assert record["name"] == "COUNT"

    def test_compile_record_matches_in_process_record(self):
        """The inline and worker-process record paths produce equal JSON."""
        with CompilationService() as service:
            inline = service.compile_record(COUNTER_SOURCE)
            remote = service.compile_record(COUNTER_SOURCE, jobs=2)
        assert inline == remote

    def test_pooled_modular_record_matches_inline_and_counts_its_units(self):
        """A pooled modular compile ships the units the parent holds, gets
        back the ones the worker compiled, and counts them here."""
        from repro.programs import FleetSpec, generate_fleet

        first, second = generate_fleet(
            FleetSpec(name="POOL", programs=2, library_size=4, units_per_program=3,
                      shared_units=2, seed=11)
        )
        with CompilationService() as inline:
            expected = [inline.compile_record(s, modular=True) for s in (first, second)]
            inline_stats = inline.statistics()
        with CompilationService() as pooled:
            records = [
                pooled.compile_record(s, modular=True, jobs=2) for s in (first, second)
            ]
            stats = pooled.statistics()
        assert records == expected
        for name in ("unit_hits", "unit_misses", "unit_cache_entries", "links"):
            assert stats[name] == inline_stats[name], name
        assert stats["unit_hits"] == 2  # the shared units shipped with the second
        assert stats["links"] == stats["process_records"] == 2


class TestProcessWorkerStore:
    """Process batches consult the store in the parent before compiling."""

    def test_process_batches_read_the_store_before_compiling(self, tmp_path):
        from repro.service import CompileStore, key_from_record

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
        store = CompileStore(tmp_path / "store")
        # A sentinel key survives only if the batch served the record
        # from disk instead of compiling it fresh.
        store.put(key_from_record(record), {**record, "warm_marker": "from-disk"})

        with CompilationService(store=store) as service:
            records = service.compile_batch_records(
                [COUNTER_SOURCE, WATCHDOG_SOURCE], jobs=2
            )
        assert records[0]["warm_marker"] == "from-disk"  # store hit, no compile
        assert "warm_marker" not in records[1]  # honest cold compile

    def test_process_batches_complete_a_lean_store_hit(self, tmp_path):
        """A store hit lacking a text ``kinds`` names is completed (every
        missing text at once) from its source and written back."""
        from repro.service import CompileStore, key_from_record
        from repro.service.store import ON_DEMAND_KINDS

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
            expected = donor.compile_record(COUNTER_SOURCE, kinds=ON_DEMAND_KINDS)
        store = CompileStore(tmp_path / "store")
        store.put(key_from_record(record), {**record, "warm_marker": "from-disk"})
        with CompilationService(store=store) as service:
            [warmed] = service.compile_batch_records([COUNTER_SOURCE], jobs=2, kinds=["c"])
        assert warmed["warm_marker"] == "from-disk"
        assert warmed["artifacts"] == expected["artifacts"]
        assert store.get(key_from_record(record)) == warmed

    def test_process_batches_write_back_to_the_store(self, tmp_path):
        from repro.service import CompileStore

        store = CompileStore(tmp_path / "store")
        with CompilationService(store=store) as service:
            service.compile_batch_records([COUNTER_SOURCE, WATCHDOG_SOURCE], jobs=2)
        assert len(store) == 2  # both compiles spilled for the next batch

    def test_store_accepts_a_path_and_batches_use_it(self, tmp_path):
        from repro.service import CompileStore, key_from_record

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
        CompileStore(tmp_path).put(key_from_record(record), {**record, "warm_marker": 1})
        with CompilationService(store=str(tmp_path)) as service:
            [warmed] = service.compile_batch_records([COUNTER_SOURCE], jobs=2)
        assert warmed["warm_marker"] == 1

    def test_in_process_compiles_ignore_the_store(self, tmp_path):
        """The in-process path keeps its live-result cache semantics; only
        record-producing process batches layer the disk store."""
        from repro.service import CompileStore, key_from_record

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
        store = CompileStore(tmp_path)
        store.put(key_from_record(record), {**record, "warm_marker": 1})
        with CompilationService(store=store) as service:
            result = service.compile(COUNTER_SOURCE)
        assert result.name == "COUNT"  # live result, unaffected by the record
        assert len(store) == 1  # and nothing extra was written
