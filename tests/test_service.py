"""Correctness of the compilation service: caching, pooling, batching."""

import pytest

from repro import CompilationService, GenerationStyle, compile_source
from repro.bdd import BDDManager
from repro.errors import ResourceLimitExceeded
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
        assert stats["scopes"] == 2  # the evicted program's scope was dropped
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
        """A program that fails to compile must not leave a scope behind."""
        from repro.errors import SignalError

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


class TestPooledManager:
    def test_distinct_programs_never_share_clock_variables(self):
        service = CompilationService()
        results = [
            service.compile(source)
            for source in (COUNTER_SOURCE, WATCHDOG_SOURCE, ALARM_SOURCE)
        ]

        def used_levels(result):
            levels = set()
            for clock_class in result.hierarchy.classes:
                if clock_class.bdd is not None:
                    levels |= clock_class.bdd.support()
            return levels

        supports = [used_levels(result) for result in results]
        for index, left in enumerate(supports):
            for right in supports[index + 1:]:
                assert left.isdisjoint(right), (
                    "two programs compiled on the pooled manager share BDD variables"
                )

    def test_pooled_manager_is_shared_across_compilations(self):
        manager = BDDManager()
        service = CompilationService(manager=manager)
        first = service.compile(COUNTER_SOURCE)
        nodes_after_first = manager.num_nodes
        service.compile(WATCHDOG_SOURCE)
        assert first.hierarchy.manager.base is manager
        assert manager.num_nodes > nodes_after_first  # both live in one table

    def test_recompiling_same_program_reuses_variables(self):
        service = CompilationService()
        service.compile(COUNTER_SOURCE)
        vars_after_first = service.manager.num_vars
        service.clear_cache()  # force a real recompilation on the same pool
        service.compile(COUNTER_SOURCE)
        assert service.manager.num_vars == vars_after_first

    def test_scoped_manager_forwards_setting_writes_to_base(self):
        """Assigning e.g. max_nodes on a scope must configure the shared pool."""
        manager = BDDManager()
        scope = manager.scoped("ns")
        scope.max_nodes = 2
        assert manager.max_nodes == 2
        scope.declare("a")
        scope.declare("b")
        with pytest.raises(ResourceLimitExceeded):
            scope.declare("c")

    def test_one_scope_misused_for_two_programs_stays_correct(self):
        """Encoding memo entries are per-program even inside one namespace.

        Reusing a raw scope for two different programs is outside the
        service's contract, but it must degrade to shared variable names,
        never to stale value encodings (program B's condition C must not
        pick up program A's opaque C).
        """
        program_a = (
            "process PA = ( ? boolean C; integer U; ! integer X; )"
            " (| X := U when C | synchro { U, C } |) end;"
        )
        program_b = (
            "process PB = ( ? boolean D; integer U; ! integer X; )"
            " (| C := not D | X := U when C | synchro { U, C, D } |)"
            " where boolean C; end;"
        )
        scope = BDDManager().scoped("shared-ns")
        compile_source(program_a, manager=scope)
        on_scope = compile_source(program_b, manager=scope)
        reference = compile_source(program_b)
        assert on_scope.python_source() == reference.python_source()
        assert run_trace(on_scope) == run_trace(reference)

    def test_pooled_and_unpooled_results_agree(self):
        service = CompilationService()
        pooled = service.compile(ALARM_SOURCE, build_flat=True)
        unpooled = compile_source(ALARM_SOURCE, build_flat=True)
        assert pooled.python_source() == unpooled.python_source()
        assert run_trace(pooled, steps=30, seed=13) == run_trace(
            unpooled, steps=30, seed=13
        )


class TestBatch:
    SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE]

    def test_batch_results_in_input_order(self):
        service = CompilationService()
        results = service.compile_batch(self.SOURCES, jobs=1)
        assert [r.name for r in results] == ["COUNT", "WATCHDOG", "ACCUMULATOR", "ALARM"]

    def test_concurrent_batch_matches_sequential(self):
        sequential = CompilationService()
        expected = sequential.compile_batch(self.SOURCES, jobs=1)
        concurrent = CompilationService()
        actual = concurrent.compile_batch(self.SOURCES, jobs=3)
        for left, right in zip(expected, actual):
            assert left.name == right.name
            assert left.python_source() == right.python_source()
            assert run_trace(left) == run_trace(right)
        stats = concurrent.statistics()
        assert stats["worker_managers"] >= 1
        assert stats["worker_bdd_nodes"] > 0

    def test_second_batch_is_fully_cached(self):
        service = CompilationService()
        first = service.compile_batch(self.SOURCES, jobs=2)
        hits_before = service.statistics()["cache_hits"]
        second = service.compile_batch(self.SOURCES, jobs=2)
        assert service.statistics()["cache_hits"] - hits_before == len(self.SOURCES)
        for left, right in zip(first, second):
            assert left.schedule is right.schedule
            assert left.executable is not right.executable

    def test_fully_warm_batch_allocates_no_worker_managers(self):
        service = CompilationService()
        for source in self.SOURCES:  # warm the cache on the pooled manager
            service.compile(source)
        service.compile_batch(self.SOURCES, jobs=3)  # all hits
        assert service.statistics()["worker_managers"] == 0

    def test_worker_managers_are_reused_across_batches(self):
        """The worker pool is bounded by concurrency, not by batch count."""
        service = CompilationService()
        for _ in range(4):
            service.compile_batch(self.SOURCES, jobs=2)
            service.clear_cache()  # force real recompilations every round
        assert service.statistics()["worker_managers"] <= 2


class TestCompilerWiring:
    def test_compile_source_accepts_service(self):
        service = CompilationService()
        first = compile_source(COUNTER_SOURCE, service=service)
        second = compile_source(COUNTER_SOURCE, service=service)
        assert first.schedule is second.schedule
        assert service.statistics()["cache_hits"] == 1

    def test_service_and_manager_are_mutually_exclusive(self):
        service = CompilationService()
        with pytest.raises(ValueError, match="service"):
            compile_source(COUNTER_SOURCE, manager=BDDManager(), service=service)

    def test_compile_source_service_respects_options(self):
        service = CompilationService()
        result = compile_source(
            COUNTER_SOURCE, style=GenerationStyle.FLAT, build_flat=True, service=service
        )
        assert result.executable.style is GenerationStyle.FLAT
        assert result.executable_flat is not None


class TestBatchFailurePath:
    """Jobs that raise must release their scopes, mirroring single compiles."""

    BROKEN = [
        (
            f"process BAD{index} = ( ? integer A; ! integer X, Y; )"
            " (| X := Y + A | Y := X + A |) end;"
        )
        for index in range(6)
    ]

    def test_failing_batch_jobs_release_worker_scopes(self):
        from repro.errors import SignalError

        service = CompilationService(max_entries=4)
        with pytest.raises(SignalError):
            service.compile_batch(self.BROKEN, jobs=3)
        stats = service.statistics()
        assert stats["scopes"] == 0
        assert stats["cache_entries"] == 0

    def test_mixed_batch_keeps_only_successful_scopes(self):
        from repro.errors import SignalError

        service = CompilationService()
        sources = [COUNTER_SOURCE, self.BROKEN[0], WATCHDOG_SOURCE, self.BROKEN[1]]
        with pytest.raises(SignalError):
            service.compile_batch(sources, jobs=4)
        # Every cached (successful) entry still owns at least one scope;
        # no scope belongs to a program that failed.
        stats = service.statistics()
        assert stats["cache_entries"] == stats["scopes"] == 2

    def test_failing_job_never_cancels_queued_jobs(self):
        """Jobs still queued when a failure surfaces run and get cached.

        Successful compiles wait until the failing first job has raised, so
        with two workers the last sources are still queued at that moment.
        """
        import threading

        from repro.errors import SignalError

        service = CompilationService()
        failed = threading.Event()
        original = service._compile_program

        def held_back(*args, **kwargs):
            try:
                result = original(*args, **kwargs)
            except SignalError:
                failed.set()
                raise
            assert failed.wait(timeout=60)
            return result

        service._compile_program = held_back
        sources = [
            self.BROKEN[0], COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE,
        ]
        with pytest.raises(SignalError):
            service.compile_batch(sources, jobs=2)
        stats = service.statistics()
        assert stats["cache_entries"] == stats["scopes"] == 4

    def test_service_stays_usable_after_failing_batch(self):
        from repro.errors import SignalError

        service = CompilationService()
        with pytest.raises(SignalError):
            service.compile_batch(self.BROKEN, jobs=2)
        result = service.compile(COUNTER_SOURCE)
        assert run_trace(result) == run_trace(compile_source(COUNTER_SOURCE))

    def test_worker_cancellation_releases_scopes(self):
        """BaseException (not just Exception) must release the scope."""

        class Cancelled(BaseException):
            pass

        service = CompilationService()

        # Simulate a worker killed mid-compilation: the pipeline raises a
        # BaseException after the scope was registered.
        original = service._compile_program

        def dying(*args, **kwargs):
            original(*args, **kwargs)
            raise Cancelled()

        service._compile_program = dying
        with pytest.raises(Cancelled):
            service.compile(COUNTER_SOURCE)
        assert service.statistics()["scopes"] == 0


class TestProcessBatch:
    SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE]

    def test_process_batch_returns_records_in_order(self):
        with CompilationService() as service:
            records = service.compile_batch(self.SOURCES, jobs=2, workers="processes")
        assert [r["name"] for r in records] == ["COUNT", "WATCHDOG", "ACCUMULATOR"]
        for source, record in zip(self.SOURCES, records):
            assert record["artifacts"]["python"] == compile_source(source).python_source()

    def test_process_batch_error_names_the_failing_index(self):
        from repro.errors import SignalError

        broken = (
            "process BAD = ( ? integer A; ! integer X, Y; )"
            " (| X := Y + A | Y := X + A |) end;"
        )
        with CompilationService() as service:
            with pytest.raises(SignalError) as excinfo:
                service.compile_batch(
                    [COUNTER_SOURCE, broken, WATCHDOG_SOURCE],
                    jobs=2,
                    workers="processes",
                )
        assert excinfo.value.batch_index == 1

    def test_process_pool_grows_between_batches_and_survives_close(self):
        with CompilationService() as service:
            service.compile_batch(self.SOURCES[:1], jobs=1, workers="processes")
            assert service._process_jobs == 1
            service.compile_batch(self.SOURCES, jobs=2, workers="processes")
            assert service._process_jobs == 2
            service.close()  # recoverable: the next call rebuilds the pool
            records = service.compile_batch(
                self.SOURCES[:1], jobs=1, workers="processes"
            )
            assert records[0]["name"] == "COUNT"

    def test_compile_batch_rejects_unknown_worker_mode(self):
        with pytest.raises(ValueError, match="workers"):
            CompilationService().compile_batch(self.SOURCES, workers="fibers")

    def test_compile_record_matches_in_process_record(self):
        """The inline and worker-process record paths produce equal JSON."""
        with CompilationService() as service:
            inline = service.compile_record(COUNTER_SOURCE)
            remote = service.compile_record_in_process(COUNTER_SOURCE)
        assert inline == remote


class TestProcessWorkerStore:
    """Process-pool workers consult the parent's disk store before compiling."""

    def test_workers_read_the_store_before_compiling(self, tmp_path):
        from repro.service import CompileStore, key_from_record

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
        store = CompileStore(tmp_path / "store")
        # A sentinel key survives only if the worker served the record
        # from disk instead of compiling it fresh.
        store.put(key_from_record(record), {**record, "warm_marker": "from-disk"})

        with CompilationService(store=store) as service:
            records = service.compile_batch(
                [COUNTER_SOURCE, WATCHDOG_SOURCE], jobs=2, workers="processes"
            )
        assert records[0]["warm_marker"] == "from-disk"  # store hit, no compile
        assert "warm_marker" not in records[1]  # honest cold compile

    def test_workers_write_back_to_the_store(self, tmp_path):
        from repro.service import CompileStore

        store = CompileStore(tmp_path / "store")
        with CompilationService(store=store) as service:
            service.compile_batch(
                [COUNTER_SOURCE, WATCHDOG_SOURCE], jobs=2, workers="processes"
            )
        assert len(store) == 2  # both compiles spilled for the next batch

    def test_store_accepts_a_path_and_single_submits_use_it(self, tmp_path):
        from repro.service import CompileStore, key_from_record

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
        CompileStore(tmp_path).put(key_from_record(record), {**record, "warm_marker": 1})
        with CompilationService(store=str(tmp_path)) as service:
            warmed = service.compile_record_in_process(COUNTER_SOURCE)
        assert warmed["warm_marker"] == 1

    def test_thread_batches_ignore_the_store(self, tmp_path):
        """The in-process path keeps its live-result cache semantics; only
        record-producing process workers layer the disk store."""
        from repro.service import CompileStore, key_from_record

        with CompilationService() as donor:
            record = donor.compile_record(COUNTER_SOURCE)
        store = CompileStore(tmp_path)
        store.put(key_from_record(record), {**record, "warm_marker": 1})
        with CompilationService(store=store) as service:
            result = service.compile(COUNTER_SOURCE)
        assert result.name == "COUNT"  # live result, unaffected by the record
        assert len(store) == 1  # and nothing extra was written


class TestPoolHygiene:
    SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE]

    def test_pooled_manager_recycled_at_watermark(self):
        # Watermark 1: every cache miss overflows the budget, so each
        # compilation must land on a fresh pooled manager (ids are distinct
        # because the cached results keep the old managers alive).
        service = CompilationService(max_pool_nodes=1)
        managers = set()
        for source in self.SOURCES:
            result = service.compile(source)
            managers.add(id(result.hierarchy.manager.base))
        stats = service.statistics()
        assert stats["pool_recycles"] == len(self.SOURCES)
        assert len(managers) == len(self.SOURCES)

    def test_recycling_preserves_correctness(self):
        """Traces across a recycle match an unpooled compiler exactly."""
        service = CompilationService(max_pool_nodes=30)
        for _ in range(2):  # second round: hits + recompiles after recycling
            for source in self.SOURCES:
                pooled = service.compile(source)
                reference = compile_source(source)
                assert pooled.python_source() == reference.python_source()
                assert run_trace(pooled) == run_trace(reference)
            service.clear_cache()
        assert service.statistics()["pool_recycles"] >= 2

    def test_recycling_drops_old_manager_scopes(self):
        service = CompilationService(max_pool_nodes=1)  # recycle after every miss
        service.compile(COUNTER_SOURCE)
        service.compile(WATCHDOG_SOURCE)
        stats = service.statistics()
        # Scopes on recycled managers are gone; only bounded bookkeeping stays.
        assert stats["scopes"] == 0
        assert stats["pool_recycles"] == 2
        # Cached results still hand out working executables.
        hit = service.compile(COUNTER_SOURCE)
        assert run_trace(hit) == run_trace(compile_source(COUNTER_SOURCE))

    def test_worker_managers_retired_at_watermark(self):
        service = CompilationService(max_pool_nodes=30)
        service.compile_batch(self.SOURCES, jobs=2)
        stats = service.statistics()
        assert stats["worker_recycles"] >= 1
        assert stats["worker_managers"] <= 2
        # Retired workers must not leave scope bookkeeping behind for
        # programs that are no longer cached once the LRU evicts them.
        service.clear_cache()
        assert service.statistics()["scopes"] == 0

    def test_no_recycling_without_watermark(self):
        service = CompilationService()
        for source in self.SOURCES:
            service.compile(source)
        stats = service.statistics()
        assert stats["pool_recycles"] == 0
        assert stats["max_pool_nodes"] == 0
