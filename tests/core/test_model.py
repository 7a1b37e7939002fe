"""Integration tests for VOODBSimulation and run_replication."""

import pytest

from repro.core import (
    MemoryModel,
    SystemClass,
    VOODBConfig,
    VOODBSimulation,
    build_database,
    clear_database_cache,
    run_replication,
)
from repro.ocb import OCBConfig

SMALL = OCBConfig(nc=8, no=400, hotn=80)


def small_config(**overrides) -> VOODBConfig:
    defaults = dict(
        sysclass=SystemClass.CENTRALIZED, buffsize=64, ocb=SMALL
    )
    defaults.update(overrides)
    return VOODBConfig(**defaults)


class TestDatabaseCache:
    def test_same_ocb_config_shares_database(self):
        clear_database_cache()
        a = build_database(SMALL)
        b = build_database(SMALL)
        assert a is b

    def test_different_config_builds_new_database(self):
        a = build_database(SMALL)
        b = build_database(SMALL.with_changes(no=401))
        assert a is not b

    def test_clear_cache(self):
        a = build_database(SMALL)
        clear_database_cache()
        assert build_database(SMALL) is not a

    def test_mismatched_database_rejected(self):
        other = build_database(SMALL.with_changes(no=500))
        with pytest.raises(ValueError, match="mismatch"):
            VOODBSimulation(small_config(), database=other)


class TestStandardRun:
    def test_runs_all_hot_transactions(self):
        results = run_replication(small_config(), seed=1)
        assert results.phase.transactions == SMALL.hotn
        assert results.phase.object_accesses > SMALL.hotn

    def test_reads_bounded_by_misses(self):
        results = run_replication(small_config(), seed=1)
        phase = results.phase
        assert phase.reads <= phase.buffer_misses
        assert phase.buffer_hits + phase.buffer_misses >= phase.object_accesses

    def test_response_times_positive(self):
        results = run_replication(small_config(), seed=1)
        assert results.mean_response_time_ms > 0
        assert results.phase.elapsed_ms > 0
        assert results.phase.throughput_tps > 0

    def test_transaction_mix_recorded(self):
        results = run_replication(small_config(), seed=1)
        kinds = results.phase.transactions_by_kind
        assert sum(kinds.values()) == SMALL.hotn
        assert set(kinds) <= {"set", "simple", "hierarchy", "stochastic"}

    def test_replication_is_deterministic(self):
        a = run_replication(small_config(), seed=5)
        b = run_replication(small_config(), seed=5)
        assert a.total_ios == b.total_ios
        assert a.phase.elapsed_ms == pytest.approx(b.phase.elapsed_ms)

    def test_different_seeds_differ(self):
        a = run_replication(small_config(), seed=5)
        b = run_replication(small_config(), seed=6)
        assert (
            a.total_ios != b.total_ios
            or a.phase.elapsed_ms != b.phase.elapsed_ms
        )

    def test_cold_run_excluded_from_measured_phase(self):
        warm = run_replication(
            small_config(ocb=SMALL.with_changes(coldn=40)), seed=1
        )
        cold_less = run_replication(small_config(), seed=1)
        assert warm.phase.transactions == SMALL.hotn
        # the cold run warms the buffer, so the measured phase sees fewer
        # misses than a cold-start run of the same workload
        assert warm.phase.reads <= cold_less.phase.reads

    def test_to_metrics_flattens(self):
        results = run_replication(small_config(), seed=1)
        metrics = results.to_metrics()
        assert metrics["total_ios"] == float(results.total_ios)
        assert "hit_rate" in metrics
        assert "clustering_overhead_ios" in metrics


class TestPhases:
    def test_phases_accumulate_on_one_clock(self):
        model = VOODBSimulation(small_config(), seed=1)
        first = model.run_phase(10)
        second = model.run_phase(10)
        assert first.transactions == 10
        assert second.transactions == 10
        assert second.elapsed_ms > 0
        assert model.sim.now_ms == pytest.approx(
            first.elapsed_ms + second.elapsed_ms
        )

    def test_same_stream_label_replays_workload(self):
        model = VOODBSimulation(small_config(), seed=1)
        first = model.run_phase(20, stream_label="usage")
        second = model.run_phase(20, stream_label="usage")
        assert first.object_accesses == second.object_accesses
        # second phase runs against a warm buffer
        assert second.reads <= first.reads

    def test_hierarchy_workload_phase(self):
        model = VOODBSimulation(small_config(), seed=1)
        phase = model.run_phase(
            15, workload="hierarchy", hierarchy_type=0, hierarchy_depth=3
        )
        assert phase.transactions == 15
        assert phase.transactions_by_kind == {"hierarchy": 15}

    def test_unknown_workload_rejected(self):
        model = VOODBSimulation(small_config(), seed=1)
        with pytest.raises(ValueError, match="unknown workload"):
            model.run_phase(5, workload="olap")


class TestPhaseResponses:
    """A phase's response-time sum and maximum come from its series."""

    def test_sum_and_max_match_the_phase_series(self):
        results = run_replication(small_config(nusers=2, multilvl=2), seed=1)
        phase = results.phase
        series = phase.response_times_ms
        assert len(series) == phase.transactions
        assert phase.response_time_sum_ms == pytest.approx(sum(series))
        assert phase.response_time_max_ms == max(series)

    def test_each_phase_reports_only_its_own_responses(self):
        model = VOODBSimulation(small_config(), seed=1)
        first = model.run_phase(10)
        second = model.run_phase(15)
        assert len(first.response_times_ms) == 10
        assert len(second.response_times_ms) == 15
        for phase in (first, second):
            series = phase.response_times_ms
            assert phase.response_time_sum_ms == pytest.approx(sum(series))
            assert phase.response_time_max_ms == max(series)
        assert second.mean_response_time_ms == pytest.approx(
            second.response_time_sum_ms / 15
        )

    def test_empty_phase_reports_zero_sum_and_max(self):
        model = VOODBSimulation(small_config(), seed=1)
        phase = model.run_phase(0)
        assert phase.response_times_ms == ()
        assert phase.response_time_sum_ms == 0.0
        assert phase.response_time_max_ms == 0.0


class TestMemoryModels:
    def test_virtual_memory_model_selected(self):
        model = VOODBSimulation(
            small_config(memory_model=MemoryModel.VIRTUAL_MEMORY), seed=1
        )
        from repro.core import VirtualMemoryManager

        assert isinstance(model.memory, VirtualMemoryManager)

    def test_buffer_model_by_default(self):
        from repro.core import BufferManager

        model = VOODBSimulation(small_config(), seed=1)
        assert isinstance(model.memory, BufferManager)


class TestDynamicWorkload:
    DYNAMIC = OCBConfig(
        nc=8,
        no=400,
        hotn=80,
        pset=0.2,
        psimple=0.2,
        phier=0.2,
        pstoch=0.2,
        pinsert=0.1,
        pdelete=0.1,
    )

    def test_inserts_and_deletes_flow_through_the_model(self):
        results = run_replication(small_config(ocb=self.DYNAMIC), seed=1)
        kinds = results.phase.transactions_by_kind
        assert kinds.get("insert", 0) > 0
        assert kinds.get("delete", 0) > 0
        assert results.phase.transactions == self.DYNAMIC.hotn

    def test_shared_cache_not_mutated(self):
        base = build_database(self.DYNAMIC)
        size_before = len(base)
        run_replication(small_config(ocb=self.DYNAMIC), seed=1)
        assert len(build_database(self.DYNAMIC)) == size_before

    def test_dynamic_run_deterministic(self):
        a = run_replication(small_config(ocb=self.DYNAMIC), seed=4)
        b = run_replication(small_config(ocb=self.DYNAMIC), seed=4)
        assert a.total_ios == b.total_ios
        assert a.phase.transactions_by_kind == b.phase.transactions_by_kind

    def test_deletes_generate_write_ios(self):
        """Deletes dirty pages; with a tight buffer the dirty evictions
        surface as disk writes (write-back caching)."""
        deletes_only = self.DYNAMIC.with_changes(
            pset=0.0, psimple=0.0, phier=0.0, pstoch=0.0, pinsert=0.0,
            pdelete=1.0, hotn=60,
        )
        results = run_replication(
            small_config(ocb=deletes_only, buffsize=4), seed=1
        )
        assert results.phase.writes > 0


class TestMultiUser:
    def test_multiple_users_complete_all_transactions(self):
        config = small_config(nusers=4, multilvl=4)
        results = run_replication(config, seed=1)
        assert results.phase.transactions == SMALL.hotn

    def test_contention_shows_in_elapsed_time(self):
        serial = run_replication(small_config(multilvl=1, nusers=2), seed=1)
        parallel = run_replication(small_config(multilvl=8, nusers=2), seed=1)
        assert parallel.phase.elapsed_ms <= serial.phase.elapsed_ms
