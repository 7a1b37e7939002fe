"""Executor determinism and replication-cache behavior.

The engine's core contract: serial execution, process-parallel
execution, and cache replay all produce bit-identical statistics for
the same ``(config, seed)`` set.
"""

import pytest

from repro.core import SystemClass, VOODBConfig
from repro.despy.stats import ReplicationAnalyzer
from repro.experiments import cache as cache_module
from repro.experiments.cache import ReplicationCache, config_digest
from repro.experiments.executor import (
    ParallelExecutor,
    ReplicationJob,
    SerialExecutor,
    default_jobs,
    make_executor,
    standard_replication,
)
from repro.ocb import OCBConfig

SMALL = VOODBConfig(
    sysclass=SystemClass.CENTRALIZED,
    buffsize=64,
    ocb=OCBConfig(nc=5, no=200, hotn=40),
)
OTHER = SMALL.with_changes(buffsize=32)

SEEDS = (3, 4, 5, 6)


def jobs_for(config, seeds=SEEDS):
    return [ReplicationJob(config, seed) for seed in seeds]


def analyzed(results):
    analyzer = ReplicationAnalyzer()
    analyzer.add_all(results)
    return analyzer


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        jobs = jobs_for(SMALL)
        serial = analyzed(SerialExecutor().run(jobs))
        parallel = analyzed(ParallelExecutor(jobs=2).run(jobs))
        for metric in serial.metrics():
            assert serial.observations(metric) == parallel.observations(metric)
            s, p = serial.interval(metric), parallel.interval(metric)
            assert s.mean == p.mean
            assert s.half_width == p.half_width

    def test_parallel_preserves_job_order_across_configs(self):
        jobs = jobs_for(SMALL, (1, 2)) + jobs_for(OTHER, (1, 2))
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(jobs=2).run(jobs)
        assert serial == parallel

    def test_parallel_single_job_runs_inline(self):
        jobs = jobs_for(SMALL, (9,))
        assert ParallelExecutor(jobs=2).run(jobs) == SerialExecutor().run(jobs)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)


class TestReplicationCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ReplicationCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        jobs = jobs_for(SMALL, (1, 2))
        first = executor.run(jobs)
        assert (cache.hits, cache.misses) == (0, 2)
        second = executor.run(jobs)
        assert (cache.hits, cache.misses) == (2, 2)
        assert first == second

    def test_partial_overlap_recomputes_only_new_seeds(self, tmp_path):
        cache = ReplicationCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        executor.run(jobs_for(SMALL, (1, 2)))  # the "pilot study"
        executor.run(jobs_for(SMALL, (1, 2, 3, 4)))  # the full run
        assert cache.hits == 2
        assert cache.misses == 4

    def test_different_config_misses(self, tmp_path):
        cache = ReplicationCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        executor.run(jobs_for(SMALL, (1,)))
        executor.run(jobs_for(OTHER, (1,)))
        assert cache.hits == 0
        assert cache.misses == 2

    def test_cache_shared_across_executors(self, tmp_path):
        cache = ReplicationCache(tmp_path)
        jobs = jobs_for(SMALL, (1, 2))
        fresh = SerialExecutor(cache=cache).run(jobs)
        replayed = ParallelExecutor(jobs=2, cache=cache).run(jobs)
        assert fresh == replayed
        assert cache.hits == 2

    def test_persisted_entry_roundtrips_floats(self, tmp_path):
        cache = ReplicationCache(tmp_path)
        metrics = {"a": 1.5, "b": float("inf")}
        cache.put(SMALL, 7, metrics)
        assert cache.get(SMALL, 7) == metrics
        assert len(cache) == 1

    def test_clear_empties_directory(self, tmp_path):
        cache = ReplicationCache(tmp_path)
        cache.put(SMALL, 1, {"a": 1.0})
        assert cache.clear() == 1
        assert cache.get(SMALL, 1) is None


class TestConfigDigest:
    def test_equal_configs_share_digest(self):
        assert config_digest(SMALL) == config_digest(VOODBConfig(
            sysclass=SystemClass.CENTRALIZED,
            buffsize=64,
            ocb=OCBConfig(nc=5, no=200, hotn=40),
        ))

    def test_deep_parameter_change_alters_digest(self):
        assert config_digest(SMALL) != config_digest(
            SMALL.with_changes(ocb=SMALL.ocb.with_changes(hotn=41))
        )

    def test_replication_protocol_alters_digest(self):
        assert config_digest(SMALL, "a") != config_digest(SMALL, "b")

    def test_key_covers_the_simulator_sources(self, tmp_path, monkeypatch):
        ReplicationCache(tmp_path).put(SMALL, 1, {"m": 1.0})
        # An unchanged tree hashes the same and replays the entry ...
        digest = cache_module.source_digest
        assert digest.__wrapped__() == digest()
        assert ReplicationCache(tmp_path).get(SMALL, 1) == {"m": 1.0}
        # ... and a changed source hash misses it.
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        cache = ReplicationCache(tmp_path)
        assert cache.get(SMALL, 1) is None
        assert cache.misses == 1


class TestExecutorSelection:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("VOODB_JOBS", raising=False)
        monkeypatch.delenv("VOODB_CACHE_DIR", raising=False)
        assert default_jobs() == 1
        assert isinstance(make_executor(), SerialExecutor)

    def test_env_selects_parallel(self, monkeypatch):
        monkeypatch.setenv("VOODB_JOBS", "3")
        executor = make_executor(use_default_cache=False)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3

    def test_explicit_jobs_override_env(self, monkeypatch):
        monkeypatch.setenv("VOODB_JOBS", "3")
        assert isinstance(
            make_executor(jobs=1, use_default_cache=False), SerialExecutor
        )

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("VOODB_JOBS", "0")
        with pytest.raises(ValueError):
            default_jobs()

    def test_env_cache_dir_attached(self, monkeypatch, tmp_path):
        monkeypatch.setenv("VOODB_CACHE_DIR", str(tmp_path / "cache"))
        executor = make_executor(jobs=1)
        assert isinstance(executor.cache, ReplicationCache)

    def test_lambda_replications_never_cached(self, tmp_path):
        # Distinct lambdas share a qualname; caching them would let one
        # protocol replay another's metrics.
        cache = ReplicationCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        first = executor.run([ReplicationJob(SMALL, 1, lambda c, s: {"m": 1.0})])
        second = executor.run([ReplicationJob(SMALL, 1, lambda c, s: {"m": 2.0})])
        assert (first, second) == ([{"m": 1.0}], [{"m": 2.0}])
        assert cache.hits == 0 and len(cache) == 0

    def test_bound_method_replications_never_cached(self, tmp_path):
        class Proto:
            def __init__(self, value):
                self.value = value

            def replicate(self, config, seed):
                return {"m": float(self.value)}

        cache = ReplicationCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        first = executor.run([ReplicationJob(SMALL, 1, Proto(1).replicate)])
        second = executor.run([ReplicationJob(SMALL, 1, Proto(2).replicate)])
        assert (first, second) == ([{"m": 1.0}], [{"m": 2.0}])
        assert cache.hits == 0 and len(cache) == 0

    def test_custom_replication_callable(self):
        def fake(config, seed):
            return {"metric": float(seed)}

        results = SerialExecutor().run(
            [ReplicationJob(SMALL, s, fake) for s in (10, 11)]
        )
        assert results == [{"metric": 10.0}, {"metric": 11.0}]

    def test_standard_replication_metrics(self):
        metrics = standard_replication(SMALL, 1)
        assert metrics["total_ios"] > 0
