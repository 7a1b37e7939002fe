"""Determinism regression wall for the cluster scenarios.

The cluster layer adds per-node random streams, round-robin balancing
counters and a sharded lock service — all of which must stay pure
functions of ``(config, seed)``.  This suite pins that three ways:

* serial vs :class:`ParallelExecutor` vs cache-replay produce
  byte-identical text reports and ``--json`` documents for every
  cluster scenario;
* ``python -m repro scenario run`` reproduces the committed
  ``results/scenario_cluster_*.txt`` goldens byte-for-byte;
* back-to-back replications of one cluster config are identical down
  to the per-server metric vectors.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments.cache import ReplicationCache
from repro.experiments.executor import (
    ParallelExecutor,
    SerialExecutor,
    standard_replication,
)
from repro.experiments.report import format_scenario, scenario_to_json
from repro.scenarios import get_scenario, run_scenario

RESULTS = Path(__file__).resolve().parents[2] / "results"

CLUSTER_SCENARIOS = (
    "cluster-scale-out",
    "cluster-hot-shard",
    "cluster-replicated-read",
    "cluster-object-server",
    # Consistency spectrum (PR 9): async apply queues, quorum waits and
    # per-node hazard streams must replay just as deterministically.
    "replica-lag-storm",
    "failover-under-load",
    "stale-read-audit",
    # Fault-tolerance layer (PR 10): partitions, gray failures, the
    # retry/backoff contract, elections and anti-entropy repair all run
    # on seeded streams — chaos must replay byte-for-byte too.
    "partition-storm",
    "gray-failure-drag",
    "anti-entropy-catchup",
)


@pytest.fixture(params=CLUSTER_SCENARIOS)
def scenario(request):
    return get_scenario(request.param)


def reports(scenario, result):
    """The text report and the serialized ``--json`` document."""
    return (
        format_scenario(scenario, result),
        json.dumps(scenario_to_json(scenario, result)),
    )


class TestExecutorEquivalence:
    """Serial == parallel == cache-replay, byte for byte."""

    def test_serial_matches_parallel(self, scenario):
        fast = scenario.scaled(hotn=40)
        serial = run_scenario(fast, executor=SerialExecutor())
        parallel = run_scenario(fast, executor=ParallelExecutor(jobs=2))
        assert reports(fast, serial) == reports(fast, parallel)

    def test_cache_replay_matches_fresh_run(self, scenario, tmp_path):
        fast = scenario.scaled(hotn=40)
        cache = ReplicationCache(str(tmp_path / "cache"))
        first = run_scenario(fast, executor=SerialExecutor(cache=cache))
        # Second run must be served from the cache...
        hits_before = cache.hits
        replay = run_scenario(fast, executor=SerialExecutor(cache=cache))
        assert cache.hits > hits_before
        # ...and replay the exact same report.
        assert reports(fast, first) == reports(fast, replay)

    def test_parallel_with_cache_matches_serial(self, scenario, tmp_path):
        fast = scenario.scaled(hotn=40)
        serial = run_scenario(fast, executor=SerialExecutor())
        cached = run_scenario(
            fast,
            executor=ParallelExecutor(
                jobs=2, cache=ReplicationCache(str(tmp_path / "cache"))
            ),
        )
        assert reports(fast, serial) == reports(fast, cached)


class TestReplicationDeterminism:
    def test_metrics_replay_exactly(self, scenario):
        _x, config = scenario.scaled(hotn=30).points[-1]
        first = standard_replication(config, seed=7)
        second = standard_replication(config, seed=7)
        assert first == second

    def test_per_server_metrics_present(self, scenario):
        _x, config = scenario.scaled(hotn=30).points[-1]
        metrics = standard_replication(config, seed=7)
        servers = config.cluster.servers
        assert metrics["cluster_servers"] == float(servers)
        for index in range(servers):
            assert f"server{index}_total_ios" in metrics
            assert f"server{index}_utilization" in metrics
        # Per-server usage I/Os decompose the phase total exactly.
        total = sum(
            metrics[f"server{i}_total_ios"] for i in range(servers)
        )
        assert total == metrics["total_ios"]


@pytest.mark.parametrize("name", CLUSTER_SCENARIOS)
class TestCommittedGoldens:
    def test_cli_reproduces_golden(self, name, capsys):
        """``scenario run`` with the pinned protocol reproduces the
        committed golden byte-for-byte."""
        golden = RESULTS / ("scenario_" + name.replace("-", "_") + ".txt")
        assert golden.exists(), f"golden {golden} not committed"
        assert main(["scenario", "run", name]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == golden.read_text(encoding="utf-8").rstrip("\n")

    def test_golden_reports_per_server_rows(self, name):
        golden = RESULTS / ("scenario_" + name.replace("-", "_") + ".txt")
        text = golden.read_text(encoding="utf-8")
        assert "per-server disk utilization" in text
        assert "s0 " in text
