"""Unit tests for the cluster topology layer (core/cluster.py)."""

import math

import pytest

from repro.core import (
    ArrivalConfig,
    Cluster,
    ClusterConfig,
    ClusterObjectServer,
    ClusterPageServer,
    ShardRouter,
    VOODBConfig,
    run_replication,
)
from repro.core.model import VOODBSimulation
from repro.despy import Hold
from repro.systems.o2 import o2_config


def cluster_config(**changes) -> VOODBConfig:
    """A small cluster configuration over the O2 instantiation."""
    topology = {
        "servers": 4,
        "placement": "hash",
        "replication": 1,
        "interconnect_mbps": math.inf,
    }
    topology.update(
        {k: changes.pop(k) for k in list(changes) if k in topology}
    )
    base = o2_config(nc=10, no=500, cache_mb=0.25, hotn=30)
    return base.with_changes(cluster=ClusterConfig(**topology), **changes)


class TestClusterConfig:
    def test_disabled_by_default(self):
        assert VOODBConfig().cluster.enabled is False
        assert VOODBConfig().cluster.servers == 0

    def test_negative_servers_rejected(self):
        with pytest.raises(ValueError, match="servers"):
            ClusterConfig(servers=-1)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            ClusterConfig(servers=2, placement="consistent-hashing")

    def test_replication_cannot_exceed_servers(self):
        with pytest.raises(ValueError, match="replication"):
            ClusterConfig(servers=2, replication=3)

    def test_zero_interconnect_rejected(self):
        with pytest.raises(ValueError, match="interconnect"):
            ClusterConfig(servers=2, interconnect_mbps=0.0)

    def test_single_node_cluster_is_enabled(self):
        assert ClusterConfig(servers=1).enabled is True

    def test_db_server_combination_rejected(self):
        with pytest.raises(ValueError, match="system class"):
            cluster_config(sysclass="db_server")

    def test_centralized_combination_rejected(self):
        with pytest.raises(ValueError, match="system class"):
            cluster_config(sysclass="centralized")

    def test_virtual_memory_combination_rejected(self):
        with pytest.raises(ValueError, match="memory model"):
            cluster_config(memory_model="virtual_memory")

    def test_clustering_policy_combination_rejected(self):
        with pytest.raises(ValueError, match="clustering"):
            cluster_config(clustp="dstc")

    def test_prefetch_combination_rejected(self):
        with pytest.raises(ValueError, match="prefetch"):
            cluster_config(prefetch="one_ahead")

    def test_failures_combination_accepted(self):
        # PR 9 lifted the eager failures x cluster gate: hazards now
        # live at the nodes (per-node injectors with replica failover).
        from repro.core import FailureConfig

        config = cluster_config(
            failures=FailureConfig(transient_mtbf_ms=100.0)
        )
        assert config.failures.enabled
        assert config.cluster.enabled

    def test_quorums_cannot_exceed_replication(self):
        from repro.core.parameters import ReplicationConfig

        base = cluster_config(servers=3, replication=2)
        with pytest.raises(ValueError, match="quorum"):
            base.with_changes(
                replication=ReplicationConfig(mode="async", read_quorum=3)
            )

    def test_replication_needs_cluster(self):
        from repro.core.parameters import ReplicationConfig

        with pytest.raises(ValueError, match="cluster"):
            VOODBConfig(
                replication=ReplicationConfig(mode="async")
            )


class TestShardRouter:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="servers"):
            ShardRouter(0)
        with pytest.raises(ValueError, match="placement"):
            ShardRouter(2, "spiral")
        with pytest.raises(ValueError, match="replication"):
            ShardRouter(2, replication=3)
        with pytest.raises(ValueError, match="total_pages"):
            ShardRouter(2, total_pages=0)

    def test_negative_page_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ShardRouter(2).primary(-1)

    def test_hash_spreads_consecutive_pages(self):
        router = ShardRouter(4, "hash", total_pages=1000)
        owners = {router.primary(page) for page in range(16)}
        assert owners == {0, 1, 2, 3}

    def test_hash_balance_is_reasonable(self):
        router = ShardRouter(4, "hash", total_pages=4000)
        counts = [0, 0, 0, 0]
        for page in range(4000):
            counts[router.primary(page)] += 1
        assert max(counts) < 1.2 * min(counts)

    def test_range_keeps_runs_together(self):
        router = ShardRouter(4, "range", total_pages=400)
        assert router.primary(0) == 0
        assert router.primary(399) == 3
        owners = [router.primary(page) for page in range(400)]
        # exactly three boundaries in a 4-way range partition
        changes = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        assert changes == 3

    def test_replicas_are_consecutive_nodes(self):
        router = ShardRouter(5, "hash", total_pages=100, replication=3)
        for page in (0, 17, 99):
            replicas = router.replicas(page)
            primary = replicas[0]
            assert replicas == (
                primary,
                (primary + 1) % 5,
                (primary + 2) % 5,
            )

    def test_seed_permutes_hash_placement(self):
        plain = ShardRouter(8, "hash", total_pages=500, seed=0)
        salted = ShardRouter(8, "hash", total_pages=500, seed=99)
        assignments_plain = [plain.primary(p) for p in range(200)]
        assignments_salted = [salted.primary(p) for p in range(200)]
        assert assignments_plain != assignments_salted

    def test_for_servers_caps_replication(self):
        router = ShardRouter(4, "hash", total_pages=100, replication=3)
        shrunk = router.for_servers(2)
        assert shrunk.servers == 2
        assert shrunk.replication == 2


class TestClusterAssembly:
    def test_model_builds_cluster_views(self):
        # An async cluster with per-node crashes and transient faults,
        # under enough load to queue on locks.
        from repro.core import FailureConfig
        from repro.core.parameters import ReplicationConfig

        config = cluster_config(replication=2).with_changes(
            replication=ReplicationConfig(mode="async"),
            failures=FailureConfig(
                transient_mtbf_ms=200.0,
                crash_mtbf_ms=200.0,
                recovery_time_ms=20.0,
            ),
            arrivals=ArrivalConfig(mode="poisson", rate_tps=200.0),
            multilvl=8,
            ocb=cluster_config().ocb.with_changes(pwrite=0.5, root_region=20),
        )
        model = VOODBSimulation(config, seed=7)
        assert model.cluster is not None
        nodes = model.cluster.nodes
        assert len(nodes) == 4
        assert isinstance(model.architecture, ClusterPageServer)
        assert model.io.reads == 0
        assert model.memory.hits == 0
        model.run()
        # The views sum over the nodes: these are the model paths the
        # traced perfbench ledger reads.
        assert model.io.total_ios == sum(node.io.total_ios for node in nodes)
        assert model.memory.hits == sum(node.memory.hits for node in nodes)
        assert model.memory.misses == sum(node.memory.misses for node in nodes)
        assert model.locks.waits == sum(node.locks.waits for node in nodes)
        assert model.failures.crashes == sum(
            node.failures.crashes for node in nodes
        )
        assert model.memory.misses > 0 and model.locks.waits > 0
        assert model.failures.crashes > 0

    def test_object_server_variant_selected(self):
        model = VOODBSimulation(
            cluster_config(sysclass="object_server"), seed=1
        )
        assert isinstance(model.architecture, ClusterObjectServer)

    def test_single_server_config_keeps_seed_assembly(self):
        model = VOODBSimulation(o2_config(nc=10, no=500, hotn=30), seed=1)
        assert model.cluster is None

    def test_demand_clustering_rejected_on_clusters(self):
        model = VOODBSimulation(cluster_config(), seed=1)
        with pytest.raises(ValueError, match="cluster"):
            model.demand_clustering()

    def test_cluster_requires_enabled_config(self):
        model = VOODBSimulation(o2_config(nc=10, no=500, hotn=30), seed=1)
        with pytest.raises(ValueError, match="servers"):
            Cluster(model.sim, model.config, model.object_manager)


class TestClusterRun:
    def test_every_server_serves_accesses(self):
        phase = run_replication(cluster_config(), seed=3).phase
        assert len(phase.server_accesses) == 4
        assert all(count > 0 for count in phase.server_accesses)

    def test_server_ios_decompose_the_total(self):
        phase = run_replication(cluster_config(), seed=3).phase
        assert sum(phase.server_ios) == phase.total_ios

    def test_one_node_cluster_serves_everything(self):
        phase = run_replication(cluster_config(servers=1), seed=3).phase
        assert phase.server_accesses[0] > 0
        assert phase.cluster_imbalance == 1.0

    def test_replication_spreads_reads(self):
        phase = run_replication(
            cluster_config(servers=4, replication=2), seed=3
        ).phase
        assert phase.replica_reads > 0
        # no writes in the default mix: nothing propagates
        assert phase.replica_writes == 0

    def test_writes_propagate_to_replicas(self):
        config = cluster_config(servers=4, replication=2).with_changes(
            ocb=cluster_config().ocb.with_changes(pwrite=0.3)
        )
        phase = run_replication(config, seed=3).phase
        assert phase.replica_writes > 0
        assert phase.interconnect_messages >= phase.replica_writes

    def test_finite_interconnect_charges_time(self):
        config = cluster_config(
            servers=4, replication=2, interconnect_mbps=1.0
        ).with_changes(ocb=cluster_config().ocb.with_changes(pwrite=0.3))
        model = VOODBSimulation(config, seed=3)
        model.run()
        assert model.cluster.interconnect.busy_time_ms > 0

    def test_object_server_replication_counts_replica_reads(self):
        # Regression: reads balanced to a non-primary replica must count
        # in object-server mode too (not only with a placement-aware
        # page-server client).
        phase = run_replication(
            cluster_config(sysclass="object_server", replication=2), seed=3
        ).phase
        assert phase.replica_reads > 0

    def test_object_server_forwards_remote_pages(self):
        phase = run_replication(
            cluster_config(sysclass="object_server", placement="range"),
            seed=3,
        ).phase
        assert phase.remote_fetches > 0
        assert phase.interconnect_messages == 2 * phase.remote_fetches

    def test_open_arrivals_drive_the_cluster(self):
        config = cluster_config().with_changes(
            arrivals=ArrivalConfig(mode="poisson", rate_tps=50.0),
            multilvl=8,
        )
        results = run_replication(config, seed=5)
        assert results.phase.transactions == 30
        assert results.phase.elapsed_ms > 0

    def test_locks_shard_with_the_data(self):
        config = cluster_config().with_changes(
            arrivals=ArrivalConfig(mode="poisson", rate_tps=200.0),
            multilvl=8,
            ocb=cluster_config().ocb.with_changes(pwrite=0.5, root_region=20),
        )
        model = VOODBSimulation(config, seed=7)
        model.run()
        locks = model.locks
        assert locks.acquisitions > 0
        # all tables drained at end of run
        assert locks.locked_objects == 0

    def test_metrics_deterministic_across_runs(self):
        config = cluster_config(servers=3, replication=2)
        first = run_replication(config, seed=11).to_metrics()
        second = run_replication(config, seed=11).to_metrics()
        assert first == second

    def test_node_lock_tables_have_no_admission(self):
        # One MULTILVL scheduler for the whole cluster: the Transaction
        # Manager's.  Neither the lock service nor a node has one.
        config = cluster_config()
        model = VOODBSimulation(config, seed=1)
        for node in model.cluster.nodes:
            assert not hasattr(node.locks, "admission")
        assert not hasattr(model.locks, "admission")
        assert model.tm.admission.capacity == config.multilvl


class TestInPlaceWalk:
    """On clusters too, a walk yields no step for accesses that resolve
    entirely in place, even when a network in the fabric is throttled
    (reads never owe interconnect time)."""

    def _warm_model(self, consistency=None, **changes):
        config = cluster_config(**changes)
        if consistency is not None:
            config = config.with_changes(replication=consistency)
        model = VOODBSimulation(config, seed=1)
        # Resident working set: touch a few objects through the event
        # loop first — twice each, so under replication the round-robin
        # read balancing has populated *every* replica's buffer and the
        # next touch is a pure hit wherever it routes.
        for _round in range(2):
            for oid in (0, 1, 2):
                model.sim.process(_walk(model, [(oid, False)], []))
        model.sim.run()
        return model

    @staticmethod
    def _steps(model, write):
        return list(model.architecture.access_steps([(0, write)]))

    def test_free_fabric_hit_yields_no_step(self):
        model = self._warm_model()
        assert self._steps(model, False) == []

    def test_throttled_interconnect_read_hit_yields_no_step(self):
        model = self._warm_model(interconnect_mbps=1.0, replication=2)
        assert self._steps(model, False) == []

    def test_async_throttled_interconnect_read_hit_yields_no_step(self):
        # No downtime, no forwarding and no quorum probe: nothing timed
        # to add, so an async R=1 read hit stays in the walk.
        from repro.core.parameters import ReplicationConfig

        model = self._warm_model(
            consistency=ReplicationConfig(mode="async"),
            interconnect_mbps=1.0,
            replication=2,
        )
        assert model.cluster.async_mode
        assert self._steps(model, False) == []

    def test_replication1_write_hit_yields_no_step(self):
        model = self._warm_model(interconnect_mbps=1.0, replication=1)
        assert self._steps(model, True) == []

    def test_replicated_write_on_throttled_interconnect_yields_a_step(self):
        # Propagation must pass through the event loop: a yielded step.
        model = self._warm_model(interconnect_mbps=1.0, replication=2)
        steps = []
        model.sim.process(_walk(model, [(0, True)], steps))
        model.sim.run()
        assert len(steps) == 1


class TestClusterLockSweeps:
    """A lock set splits by home node and is swept one node at a time."""

    def _model(self):
        config = cluster_config(servers=3, getlock=0.0, rellock=0.0)
        return VOODBSimulation(config, seed=1)

    def test_partition_keeps_the_lock_set_order_within_each_node(self):
        locks = self._model().locks
        distinct = [oid * 7 % 40 for oid in range(40)]
        parts = locks._partition(distinct)
        nodes = [node for node, _ in parts]
        assert nodes == sorted(set(nodes))
        assert len(nodes) > 1
        for node, part in parts:
            assert part == [oid for oid in distinct if oid in part]
            assert {locks._home_of(oid) for oid in part} == {node}
        assert sorted(oid for _, part in parts for oid in part) == sorted(distinct)

    def test_sweeps_lock_and_unlock_each_oid_on_its_home_node(self):
        locks = self._model().locks
        distinct = list(range(40))
        sizes = {node: len(part) for node, part in locks._partition(distinct)}
        assert locks.acquire_all_nowait(1, distinct, {3, 17}) is None
        held = [part.locked_objects for part in locks.parts]
        assert held == [sizes.get(node, 0) for node in range(len(locks.parts))]
        assert locks.acquisitions == 40
        assert locks.release_all_nowait(1, distinct) is None
        assert (locks.releases, locks.locked_objects) == (40, 0)

    def test_sweep_waits_on_an_earlier_node_before_touching_a_later_one(self):
        model = self._model()
        locks, sim = model.locks, model.sim
        (__, first), (later_node, later) = locks._partition(list(range(40)))[:2]
        blocker, tail = first[0], later[0]
        seen = []

        def holder():
            assert locks.acquire_all_nowait(1, [blocker], {blocker}) is None
            yield Hold(5)
            seen.append(("held", locks.parts[later_node].locked_objects))
            assert locks.release_all_nowait(1, [blocker]) is None

        def sweeper():
            distinct = sorted([blocker, tail])
            step = locks.acquire_all_nowait(2, distinct, set())
            assert step is not None
            yield from step
            seen.append(("granted", sim.now, locks.parts[later_node].locked_objects))
            assert locks.release_all_nowait(2, distinct) is None

        sim.process(holder())
        sim.process(sweeper())
        sim.run()
        assert seen == [("held", 0), ("granted", 5, 1)]
        assert (locks.waits, locks.locked_objects) == (1, 0)

    def test_each_execution_partitions_its_lock_set_once(self):
        # The release sweep reuses the acquire sweep's partition.
        model = VOODBSimulation(cluster_config(servers=3, nusers=4), seed=1)
        locks = model.locks
        partition = locks._partition
        calls = []

        def counted(distinct):
            calls.append(distinct)
            return partition(distinct)

        locks._partition = counted
        model.run()
        assert len(calls) == model.tm.transactions_executed == 30
        assert (locks.locked_objects, locks._parts_of) == (0, {})


def _walk(model, accesses, steps):
    """Run the architecture's walk of ``accesses`` as the Transaction
    Manager does, collecting the steps it yields."""
    for step in model.architecture.access_steps(accesses):
        steps.append(step)
        yield from step
