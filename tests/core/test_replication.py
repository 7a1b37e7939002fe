"""Property tests for the async-replication quorum arithmetic.

The consistency spectrum hangs on two laws:

* **Quorum intersection** — whenever ``R + W > replication`` every read
  quorum overlaps the last write quorum, so a quorum read can never
  serve a stale copy no matter how the applies interleave.
* **Monotone acks** — appliers acknowledge in apply order, so the
  committed version of a page never moves backwards, and once the event
  loop drains every enqueued apply has landed: committed == enqueued on
  every page and no replica sits behind the commit point.

Both are exercised against the real :class:`~repro.core.cluster.Cluster`
driving full replications, not a toy model.
"""

import gc
import inspect
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrivalConfig, ClusterConfig, VOODBConfig
from repro.core.aggregation import clear_calibration_cache
from repro.core.cluster import Cluster
from repro.core.model import VOODBSimulation, run_replication
from repro.core.parameters import AggregationConfig, ReplicationConfig
from repro.systems.o2 import o2_config


def async_config(
    replication: int,
    read_quorum: int,
    write_quorum: int,
    apply_delay_ms: float = 2.0,
) -> VOODBConfig:
    return o2_config(nc=10, no=500, cache_mb=0.25, hotn=25).with_changes(
        cluster=ClusterConfig(
            servers=3,
            placement="hash",
            replication=replication,
            interconnect_mbps=math.inf,
        ),
        replication=ReplicationConfig(
            mode="async",
            read_quorum=read_quorum,
            write_quorum=write_quorum,
            apply_delay_ms=apply_delay_ms,
        ),
        arrivals=ArrivalConfig(mode="poisson", rate_tps=60.0),
        multilvl=8,
        ocb=o2_config().ocb.with_changes(
            nc=10, no=500, hotn=25, pwrite=0.4
        ),
    )


def run_model(config: VOODBConfig, seed: int) -> VOODBSimulation:
    model = VOODBSimulation(config, seed=seed)
    model.run()
    return model


#: Every (replication, R, W) triple on 3 servers satisfying the
#: intersection law R + W > N.
INTERSECTING = [
    (n, r, w)
    for n in (2, 3)
    for r in range(1, n + 1)
    for w in range(1, n + 1)
    if r + w > n
]

#: Triples that leave a staleness window open (R + W <= N).
NON_INTERSECTING = [
    (n, r, w)
    for n in (2, 3)
    for r in range(1, n + 1)
    for w in range(1, n + 1)
    if r + w <= n
]


class TestQuorumIntersection:
    @given(
        triple=st.sampled_from(INTERSECTING),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=12, deadline=None)
    def test_intersecting_quorums_never_read_stale(self, triple, seed):
        n, r, w = triple
        model = run_model(async_config(n, r, w), seed)
        cluster = model.cluster
        assert cluster.replica_applies > 0, "async applies must happen"
        assert cluster.stale_reads == 0, (
            f"R={r}, W={w} over {n} copies intersects every write quorum "
            f"yet served {cluster.stale_reads} stale reads"
        )

    def test_non_intersecting_window_is_observable(self):
        # Sanity for the property above: with R=W=1 the same workload
        # does read into the staleness window (the counter is not
        # trivially zero).
        assert NON_INTERSECTING, "3-server space has non-intersecting pairs"
        model = run_model(async_config(3, 1, 1, apply_delay_ms=5.0), seed=2)
        assert model.cluster.stale_reads > 0

    @given(
        triple=st.sampled_from(NON_INTERSECTING),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=12, deadline=None)
    def test_read_your_writes_closes_the_window(self, triple, seed):
        """A read the routed replica cannot serve at the page's latest
        write falls back to the primary, so the window the test above
        observes stays shut even when R + W <= N."""
        n, r, w = triple
        config = async_config(n, r, w, apply_delay_ms=5.0)
        config = config.with_changes(
            replication=replace(config.replication, read_your_writes=True)
        )
        model = run_model(config, seed)
        assert model.cluster.replica_applies > 0, "async applies must happen"
        assert model.cluster.stale_reads == 0


class TestMonotoneAcks:
    @given(
        triple=st.sampled_from(INTERSECTING + NON_INTERSECTING),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=12, deadline=None)
    def test_drained_cluster_has_committed_everything(self, triple, seed):
        """Acks fire in apply order, so when the event loop drains every
        page's committed version has caught the last enqueued version
        and no replica is behind the commit point."""
        n, r, w = triple
        model = run_model(async_config(n, r, w), seed)
        cluster = model.cluster
        assert cluster._version, "write-heavy run must version pages"
        for node in cluster.nodes:
            assert not node.apply_queue, "appliers must drain at quiesce"
        for page, version in cluster._version.items():
            assert cluster._committed.get(page) == version
            # Every replica holding the page has applied the final
            # version — an older apply can never overwrite a newer one.
            for index in cluster.router.replicas(page):
                assert cluster.nodes[index].applied.get(page) == version

    def test_wider_write_quorum_acks_no_earlier(self):
        """W is monotone: raising the write quorum can only add ack
        waits, never remove them — total commit work grows with W."""
        lags = []
        for w in (1, 2, 3):
            model = run_model(async_config(3, 1, w), seed=9)
            lags.append(model.cluster.replica_lag_ticks)
            assert model.cluster.replica_applies > 0
        # Apply traffic is identical (every replica applies every write);
        # the W knob only changes who waits, so lag stays comparable
        # while the response-time cost is borne by the writers.
        assert all(lag > 0 for lag in lags)


def _suspended_appliers():
    return [
        obj
        for obj in gc.get_objects()
        if inspect.isgenerator(obj)
        and obj.gi_code is Cluster._applier.__code__
        and inspect.getgeneratorstate(obj) != inspect.GEN_CLOSED
    ]


def _appliers_left_by(config: VOODBConfig, seed: int):
    """Run one replication with the collector off, so an applier left
    suspended stays visible until something closes it, and return the
    run's results and the appliers it left suspended."""
    # Models other tests still reference keep theirs suspended.
    known = {id(applier) for applier in _suspended_appliers()}
    gc.disable()
    try:
        results = run_replication(config, seed=seed)
        left = [a for a in _suspended_appliers() if id(a) not in known]
    finally:
        gc.enable()
    return results, left


class TestApplierLifetime:
    def test_run_replication_leaves_no_applier_suspended(self):
        results, left = _appliers_left_by(async_config(3, 2, 2), seed=3)
        assert results.phase.transactions == 25
        assert left == []

    def test_aggregation_pilots_leave_no_applier_suspended(self):
        # The calibration pilots build and run their own models.
        config = o2_config(nc=10, no=500, cache_mb=0.25, hotn=20)
        config = config.with_changes(
            cluster=ClusterConfig(servers=3, placement="hash", replication=2),
            replication=ReplicationConfig(mode="async"),
            aggregation=AggregationConfig(population=1000, pilot_transactions=50),
            ocb=config.ocb.with_changes(thinktime=1000.0),
        )
        clear_calibration_cache()
        results, left = _appliers_left_by(config, seed=1)
        assert results.phase.calibration_iterations > 0
        assert left == []
