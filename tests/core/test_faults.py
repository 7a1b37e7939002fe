"""Tests for the PR-10 fault-tolerance layer.

Covers the fault kinds (partitions, gray failures), the
timeout/retry/backoff contract, primary re-election, anti-entropy
repair, the eager configuration gates, and the three properties the
layer guarantees:

(a) a healed partition converges — once the end-of-phase anti-entropy
    drain runs, no replica is behind the commit point;
(b) re-election never promotes a stale replica over a fresher
    reachable one;
(c) the retry/backoff ladder is a pure function of the seed and never
    exceeds ``max_retries`` retries.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrivalConfig, ClusterConfig, VOODBConfig
from repro.core.failures import (
    FailureConfig,
    FaultConfig,
    RetryConfig,
    RetryPolicy,
)
from repro.core.model import VOODBSimulation, run_replication
from repro.core.parameters import ReplicationConfig
from repro.despy import Hold, RandomStream
from repro.experiments import SerialExecutor
from repro.experiments.report import format_scenario, scenario_to_json
from repro.scenarios import get_scenario, run_scenario
from repro.systems.o2 import o2_config

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: A lively fault plan: frequent partitions, fast elections, a tight
#: anti-entropy cadence — everything observable within a 30-txn phase.
STORM = FaultConfig(
    partition_mtbf_ms=200.0,
    partition_heal_ms=60.0,
    election_delay_ms=5.0,
    repair_interval_ms=50.0,
)

SNAPPY = RetryConfig(timeout_ms=5.0, max_retries=2, backoff_base_ms=2.0)


def fault_config(faults: FaultConfig = STORM, retry: RetryConfig = SNAPPY,
                 **changes) -> VOODBConfig:
    """A small replicated cluster with the fault layer on."""
    base = o2_config(nc=10, no=500, cache_mb=0.25, hotn=30)
    defaults = dict(
        cluster=ClusterConfig(
            servers=3, replication=3, interconnect_mbps=25.0
        ),
        replication=ReplicationConfig(
            mode="async", read_quorum=2, apply_delay_ms=1.0
        ),
        arrivals=ArrivalConfig(mode="poisson", rate_tps=60.0),
        multilvl=8,
        faults=faults,
        retry=retry,
        ocb=base.ocb.with_changes(pwrite=0.3),
    )
    defaults.update(changes)
    return base.with_changes(**defaults)


# ----------------------------------------------------------------------
# Configuration validation (satellite: eager validation bugfix)
# ----------------------------------------------------------------------
class TestRetryConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("timeout_ms", 0.0),
            ("timeout_ms", -1.0),
            ("timeout_ms", math.nan),
            ("timeout_ms", math.inf),
            ("backoff_base_ms", 0.0),
            ("backoff_base_ms", math.nan),
            ("backoff_multiplier", 0.5),
            ("backoff_multiplier", math.inf),
            ("jitter", -0.1),
            ("jitter", 1.0),
            ("jitter", math.nan),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            RetryConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1, 2.5, "two"])
    def test_max_retries_must_be_nonnegative_int(self, value):
        with pytest.raises(ValueError, match="max_retries"):
            RetryConfig(max_retries=value)

    def test_defaults_are_valid(self):
        RetryConfig()


class TestFaultConfigValidation:
    def test_disabled_by_default(self):
        assert not FaultConfig().enabled
        assert not VOODBConfig().faults.enabled

    @pytest.mark.parametrize(
        "field",
        ["partition_mtbf_ms", "gray_mtbf_ms", "repair_interval_ms"],
    )
    def test_any_rate_enables(self, field):
        assert FaultConfig(**{field: 100.0}).enabled

    @pytest.mark.parametrize(
        "field,value",
        [
            ("partition_mtbf_ms", -1.0),
            ("partition_mtbf_ms", math.nan),
            ("gray_mtbf_ms", math.inf),
            ("repair_interval_ms", -5.0),
            ("partition_heal_ms", 0.0),
            ("partition_heal_ms", math.nan),
            ("gray_heal_ms", 0.0),
            ("gray_slowdown", 0.5),
            ("gray_slowdown", math.nan),
            ("election_delay_ms", -1.0),
            ("election_delay_ms", math.inf),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            FaultConfig(**{field: value})

    def test_groups_without_partitions_are_inert(self):
        with pytest.raises(ValueError, match="partition_mtbf_ms > 0"):
            FaultConfig(partition_groups=((0,), (1,)))

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match=">= 2 groups"):
            FaultConfig(
                partition_mtbf_ms=100.0, partition_groups=((0, 1),)
            )

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FaultConfig(
                partition_mtbf_ms=100.0, partition_groups=((0,), ())
            )

    @pytest.mark.parametrize("member", [-1, 1.5, "a"])
    def test_bad_member_rejected(self, member):
        with pytest.raises(ValueError, match="node indices"):
            FaultConfig(
                partition_mtbf_ms=100.0,
                partition_groups=((0,), (member,)),
            )

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="node 1 appears twice"):
            FaultConfig(
                partition_mtbf_ms=100.0,
                partition_groups=((0, 1), (1, 2)),
            )

    def test_yaml_style_lists_coerced_to_tuples(self):
        config = FaultConfig(
            partition_mtbf_ms=100.0, partition_groups=[[0], [1, 2]]
        )
        assert config.partition_groups == ((0,), (1, 2))
        assert config == FaultConfig(
            partition_mtbf_ms=100.0, partition_groups=((0,), (1, 2))
        )


class TestConfigGates:
    def test_faults_need_a_cluster(self):
        with pytest.raises(ValueError, match="cluster topology"):
            o2_config(nc=10, no=500).with_changes(faults=STORM)

    def test_retry_needs_a_cluster(self):
        with pytest.raises(ValueError, match="cluster topology"):
            o2_config(nc=10, no=500).with_changes(
                retry=RetryConfig(timeout_ms=1.0)
            )

    def test_retry_inert_without_fault_layer(self):
        with pytest.raises(ValueError, match="inert without the fault"):
            fault_config(faults=FaultConfig())

    def test_default_retry_without_faults_is_fine(self):
        fault_config(faults=FaultConfig(), retry=RetryConfig())

    def test_replicated_faults_need_async(self):
        with pytest.raises(ValueError, match="mode: async"):
            fault_config(replication=ReplicationConfig(mode="sync"))

    def test_partitions_need_two_servers(self):
        with pytest.raises(ValueError, match=">= 2 servers"):
            fault_config(
                cluster=ClusterConfig(servers=1),
                replication=ReplicationConfig(),
            )

    def test_groups_must_cover_the_cluster(self):
        with pytest.raises(ValueError, match="cover every node"):
            fault_config(
                faults=FaultConfig(
                    partition_mtbf_ms=100.0,
                    partition_groups=((0,), (1,)),
                )
            )

    def test_gray_only_plan_is_valid(self):
        fault_config(faults=FaultConfig(gray_mtbf_ms=500.0))


# ----------------------------------------------------------------------
# Property (c): the retry ladder is seed-deterministic and bounded
# ----------------------------------------------------------------------
POLICY_CONFIG = RetryConfig(
    timeout_ms=5.0,
    max_retries=3,
    backoff_base_ms=2.0,
    backoff_multiplier=2.0,
    jitter=0.25,
)


@given(seed=st.integers(0, 2**20), attempt=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_backoff_deterministic_and_bounded(seed, attempt):
    policy = RetryPolicy(POLICY_CONFIG)
    first = policy.backoff_ticks(attempt, RandomStream(seed, "retry"))
    again = policy.backoff_ticks(attempt, RandomStream(seed, "retry"))
    assert first == again  # pure function of the seed
    floor = int(2.0 ** attempt * policy.config.backoff_base_ms)
    lo = max(1, floor)  # ms_to_ticks scales up, so the tick floor holds
    assert first >= lo
    # jitter never more than doubles the nominal backoff at 0.25
    nominal = RetryPolicy(
        RetryConfig(
            timeout_ms=5.0,
            max_retries=3,
            backoff_base_ms=2.0,
            backoff_multiplier=2.0,
            jitter=0.0,
        )
    ).backoff_ticks(attempt, RandomStream(seed, "retry"))
    assert first <= int(nominal * 1.25) + 1


class TestRetryOutcome:
    def _cluster(self, seed=1):
        return VOODBSimulation(fault_config(), seed=seed).cluster

    def test_down_peer_exhausts_the_ladder(self):
        cluster = self._cluster()
        cluster.nodes[2].down_until = 10**15
        rng = RandomStream(7, "retry-test")
        responded, penalty = cluster._retry_outcome(0, 2, rng, 0)
        assert responded is False
        policy = cluster.retry_policy
        # property (c): exactly max_retries + 1 attempts, never more
        assert cluster.remote_timeouts == policy.max_retries + 1
        assert cluster.remote_retries == policy.max_retries
        assert penalty >= policy.timeout * (policy.max_retries + 1)

    def test_ladder_is_seed_deterministic(self):
        outcomes = []
        for _run in range(2):
            cluster = self._cluster(seed=9)
            cluster.nodes[1].down_until = 10**15
            rng = RandomStream(9, "retry-test")
            outcomes.append(cluster._retry_outcome(0, 1, rng, 0))
        assert outcomes[0] == outcomes[1]

    def test_retry_lands_after_recovery(self):
        cluster = self._cluster()
        policy = cluster.retry_policy
        # peer comes back right after the first timeout expires
        cluster.nodes[1].down_until = policy.timeout + 1
        rng = RandomStream(3, "retry-test")
        responded, penalty = cluster._retry_outcome(0, 1, rng, 0)
        assert responded is True
        assert cluster.remote_timeouts == 1
        assert cluster.remote_retries == 1
        assert penalty > policy.timeout

    def test_healthy_peer_is_free(self):
        cluster = self._cluster()
        rng = RandomStream(5, "retry-test")
        assert cluster._retry_outcome(0, 1, rng, 0) == (True, 0)
        assert cluster.remote_timeouts == 0


# ----------------------------------------------------------------------
# Property (b): elections never promote stale over fresher reachable
# ----------------------------------------------------------------------
_ELECTION_MODEL = None


def _election_cluster():
    global _ELECTION_MODEL
    if _ELECTION_MODEL is None:
        _ELECTION_MODEL = VOODBSimulation(fault_config(), seed=1)
    return _ELECTION_MODEL.cluster


@given(
    versions=st.lists(
        st.integers(min_value=0, max_value=50), min_size=3, max_size=3
    ),
    down=st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_election_promotes_the_freshest_alive_replica(versions, down):
    cluster = _election_cluster()
    page, owners, now = 424242, (0, 1, 2), 1000
    try:
        for index, owner in enumerate(owners):
            node = cluster.nodes[owner]
            node.applied[page] = versions[index]
            node.down_until = 10**15 if down[index] else 0
        chosen = cluster._elect(page, owners, now)
        alive = [o for o in owners if not down[o]]
        if not alive:
            assert chosen is None
        else:
            best = max(versions[o] for o in alive)
            assert chosen in alive
            assert versions[chosen] == best
            # ties resolve deterministically in replica-set order
            assert chosen == next(
                o for o in alive if versions[o] == best
            )
    finally:
        for owner in owners:
            cluster.nodes[owner].applied.pop(page, None)
            cluster.nodes[owner].down_until = 0


def test_election_prefers_majority_side_under_partition():
    """A minority-side replica loses the election even when it holds
    the freshest version: majority reachability trumps staleness."""
    model = VOODBSimulation(
        fault_config(
            faults=FaultConfig(
                partition_mtbf_ms=200.0,
                partition_heal_ms=60.0,
                partition_groups=((0,), (1, 2)),
                election_delay_ms=5.0,
            )
        ),
        seed=1,
    )
    cluster = model.cluster
    page, owners, now = 424242, (0, 1, 2), 1000
    cluster._partition_until = now + 10_000
    cluster.nodes[0].applied[page] = 99  # freshest, but cut off
    cluster.nodes[1].applied[page] = 5
    cluster.nodes[2].applied[page] = 7
    assert cluster._elect(page, owners, now) == 2

    # once the links heal, the freshest replica wins again
    cluster._partition_until = now
    assert cluster._elect(page, owners, now) == 0


# ----------------------------------------------------------------------
# Property (a): a healed partition converges after the repair drain
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_healed_partition_converges(seed):
    model = VOODBSimulation(fault_config(), seed=seed)
    model.run_phase(30)
    cluster = model.cluster
    assert cluster._committed, "the phase must commit writes"
    for page, version in cluster._committed.items():
        for owner in cluster.router.replicas(page):
            applied = cluster.nodes[owner].applied.get(page, 0)
            assert applied >= version, (
                f"seed {seed}: node {owner} is {version - applied} "
                f"versions behind on page {page} after the drain"
            )


def test_convergence_holds_with_crashes_too():
    config = fault_config(
        failures=FailureConfig(crash_mtbf_ms=150.0, recovery_time_ms=20.0)
    )
    model = VOODBSimulation(config, seed=7)
    phase = model.run_phase(30)
    cluster = model.cluster
    assert phase.crashes > 0
    for page, version in cluster._committed.items():
        for owner in cluster.router.replicas(page):
            assert cluster.nodes[owner].applied.get(page, 0) >= version


# ----------------------------------------------------------------------
# Anti-entropy: the per-node behind index and the sweep's exactness traps
# ----------------------------------------------------------------------
BEHIND_PLANS = {
    "partitions": {},
    "crashes": dict(
        faults=FaultConfig(election_delay_ms=5.0, repair_interval_ms=50.0),
        failures=FailureConfig(crash_mtbf_ms=150.0, recovery_time_ms=20.0),
    ),
}


def _check_behind(cluster) -> int:
    """Assert every ``behind`` set equals its brute-force definition:
    the written pages the node owns that another owner holds newer.
    Returns how many (node, page) pairs are behind."""
    total = 0
    for node in cluster.nodes:
        expected = set()
        for page in cluster._version:
            owners = cluster.router.replicas(page)
            newest = max(cluster.nodes[o].applied.get(page, 0) for o in owners)
            if node.index in owners and node.applied.get(page, 0) < newest:
                expected.add(page)
        assert node.behind == expected, f"node {node.index}"
        total += len(expected)
    return total


@pytest.mark.parametrize("plan", sorted(BEHIND_PLANS))
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_behind_index_matches_brute_force(plan, seed):
    model = VOODBSimulation(fault_config(**BEHIND_PLANS[plan]), seed=seed)
    cluster = model.cluster
    sweep = cluster._repair_sweep
    seen = []

    def checked_sweep():
        seen.append(_check_behind(cluster))
        yield from sweep()

    cluster._repair_sweep = checked_sweep
    model.run_phase(30)
    seen.append(_check_behind(cluster))
    assert len(seen) > 2, "the phase must run sweeps"


def _sweep_race(versions, during, down=()):
    """Run one sweep by hand while a helper moves versions under it.

    ``versions`` maps each written page to its per-node versions;
    ``down`` nodes are crashed for good.  ``during(cluster)`` fires one
    tick into node 0's first page ship on the 25 Mbps interconnect.
    """
    model = VOODBSimulation(
        fault_config(faults=FaultConfig(repair_interval_ms=50.0)), seed=1
    )
    cluster = model.cluster
    for page, by_node in versions.items():
        cluster._version[page] = max(by_node.values())
        for index, version in by_node.items():
            cluster._apply(cluster.nodes[index], page, version)
    for index in down:
        cluster.nodes[index].down_until = 10**15
    peers = len(cluster.nodes) - 1 - len(down)
    message = cluster.interconnect.transfer_ticks(model.config.message_bytes)

    def helper():
        yield Hold(peers * message + 1)
        during(cluster)

    model.sim.process(cluster._repair_sweep(), name="sweep")
    model.sim.process(helper(), name="helper")
    model.sim.run()
    return cluster


def test_page_falling_behind_mid_pass_is_repaired_in_that_pass():
    """Page 9 falls behind at node 0 while node 0 ships page 7: it sorts
    after the cursor, so node 0 repairs it in the same pass."""

    def newer_nine(cluster):
        cluster._version[9] = 2
        cluster._apply(cluster.nodes[1], 9, 2)

    cluster = _sweep_race(
        {7: {0: 1, 1: 2, 2: 2}, 9: {0: 1, 1: 1, 2: 1}}, newer_nine
    )
    # Only node 0's pass could have installed at node 0.
    assert cluster.nodes[0].applied[9] == 2
    assert cluster.repair_pages == 3  # node 0: pages 7, 9; node 2: page 9
    assert _check_behind(cluster) == 0


def test_page_first_written_mid_pass_waits_for_the_next_pass():
    """Page 9 is first written while node 0 ships page 7: it was not in
    node 0's version summary, so node 0 leaves it; node 2, whose pass
    starts later, back-fills it."""

    def first_nine(cluster):
        cluster._version[9] = 1
        cluster._apply(cluster.nodes[1], 9, 1)

    cluster = _sweep_race({7: {0: 1, 1: 2, 2: 2}}, first_nine)
    assert cluster.nodes[0].applied.get(9, 0) == 0
    assert cluster.nodes[0].behind == {9}
    assert cluster.nodes[2].applied[9] == 1


def test_sweep_never_lowers_a_version():
    """Node 0 back-fills page 7 to version 2 from node 1 (the primary,
    node 2, is down with version 3); its applier installs version 3
    while that ship is on the wire.  The sweep must not overwrite it."""

    def applier_installs_three(cluster):
        cluster._apply(cluster.nodes[0], 7, 3)

    cluster = _sweep_race(
        {7: {2: 3, 1: 2, 0: 1}}, applier_installs_three, down=(2,)
    )
    assert cluster.nodes[0].applied[7] == 3
    # Only node 1's back-fill from node 0 counts as a repaired page.
    assert cluster.nodes[1].applied[7] == 3
    assert cluster.repair_pages == 1


# ----------------------------------------------------------------------
# End-to-end: the fault kinds fire and surface as metrics
# ----------------------------------------------------------------------
class TestFaultMetrics:
    def test_partition_storm_metrics(self):
        phase = run_replication(fault_config(), seed=3).phase
        assert phase.fault_layer
        assert phase.partitions > 0
        assert phase.partition_ms > 0.0
        assert phase.repair_pages > 0
        metrics = phase.to_metrics()
        for name in (
            "partitions",
            "partition_ms",
            "remote_timeouts",
            "abandoned_reads",
            "elections",
            "promotions",
            "repair_pages",
            "read_repairs",
            "gray_episodes",
            "degraded_reads",
            "remote_retries",
        ):
            assert name in metrics

    def test_gray_failures_degrade_reads(self):
        config = fault_config(
            faults=FaultConfig(gray_mtbf_ms=100.0, gray_heal_ms=80.0,
                               gray_slowdown=4.0)
        )
        phase = run_replication(config, seed=3).phase
        assert phase.gray_episodes > 0
        assert phase.degraded_reads > 0

    def test_promotions_never_exceed_elections(self):
        phase = run_replication(fault_config(), seed=3).phase
        assert phase.elections >= phase.promotions

    def test_stale_rate_derives_from_served_reads(self):
        phase = run_replication(fault_config(), seed=3).phase
        assert phase.cluster_reads > 0
        expected = phase.stale_reads * 1000.0 / phase.cluster_reads
        assert phase.stale_reads_per_1000_reads == pytest.approx(expected)

    def test_faults_off_reports_no_fault_layer(self):
        config = fault_config(faults=FaultConfig(), retry=RetryConfig())
        phase = run_replication(config, seed=3).phase
        assert not phase.fault_layer
        assert "partitions" not in phase.to_metrics()

    def test_deterministic_across_runs(self):
        config = fault_config()
        first = run_replication(config, seed=11).to_metrics()
        second = run_replication(config, seed=11).to_metrics()
        assert first == second


#: Every fault counter on the ``Cluster`` object.  The benchmark's
#: per-layer ledger reads these attributes directly, so with the layer
#: off they must stay 0 even though its (inactive) state is consulted.
FAULT_COUNTERS = (
    "remote_timeouts",
    "remote_retries",
    "abandoned_reads",
    "elections",
    "promotions",
    "repair_pages",
    "read_repairs",
    "partitions",
    "gray_episodes",
    "degraded_reads",
)


class TestFaultCountersWithLayerOff:
    @pytest.mark.parametrize(
        "name,x",
        [("stale-read-audit", "R2W2"), ("failover-under-load", "baseline")],
    )
    def test_every_fault_counter_stays_zero(self, name, x):
        points = get_scenario(name).scaled(60).points
        config = dict(points)[x]
        model = VOODBSimulation(config, seed=1)
        model.run()
        cluster = model.cluster
        assert not cluster.faults_on
        assert cluster.reads_served > 0
        if config.failures.enabled:
            # Down nodes were met, yet no retry ladder or election ran.
            assert cluster.read_failovers + cluster.write_recovery_waits > 0
        for counter in FAULT_COUNTERS:
            assert getattr(cluster, counter) == 0, counter


# ----------------------------------------------------------------------
# Satellite 1: stale-read rate in report + JSON, pinned by the golden
# ----------------------------------------------------------------------
class TestStaleReadRateReporting:
    def test_stale_read_audit_golden_shows_the_rate(self):
        golden = RESULTS / "scenario_stale_read_audit.txt"
        assert "/1k reads)" in golden.read_text(encoding="utf-8")

    def test_report_and_json_agree_with_the_golden(self):
        scenario = get_scenario("stale-read-audit")
        result = run_scenario(
            scenario, executor=SerialExecutor(), replications=1
        )
        text = format_scenario(scenario, result)
        assert "stale reads" in text
        assert "/1k reads)" in text
        payload = scenario_to_json(scenario, result)
        rates = payload["replication"]["stale_reads_per_1000_reads"]
        stales = payload["replication"]["stale_reads"]
        assert len(rates) == len(scenario.points)
        for index, (rate, stale) in enumerate(zip(rates, stales)):
            reads = result.analyzers[index].mean("cluster_reads")
            assert reads > 0
            # single replication: the JSON rate IS the per-run ratio
            assert rate == pytest.approx(stale * 1000.0 / reads)
