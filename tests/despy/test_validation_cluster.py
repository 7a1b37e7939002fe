"""Cluster-queue validation against analytic oracles.

DESP-C++-style kernel validation (paper §3.2.1), extended to the
multi-server shapes the cluster topology layer simulates: despy-built
2- and 4-node cluster queues must land on the parallel-M/M/c and open
Jackson-network formulas within CI-stable tolerance.

Every simulation here is a pure function of its seed, so the asserted
values are deterministic across runs and Python versions; tolerances
are CI-based (3 half-widths) with an absolute floor, like the
single-queue validation suite.
"""

import pytest

from repro.despy import (
    MS_PER_TICK,
    Gate,
    Hold,
    Release,
    Request,
    Simulation,
    WaitFor,
    confidence_interval,
    jackson_arrival_rates,
    jackson_mean_jobs,
    jackson_mean_response_time,
    mm1_mean_queue_length,
    mm1_mean_response_time,
    mmc_mean_response_time,
    parallel_mmc_mean_response_time,
    parallel_mmc_utilizations,
)
from repro.despy.resource import Resource
from tests.despy.online_stats import OnlineStats
from tests.despy.station import Station


def simulate_split_cluster(
    arrival_rate: float,
    service_rate: float,
    split,
    servers_per_node: int,
    jobs: int,
    seed: int,
) -> dict:
    """One replication of a Poisson-split cluster of M/M/c nodes.

    Arrivals are Poisson(λ); a routing draw sends each job to node *i*
    with probability ``split[i]`` — exactly the probabilistic shard
    router the parallel-M/M/c oracle describes.
    """
    sim = Simulation(seed=seed)
    stations = [
        Station(sim, f"node-{i}", capacity=servers_per_node)
        for i in range(len(split))
    ]
    cumulative = []
    acc = 0.0
    for p in split:
        acc += p
        cumulative.append(acc)
    response_times = OnlineStats()

    def source():
        arrivals = sim.stream("arrivals")
        route = sim.stream("routing")
        for n in range(jobs):
            yield Hold(arrivals.exponential_ticks(1.0 / arrival_rate))
            draw = route.random()
            node = next(
                i
                for i, edge in enumerate(cumulative)
                if draw < edge or i == len(split) - 1
            )
            sim.process(job(node), name=f"job-{n}")

    def job(node: int):
        service = sim.stream(f"service-{node}")
        start = sim.now
        yield from stations[node].visit(
            lambda: service.exponential_ticks(1.0 / service_rate)
        )
        response_times.record((sim.now - start) * MS_PER_TICK)

    sim.process(source())
    sim.run()
    return {
        "utilizations": [station.utilization() for station in stations],
        "mean_response_time": response_times.mean,
    }


def simulate_jackson(
    external_rate: float,
    service_rates,
    routing,
    jobs: int,
    seed: int,
) -> dict:
    """One replication of an open Jackson network (external arrivals at
    node 0; ``routing[i][j]`` forwards a job from node i to node j)."""
    sim = Simulation(seed=seed)
    n = len(service_rates)
    stations = [Station(sim, f"node-{i}") for i in range(n)]
    response_times = OnlineStats()

    def source():
        arrivals = sim.stream("arrivals")
        for k in range(jobs):
            yield Hold(arrivals.exponential_ticks(1.0 / external_rate))
            sim.process(job(), name=f"job-{k}")

    def job():
        route = sim.stream("routing")
        services = [sim.stream(f"service-{i}") for i in range(n)]
        start = sim.now
        node = 0
        while node is not None:
            service, rate = services[node], service_rates[node]
            yield from stations[node].visit(
                lambda: service.exponential_ticks(1.0 / rate)
            )
            draw = route.random()
            acc = 0.0
            next_node = None
            for j, p in enumerate(routing[node]):
                acc += p
                if draw < acc:
                    next_node = j
                    break
            node = next_node
        response_times.record((sim.now - start) * MS_PER_TICK)

    sim.process(source())
    sim.run()
    return {
        "utilizations": [station.utilization() for station in stations],
        "mean_response_time": response_times.mean,
    }


def _ci_close(values, expected, floor):
    ci = confidence_interval(values)
    assert abs(ci.mean - expected) < max(3 * ci.half_width, floor), (
        f"mean {ci.mean:.4f} vs expected {expected:.4f} "
        f"(±{ci.half_width:.4f})"
    )


class TestParallelClusterFormulas:
    def test_split_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            parallel_mmc_utilizations(1.0, (0.5, 0.3), 1.0)

    def test_split_must_be_non_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            parallel_mmc_utilizations(1.0, (1.5, -0.5), 1.0)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            parallel_mmc_mean_response_time(1.0, (), 1.0)

    def test_unstable_node_rejected(self):
        # 0.9 of 2 jobs/s on a 1 job/s node is over capacity.
        with pytest.raises(ValueError, match="unstable"):
            parallel_mmc_utilizations(2.0, (0.9, 0.1), 1.0)

    def test_single_node_reduces_to_mmc(self):
        assert parallel_mmc_mean_response_time(
            0.6, (1.0,), 1.0
        ) == pytest.approx(mm1_mean_response_time(0.6, 1.0))
        assert parallel_mmc_mean_response_time(
            1.5, (1.0,), 1.0, servers=2
        ) == pytest.approx(mmc_mean_response_time(1.5, 1.0, 2))

    def test_even_split_matches_per_node_mm1(self):
        # λ=1.2 over two even nodes: each is M/M/1 at 0.6.
        expected = mm1_mean_response_time(0.6, 1.0)
        assert parallel_mmc_mean_response_time(
            1.2, (0.5, 0.5), 1.0
        ) == pytest.approx(expected)
        assert parallel_mmc_utilizations(1.2, (0.5, 0.5), 1.0) == (
            pytest.approx(0.6),
            pytest.approx(0.6),
        )

    def test_idle_node_contributes_nothing(self):
        lopsided = parallel_mmc_mean_response_time(0.6, (1.0, 0.0), 1.0)
        assert lopsided == pytest.approx(mm1_mean_response_time(0.6, 1.0))
        assert parallel_mmc_utilizations(0.6, (1.0, 0.0), 1.0)[1] == 0.0

    def test_per_node_vectors_broadcast(self):
        per_node = parallel_mmc_mean_response_time(
            1.0, (0.5, 0.5), (1.0, 2.0), servers=(1, 1)
        )
        expected = 0.5 * mm1_mean_response_time(0.5, 1.0) + (
            0.5 * mm1_mean_response_time(0.5, 2.0)
        )
        assert per_node == pytest.approx(expected)

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            parallel_mmc_mean_response_time(1.0, (0.5, 0.5), (1.0,))
        with pytest.raises(ValueError, match="nodes"):
            parallel_mmc_mean_response_time(1.0, (0.5, 0.5), 1.0, servers=(1,))


class TestJacksonFormulas:
    def test_no_routing_means_external_rates(self):
        assert jackson_arrival_rates((0.4, 0.2)) == (0.4, 0.2)

    def test_tandem_rates(self):
        # node 0 -> node 1 -> exit: both see the full stream.
        rates = jackson_arrival_rates((0.5, 0.0), ((0.0, 1.0), (0.0, 0.0)))
        assert rates == (pytest.approx(0.5), pytest.approx(0.5))

    def test_feedback_rates(self):
        # 30% of node-1 departures loop back to node 0:
        # λ0 = γ + 0.3 λ1, λ1 = λ0  =>  λ0 = γ / 0.7.
        rates = jackson_arrival_rates((0.35, 0.0), ((0.0, 1.0), (0.3, 0.0)))
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(0.5)

    def test_superstochastic_row_rejected(self):
        with pytest.raises(ValueError, match="substochastic"):
            jackson_arrival_rates((1.0, 0.0), ((0.0, 1.1), (0.0, 0.0)))

    def test_non_draining_network_rejected(self):
        # Every departure is re-routed: jobs never leave.
        with pytest.raises(ValueError, match="singular|drain"):
            jackson_arrival_rates((1.0, 0.0), ((0.0, 1.0), (1.0, 0.0)))

    def test_zero_external_arrivals_rejected(self):
        with pytest.raises(ValueError, match="external"):
            jackson_arrival_rates((0.0, 0.0))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            jackson_arrival_rates((1.0, 0.0), ((0.0, -0.1), (0.0, 0.0)))

    def test_single_node_reduces_to_mm1(self):
        jobs = jackson_mean_jobs((0.6,), 1.0)
        expected = mm1_mean_queue_length(0.6, 1.0) + 0.6
        assert jobs == (pytest.approx(expected),)
        assert jackson_mean_response_time((0.6,), 1.0) == pytest.approx(
            mm1_mean_response_time(0.6, 1.0)
        )

    def test_tandem_response_is_sum_of_stages(self):
        # Independent M/M/1 stages: W = W0 + W1.
        w = jackson_mean_response_time(
            (0.5, 0.0), (1.0, 2.0), routing=((0.0, 1.0), (0.0, 0.0))
        )
        expected = mm1_mean_response_time(0.5, 1.0) + mm1_mean_response_time(
            0.5, 2.0
        )
        assert w == pytest.approx(expected)

    def test_unstable_effective_rate_rejected(self):
        # Feedback pushes the effective rate over node capacity.
        with pytest.raises(ValueError, match="unstable"):
            jackson_mean_jobs(
                (0.8, 0.0), 1.0, routing=((0.0, 1.0), (0.5, 0.0))
            )


class TestSimulatedTwoNodeCluster:
    """A despy-built 2-node sharded cluster vs the split-M/M/c oracle."""

    LAM, MU, SPLIT, JOBS = 1.2, 1.0, (0.5, 0.5), 12_000

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_split_cluster(self.LAM, self.MU, self.SPLIT, 1, self.JOBS, seed=s)
            for s in range(5)
        ]

    def test_per_node_utilization_matches_theory(self, replications):
        expected = parallel_mmc_utilizations(self.LAM, self.SPLIT, self.MU)
        for node in range(2):
            _ci_close(
                [r["utilizations"][node] for r in replications],
                expected[node],
                floor=0.02,
            )

    def test_response_time_matches_theory(self, replications):
        expected = parallel_mmc_mean_response_time(self.LAM, self.SPLIT, self.MU)
        _ci_close(
            [r["mean_response_time"] for r in replications],
            expected,
            floor=0.15,
        )


class TestSimulatedFourNodeSkewedCluster:
    """4 nodes under a skewed split — the hot-shard oracle."""

    LAM, MU, SPLIT, JOBS = 2.0, 1.0, (0.4, 0.3, 0.2, 0.1), 12_000

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_split_cluster(
                self.LAM, self.MU, self.SPLIT, 1, self.JOBS, seed=200 + s
            )
            for s in range(5)
        ]

    def test_hot_node_utilization(self, replications):
        expected = parallel_mmc_utilizations(self.LAM, self.SPLIT, self.MU)
        _ci_close(
            [r["utilizations"][0] for r in replications],
            expected[0],
            floor=0.02,
        )

    def test_cold_node_utilization(self, replications):
        expected = parallel_mmc_utilizations(self.LAM, self.SPLIT, self.MU)
        _ci_close(
            [r["utilizations"][3] for r in replications],
            expected[3],
            floor=0.02,
        )

    def test_response_time_matches_theory(self, replications):
        expected = parallel_mmc_mean_response_time(self.LAM, self.SPLIT, self.MU)
        _ci_close(
            [r["mean_response_time"] for r in replications],
            expected,
            floor=0.15,
        )


class TestSimulatedMMCPerNodeCluster:
    """2 nodes of capacity 2 each — the M/M/c-per-node generalization."""

    LAM, MU, SPLIT, SERVERS, JOBS = 3.0, 1.0, (0.5, 0.5), 2, 12_000

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_split_cluster(
                self.LAM, self.MU, self.SPLIT, self.SERVERS, self.JOBS, seed=400 + s
            )
            for s in range(5)
        ]

    def test_per_node_utilization(self, replications):
        expected = parallel_mmc_utilizations(
            self.LAM, self.SPLIT, self.MU, servers=self.SERVERS
        )
        for node in range(2):
            _ci_close(
                [r["utilizations"][node] for r in replications],
                expected[node],
                floor=0.02,
            )

    def test_response_time_matches_theory(self, replications):
        expected = parallel_mmc_mean_response_time(
            self.LAM, self.SPLIT, self.MU, servers=self.SERVERS
        )
        _ci_close(
            [r["mean_response_time"] for r in replications],
            expected,
            floor=0.1,
        )


class TestSimulatedJacksonFeedback:
    """A 2-node Jackson network with feedback vs the product form."""

    GAMMA, MUS, ROUTING, JOBS = (
        0.35,
        (1.0, 1.2),
        ((0.0, 1.0), (0.3, 0.0)),
        10_000,
    )

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_jackson(self.GAMMA, self.MUS, self.ROUTING, self.JOBS, 600 + s)
            for s in range(5)
        ]

    def test_effective_rates_inflate_by_feedback(self):
        rates = jackson_arrival_rates((self.GAMMA, 0.0), self.ROUTING)
        assert rates[0] == pytest.approx(self.GAMMA / 0.7)

    def test_node_utilizations_match_theory(self, replications):
        rates = jackson_arrival_rates((self.GAMMA, 0.0), self.ROUTING)
        for node in range(2):
            _ci_close(
                [r["utilizations"][node] for r in replications],
                rates[node] / self.MUS[node],
                floor=0.02,
            )

    def test_network_sojourn_matches_theory(self, replications):
        expected = jackson_mean_response_time(
            (self.GAMMA, 0.0), self.MUS, routing=self.ROUTING
        )
        _ci_close(
            [r["mean_response_time"] for r in replications],
            expected,
            floor=0.3,
        )


def simulate_async_applier(
    arrival_rate: float,
    primary_rate: float,
    apply_rate: float,
    jobs: int,
    seed: int,
) -> dict:
    """One replication of the async-replication tandem.

    Poisson(λ) clients queue at a primary M/M/1 station; each finished
    write enqueues an apply job which a single applier process drains
    (the deque + :class:`Gate` idiom of ``Cluster._applier``).  Clients
    never wait on the applier, so their response time is the primary
    sojourn alone; by Burke's theorem the apply queue sees a Poisson(λ)
    arrival stream, making the measured enqueue-to-apply lag the sojourn
    time of a second, independent M/M/1 stage — the two-node tandem
    Jackson network in product form.
    """
    sim = Simulation(seed=seed)
    primary = Resource(sim, "primary", capacity=1)
    apply_queue = []
    apply_gate = Gate(sim, "apply")
    response_times = OnlineStats()
    lags = OnlineStats()
    done = [0]

    def source():
        arrivals = sim.stream("arrivals")
        for n in range(jobs):
            yield Hold(arrivals.exponential_ticks(1.0 / arrival_rate))
            sim.process(client(), name=f"client-{n}")

    def client():
        service = sim.stream("primary-service")
        start = sim.now
        yield Request(primary)
        yield Hold(service.exponential_ticks(1.0 / primary_rate))
        yield Release(primary)
        # Async hand-off: the client is done once the primary commits.
        response_times.record((sim.now - start) * MS_PER_TICK)
        apply_queue.append(sim.now)
        apply_gate.open()

    def applier():
        service = sim.stream("apply-service")
        while done[0] < jobs:
            if not apply_queue:
                apply_gate.close()
                yield WaitFor(apply_gate)
                continue
            enqueued = apply_queue.pop(0)
            yield Hold(service.exponential_ticks(1.0 / apply_rate))
            lags.record((sim.now - enqueued) * MS_PER_TICK)
            done[0] += 1

    sim.process(source())
    sim.process(applier(), name="applier")
    sim.run()
    return {
        "mean_response_time": response_times.mean,
        "mean_lag": lags.mean,
    }


class TestAsyncApplierTandem:
    """The ``Cluster._applier`` idiom vs the tandem Jackson oracle.

    Validates the consistency-spectrum machinery at despy level: an
    async apply queue drained by its own process must (a) leave client
    response times exactly where the primary-only M/M/1 oracle puts
    them, (b) exhibit a replica lag equal to the apply-stage M/M/1
    sojourn (Jackson product form on the tandem pair), and (c) converge
    to zero lag as the apply service rate grows — the lag→0 limit in
    which async replication degenerates to the primary-only network.
    """

    LAM, MU1, MU2, JOBS = 0.6, 1.0, 1.2, 10_000

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_async_applier(
                self.LAM, self.MU1, self.MU2, self.JOBS, 900 + s
            )
            for s in range(5)
        ]

    def test_clients_never_wait_on_the_applier(self, replications):
        # Response time is the primary M/M/1 sojourn, untouched by the
        # (busier or slower) apply stage.
        expected = mm1_mean_response_time(self.LAM, self.MU1)
        _ci_close(
            [r["mean_response_time"] for r in replications],
            expected,
            floor=0.15,
        )

    def test_lag_matches_apply_stage_sojourn(self, replications):
        # Burke: the apply queue is M/M/1 at (λ, μ2); lag == its sojourn,
        # which is also the tandem Jackson response minus stage one.
        expected = mm1_mean_response_time(self.LAM, self.MU2)
        tandem = jackson_mean_response_time(
            (self.LAM, 0.0),
            (self.MU1, self.MU2),
            routing=((0.0, 1.0), (0.0, 0.0)),
        )
        assert expected == pytest.approx(
            tandem - mm1_mean_response_time(self.LAM, self.MU1)
        )
        _ci_close(
            [r["mean_lag"] for r in replications],
            expected,
            floor=0.2,
        )

    def test_lag_vanishes_as_apply_rate_grows(self, replications):
        # μ2 → ∞: the apply stage empties instantly and the tandem
        # response collapses onto the primary-only Jackson network.
        fast = [
            simulate_async_applier(self.LAM, self.MU1, 50.0, self.JOBS, 950 + s)
            for s in range(3)
        ]
        _ci_close(
            [r["mean_lag"] for r in fast],
            mm1_mean_response_time(self.LAM, 50.0),
            floor=0.05,
        )
        # ...and the lag→0 limit leaves clients on the single-node oracle.
        _ci_close(
            [r["mean_response_time"] for r in fast],
            jackson_mean_response_time((self.LAM,), (self.MU1,)),
            floor=0.15,
        )
