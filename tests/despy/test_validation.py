"""Kernel validation against closed-form queueing results.

This mirrors how DESP-C++ was validated against QNAP2 (paper §3.2.1):
build classic queueing stations out of kernel primitives and check the
simulated stationary metrics against theory.
"""

import pytest

from repro.despy import (
    MS_PER_TICK,
    Hold,
    Simulation,
    confidence_interval,
    mm1_mean_queue_length,
    mm1_mean_response_time,
    mm1_utilization,
    mmc_erlang_c,
    mmc_mean_queue_length,
    mmc_mean_response_time,
)
from tests.despy.online_stats import OnlineStats
from tests.despy.station import Station


def simulate_mmc(
    arrival_rate: float,
    service_rate: float,
    servers: int,
    jobs: int,
    seed: int,
) -> dict:
    """Run one replication of an M/M/c queue, returning observed metrics."""
    sim = Simulation(seed=seed)
    station = Station(sim, "station", capacity=servers)
    response_times = OnlineStats()

    def source():
        arrivals = sim.stream("arrivals")
        for n in range(jobs):
            yield Hold(arrivals.exponential_ticks(1.0 / arrival_rate))
            sim.process(job(), name=f"job-{n}")

    def job():
        service = sim.stream("service")
        start = sim.now
        yield from station.visit(lambda: service.exponential_ticks(1.0 / service_rate))
        response_times.record((sim.now - start) * MS_PER_TICK)

    sim.process(source())
    sim.run()
    return {
        "utilization": station.utilization(),
        "mean_queue_length": station.mean_queue_length(),
        "mean_response_time": response_times.mean,
    }


class TestAnalyticFormulas:
    def test_mm1_utilization(self):
        assert mm1_utilization(0.5, 1.0) == pytest.approx(0.5)

    def test_mm1_queue_length(self):
        # rho = 0.5 -> Lq = 0.25/0.5 = 0.5
        assert mm1_mean_queue_length(0.5, 1.0) == pytest.approx(0.5)

    def test_mm1_response_time(self):
        assert mm1_mean_response_time(0.5, 1.0) == pytest.approx(2.0)

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError):
            mm1_mean_queue_length(2.0, 1.0)

    def test_erlang_c_known_value(self):
        # Classic test point: c=2, a=1 (rho=0.5) -> C = 1/3
        assert mmc_erlang_c(1.0, 1.0, 2) == pytest.approx(1.0 / 3.0)

    def test_mmc_reduces_to_mm1(self):
        assert mmc_mean_queue_length(0.5, 1.0, 1) == pytest.approx(
            mm1_mean_queue_length(0.5, 1.0)
        )
        assert mmc_mean_response_time(0.5, 1.0, 1) == pytest.approx(
            mm1_mean_response_time(0.5, 1.0)
        )

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            mm1_utilization(-1.0, 1.0)
        with pytest.raises(ValueError):
            mmc_erlang_c(1.0, 1.0, 0)


class TestSimulatedMM1:
    """Three replications, CI-based assertions — the [Ban96] workflow."""

    LAM, MU, JOBS = 0.6, 1.0, 15000

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_mmc(self.LAM, self.MU, 1, self.JOBS, seed=s)
            for s in range(5)
        ]

    def test_utilization_matches_theory(self, replications):
        ci = confidence_interval([r["utilization"] for r in replications])
        expected = mm1_utilization(self.LAM, self.MU)
        assert abs(ci.mean - expected) < max(3 * ci.half_width, 0.02)

    def test_queue_length_matches_theory(self, replications):
        ci = confidence_interval([r["mean_queue_length"] for r in replications])
        expected = mm1_mean_queue_length(self.LAM, self.MU)
        assert abs(ci.mean - expected) < max(3 * ci.half_width, 0.1)

    def test_response_time_matches_theory(self, replications):
        ci = confidence_interval([r["mean_response_time"] for r in replications])
        expected = mm1_mean_response_time(self.LAM, self.MU)
        assert abs(ci.mean - expected) < max(3 * ci.half_width, 0.15)


class TestSimulatedMMC:
    LAM, MU, SERVERS, JOBS = 1.5, 1.0, 2, 15000

    @pytest.fixture(scope="class")
    def replications(self):
        return [
            simulate_mmc(self.LAM, self.MU, self.SERVERS, self.JOBS, seed=100 + s)
            for s in range(5)
        ]

    def test_utilization_matches_theory(self, replications):
        ci = confidence_interval([r["utilization"] for r in replications])
        expected = self.LAM / (self.SERVERS * self.MU)
        assert abs(ci.mean - expected) < max(3 * ci.half_width, 0.02)

    def test_queue_length_matches_theory(self, replications):
        ci = confidence_interval([r["mean_queue_length"] for r in replications])
        expected = mmc_mean_queue_length(self.LAM, self.MU, self.SERVERS)
        assert abs(ci.mean - expected) < max(3 * ci.half_width, 0.2)

    def test_response_time_matches_theory(self, replications):
        ci = confidence_interval([r["mean_response_time"] for r in replications])
        expected = mmc_mean_response_time(self.LAM, self.MU, self.SERVERS)
        assert abs(ci.mean - expected) < max(3 * ci.half_width, 0.15)
