"""Tests for batch-means output analysis and the M/D/1 oracle."""

import pytest

from repro.despy import (
    MS_PER_TICK,
    Hold,
    Release,
    Request,
    Simulation,
    batch_means_interval,
    md1_mean_queue_length,
    md1_mean_response_time,
    mm1_mean_queue_length,
    ms_to_ticks,
)
from repro.despy.resource import Resource
from tests.despy.online_stats import OnlineStats
from tests.despy.station import Station


class TestBatchMeans:
    def test_constant_series_zero_width(self):
        ci = batch_means_interval([5.0] * 100, batches=10)
        assert ci.mean == pytest.approx(5.0)
        assert ci.half_width == pytest.approx(0.0)

    def test_mean_preserved(self):
        data = [float(i % 7) for i in range(700)]
        ci = batch_means_interval(data, batches=10)
        assert ci.mean == pytest.approx(sum(data) / len(data))

    def test_warmup_discards_transient(self):
        data = [1000.0] * 50 + [5.0] * 450
        with_warmup = batch_means_interval(data, batches=9, warmup=50)
        assert with_warmup.mean == pytest.approx(5.0)
        without = batch_means_interval(data, batches=10)
        assert without.mean > 5.0

    def test_n_equals_batches(self):
        ci = batch_means_interval(list(range(100)), batches=5)
        assert ci.n == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            batch_means_interval([1.0, 2.0], batches=1)
        with pytest.raises(ValueError):
            batch_means_interval([1.0, 2.0], batches=5)
        with pytest.raises(ValueError):
            batch_means_interval([1.0, 2.0, 3.0], batches=2, warmup=-1)

    def test_uneven_tail_is_dropped(self):
        # 103 observations over 10 batches -> batch size 10, 3 dropped
        data = [1.0] * 100 + [999.0] * 3
        ci = batch_means_interval(data, batches=10)
        assert ci.mean == pytest.approx(1.0)


class TestMD1:
    def test_formula_below_mm1(self):
        """Deterministic service halves the queue vs exponential."""
        lam, mu = 0.6, 1.0
        assert md1_mean_queue_length(lam, mu) == pytest.approx(
            mm1_mean_queue_length(lam, mu) / 2.0
        )

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            md1_mean_queue_length(2.0, 1.0)

    def test_simulated_md1_matches_theory(self):
        """Poisson arrivals + constant service — the VOODB disk pattern."""
        lam, mu, jobs = 0.6, 1.0, 20_000
        sim = Simulation(seed=3)
        station = Station(sim, "disk")
        response = OnlineStats()

        def source():
            arrivals = sim.stream("arrivals")
            for n in range(jobs):
                yield Hold(arrivals.exponential_ticks(1.0 / lam))
                sim.process(job(), name=f"job-{n}")

        service = ms_to_ticks(1.0 / mu)

        def job():
            start = sim.now
            yield from station.visit(lambda: service)  # deterministic service
            response.record((sim.now - start) * MS_PER_TICK)

        sim.process(source())
        sim.run()
        assert station.mean_queue_length() == pytest.approx(
            md1_mean_queue_length(lam, mu), rel=0.15
        )
        assert response.mean == pytest.approx(
            md1_mean_response_time(lam, mu), rel=0.05
        )

    def test_batch_means_on_md1_run_brackets_theory(self):
        """Single long run + batch means: the [Ban96] alternative path."""
        lam, mu, jobs = 0.5, 1.0, 30_000
        sim = Simulation(seed=11)
        station = Resource(sim, "disk", capacity=1)
        responses = []

        def source():
            arrivals = sim.stream("arrivals")
            for n in range(jobs):
                yield Hold(arrivals.exponential_ticks(1.0 / lam))
                sim.process(job(), name=f"job-{n}")

        service = ms_to_ticks(1.0 / mu)

        def job():
            start = sim.now
            yield Request(station)
            yield Hold(service)
            yield Release(station)
            responses.append((sim.now - start) * MS_PER_TICK)

        sim.process(source())
        sim.run()
        ci = batch_means_interval(responses, batches=20, warmup=1000)
        expected = md1_mean_response_time(lam, mu)
        assert abs(ci.mean - expected) < max(4 * ci.half_width, 0.1)
