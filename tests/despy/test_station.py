"""Unit tests for the validation tests' queueing station.

The closed-form oracles in ``test_validation*.py`` and
``test_batch_means.py`` read utilization and the mean queue length from
a :class:`Station`'s service and wait sums, so those sums are checked
here against hand-computed busy and queue integrals.
"""

import pytest

from repro.despy import Hold, Simulation
from tests.despy.station import Station


def run_station(capacity, jobs):
    """Start one job per ``(arrival, service)`` pair, each visiting one
    station after ``arrival`` ticks; return the simulation and the
    station once every job is done."""
    sim = Simulation()
    station = Station(sim, "s", capacity=capacity)

    def job(arrival, service):
        yield Hold(arrival)
        yield from station.visit(lambda: service)

    for arrival, service in jobs:
        sim.process(job(arrival, service))
    sim.run()
    return sim, station


class TestStation:
    def test_always_busy_unit_has_full_utilization(self):
        sim, station = run_station(capacity=1, jobs=[(0, 10)])
        assert sim.now == 10
        assert station.utilization() == pytest.approx(1.0)
        assert station.mean_queue_length() == 0.0

    def test_step_in_busy_units(self):
        # Idle for 4 ticks, then busy for 4: utilization 1/2.
        sim, station = run_station(capacity=1, jobs=[(4, 4)])
        assert sim.now == 8
        assert (station.service_ticks, station.wait_ticks) == (4, 0)
        assert station.utilization() == pytest.approx(0.5)

    def test_several_steps_in_busy_units(self):
        # Busy units: 1 over [0, 2), 2 over [2, 6), 1 over [6, 10) —
        # integral 14 over 10 ticks on 2 units.
        sim, station = run_station(capacity=2, jobs=[(0, 2), (2, 4), (2, 8)])
        assert sim.now == 10
        assert station.service_ticks == 14
        assert station.utilization() == pytest.approx(14 / (10 * 2))

    def test_capacity_divides_utilization(self):
        __, station = run_station(capacity=4, jobs=[(0, 10)])
        assert station.utilization() == pytest.approx(0.25)

    def test_queue_length_is_the_wait_integral(self):
        # Four jobs of 2 at tick 0 on one unit: 3 wait over [0, 2),
        # 2 over [2, 4), 1 over [4, 6) — integral 12 over 8 ticks.
        sim, station = run_station(capacity=1, jobs=[(0, 2)] * 4)
        assert sim.now == 8
        assert station.wait_ticks == 12
        assert station.mean_queue_length() == pytest.approx(12 / 8)
        assert station.utilization() == pytest.approx(1.0)

    def test_wait_and_service_recorded_at_the_grant(self):
        sim = Simulation()
        station = Station(sim, "s")
        draws = []

        def job(service):
            def draw():
                draws.append(sim.now)
                return service

            yield from station.visit(draw)

        sim.process(job(3))
        sim.process(job(5))
        sim.run(until=4)
        # The second job was granted at 3 and is still in service: its
        # wait and its drawn service are already in the sums.
        assert draws == [0, 3]
        assert (station.wait_ticks, station.service_ticks) == (3, 8)
        sim.run()
        assert sim.now == 8
        assert (station.wait_ticks, station.service_ticks) == (3, 8)
