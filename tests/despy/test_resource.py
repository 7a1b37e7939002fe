"""Unit tests for Resource grants, releases and queueing."""

import pytest

from repro.despy import Hold, Release, Request, Simulation, WaitFor
from repro.despy.errors import ResourceError
from repro.despy.resource import Gate, Resource


def run_jobs(capacity, holds):
    """Start one job per hold at tick 0, each taking a unit of one
    resource, holding it and releasing it; return the simulation, the
    resource and the ``(request, grant, release)`` ticks each job
    records, in grant order."""
    sim = Simulation()
    res = Resource(sim, "r", capacity=capacity)
    ticks = []

    def job(hold):
        requested = sim.now
        yield Request(res)
        granted = sim.now
        yield Hold(hold)
        yield Release(res)
        ticks.append((requested, granted, sim.now))

    for hold in holds:
        sim.process(job(hold))
    sim.run()
    ticks.sort(key=lambda record: record[1])
    return sim, res, ticks


def waits(ticks):
    return [granted - requested for requested, granted, __ in ticks]


def utilization(sim, res, ticks):
    """Σ service ticks / (now × capacity)."""
    busy = sum(released - granted for __, granted, released in ticks)
    return busy / (sim.now * res.capacity)


def mean_queue_length(sim, ticks):
    """Σ waits / now: Little's law, for a run that drains."""
    return sum(waits(ticks)) / sim.now


class TestInlineFace:
    """The grant and release rules, called inline from a process."""

    def test_try_acquire_inline_grants_until_capacity(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=2)
        grants = []

        def job():
            grants.extend(res.try_acquire_inline() for _ in range(3))
            yield Hold(0)

        sim.process(job())
        sim.run()
        # A refused inline grant takes nothing and queues nothing; the
        # caller falls back to ``yield Request``.
        assert grants == [True, True, False]
        assert (res.in_use, res.queued) == (2, 0)

    def test_try_acquire_inline_declines_while_another_event_is_queued(self):
        """With capacity free but another event queued, the caller is
        not provably the next dispatch: the inline grant takes nothing."""
        sim = Simulation()
        res = Resource(sim, "r")
        grants = []

        def job():
            grants.append(res.try_acquire_inline())
            yield Hold(1)

        sim.process(job())
        sim.process(job())
        sim.run()
        # The first job runs with the second's start queued behind it;
        # the second finds only a later timed event queued.
        assert grants == [False, True]
        assert (res.in_use, res.queued) == (1, 0)

    def test_release_inline_restores_capacity(self):
        sim = Simulation()
        res = Resource(sim, "r")
        merged = []

        def job():
            yield Request(res)
            merged.append(res.release_inline())

        sim.process(job())
        sim.run()
        assert merged == [True]
        assert res.available == 1

    def test_release_idle_resource_raises(self):
        sim = Simulation()
        res = Resource(sim, "r")
        with pytest.raises(ResourceError):
            res.release_inline()

        def job():
            yield Release(res)

        sim.process(job())
        with pytest.raises(ResourceError, match="idle resource"):
            sim.run()

    def test_zero_capacity_rejected(self):
        sim = Simulation()
        with pytest.raises(ResourceError):
            Resource(sim, "r", capacity=0)


class TestStatistics:
    """Utilization and waits, measured from the ticks the jobs record."""

    def test_utilization_half_busy(self):
        sim = Simulation()
        res = Resource(sim, "r")
        ticks = []

        def job():
            requested = sim.now
            yield Request(res)
            granted = sim.now
            yield Hold(5.0)
            yield Release(res)
            ticks.append((requested, granted, sim.now))
            yield Hold(5.0)

        sim.process(job())
        sim.run()
        assert ticks == [(0, 0, 5)]
        assert utilization(sim, res, ticks) == pytest.approx(0.5)

    def test_mean_wait_measures_queueing(self):
        sim = Simulation()
        res = Resource(sim, "r")
        grants = []

        def holder():
            yield Request(res)
            grants.append(sim.now)
            yield Hold(4.0)
            yield Release(res)

        def waiter():
            yield Request(res)
            grants.append(sim.now)
            yield Release(res)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        # holder waits 0, waiter waits 4 -> mean 2
        assert grants == [0, 4]

    def test_counters(self):
        __, res, ticks = run_jobs(capacity=1, holds=[0, 0, 0])
        # Three requests, three grants, three releases.
        assert ticks == [(0, 0, 0)] * 3
        assert (res.in_use, res.queued) == (0, 0)

    def test_queue_length_time_average_positive_under_contention(self):
        sim, __, ticks = run_jobs(capacity=1, holds=[1.0] * 5)
        assert waits(ticks) == [0, 1, 2, 3, 4]
        assert mean_queue_length(sim, ticks) == pytest.approx(10.0 / 5.0)

    def test_utilization_full_when_always_busy(self):
        sim, res, ticks = run_jobs(capacity=1, holds=[2.0, 2.0])
        assert utilization(sim, res, ticks) == pytest.approx(1.0)


class TestContentionStatistics:
    """Waits and queue lengths under sustained contention, measured from
    the jobs' ticks — the exact paths the fast-dispatch rewiring
    replumbed (grants and wake-ups no longer round-trip through the
    heap)."""

    def test_wait_times_form_arithmetic_ramp(self):
        # capacity 1, 4 jobs of 2.0 arriving together: waits 0, 2, 4, 6.
        __, __, ticks = run_jobs(capacity=1, holds=[2.0] * 4)
        assert waits(ticks) == [0, 2, 4, 6]

    def test_mean_queue_length_matches_littles_law_integral(self):
        # Queue lengths over time: 3 for 2.0, 2 for 2.0, 1 for 2.0, then 0:
        # integral 12 over horizon 8 -> 1.5, the summed waits over 8.
        sim, __, ticks = run_jobs(capacity=1, holds=[2.0] * 4)
        assert sim.now == 8
        assert mean_queue_length(sim, ticks) == pytest.approx(12.0 / 8.0)

    def test_utilization_under_full_contention(self):
        sim, res, ticks = run_jobs(capacity=2, holds=[1.0] * 6)
        assert sim.now == 3
        assert [granted for __, granted, __ in ticks] == [0, 0, 1, 1, 2, 2]
        assert utilization(sim, res, ticks) == pytest.approx(1.0)

    def test_served_counter_equals_grants_not_requests(self):
        sim = Simulation()
        res = Resource(sim, "r")
        grants = []

        def job():
            yield Request(res)
            grants.append(sim.now)
            yield Hold(5)
            yield Release(res)

        sim.process(job())
        sim.process(job())
        sim.run(until=1)
        # The second request waits in the queue: a request, not a grant.
        assert grants == [0]
        assert (res.in_use, res.queued) == (1, 1)
        sim.run()
        assert grants == [0, 5]

    def test_waiter_inherits_the_released_unit(self):
        sim = Simulation()
        res = Resource(sim, "r")
        seen = []

        def holder():
            yield Request(res)
            yield Hold(3.0)
            yield Release(res)

        def waiter():
            yield Request(res)
            seen.append((sim.now, res.in_use, res.queued))
            yield Hold(5.0)
            yield Release(res)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        # At the grant (t=3) the waiter holds the holder's unit.
        assert seen == [(3, 1, 0)]
        assert res.in_use == 0


class TestGateReopenCycles:
    """Gates are reusable broadcast points; every open must wake the
    current crowd and only the current crowd."""

    def test_two_full_cycles_wake_distinct_crowds(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        woken = []

        def waiter(tag, start_delay):
            yield Hold(start_delay)
            yield WaitFor(gate)
            woken.append((tag, sim.now))

        def controller():
            yield Hold(1.0)
            gate.open()
            gate.close()
            yield Hold(1.0)
            gate.open()
            gate.close()

        sim.process(waiter("first-a", 0.0))
        sim.process(waiter("first-b", 0.0))
        sim.process(waiter("second", 2))
        sim.process(controller())
        sim.run()
        assert sorted(woken) == [
            ("first-a", 1.0),
            ("first-b", 1.0),
            ("second", 2.0),
        ]
        assert gate.times_opened == 2
        assert gate.waiting == 0

    def test_reclosed_gate_blocks_new_waiters_only(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        gate.open()
        seen = []

        def early():
            yield WaitFor(gate)  # passes through the open gate
            seen.append(("early", sim.now))
            gate.close()

        def late():
            yield Hold(1.0)
            yield WaitFor(gate)  # blocks: the gate was re-closed
            seen.append(("late", sim.now))

        def opener():
            yield Hold(4.0)
            gate.open()

        sim.process(early())
        sim.process(late())
        sim.process(opener())
        sim.run()
        assert seen == [("early", 0.0), ("late", 4.0)]

    def test_open_idempotent_while_open(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        gate.open()
        gate.open()
        assert gate.times_opened == 2
        assert gate.is_open

    def test_waiting_count_tracks_crowd(self):
        sim = Simulation()
        gate = Gate(sim, "g")

        def waiter():
            yield WaitFor(gate)

        sim.process(waiter())
        sim.process(waiter())
        sim.run()
        assert gate.waiting == 2
        gate.open()
        sim.run()
        assert gate.waiting == 0
