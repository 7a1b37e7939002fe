"""Unit tests for Resource grants, releases and statistics."""

import pytest

from repro.despy import Hold, Release, Request, Simulation, WaitFor
from repro.despy.errors import ResourceError
from repro.despy.resource import Gate, Resource


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
        assert grants == [True, True, False]
        assert res.in_use == 2
        # A refused inline grant books nothing; the caller falls back
        # to ``yield Request``, which counts the request.
        assert res.total_requests == 2

    def test_try_acquire_inline_declines_while_another_event_is_queued(self):
        """With capacity free but another event queued, the caller is
        not provably the next dispatch: the inline grant books nothing."""
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
        assert (res.in_use, res.total_requests) == (1, 1)

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
    def test_utilization_half_busy(self):
        sim = Simulation()
        res = Resource(sim, "r")

        def job():
            yield Request(res)
            yield Hold(5.0)
            yield Release(res)
            yield Hold(5.0)

        sim.process(job())
        sim.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_mean_wait_measures_queueing(self):
        sim = Simulation()
        res = Resource(sim, "r")

        def holder():
            yield Request(res)
            yield Hold(4.0)
            yield Release(res)

        def waiter():
            yield Request(res)
            yield Release(res)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        # holder waits 0, waiter waits 4 -> mean 2
        assert res.mean_wait() == pytest.approx(2.0)

    def test_counters(self):
        sim = Simulation()
        res = Resource(sim, "r")

        def job():
            yield Request(res)
            yield Release(res)

        for _ in range(3):
            sim.process(job())
        sim.run()
        assert res.total_requests == 3
        assert res.total_served == 3

    def test_queue_length_time_average_positive_under_contention(self):
        sim = Simulation()
        res = Resource(sim, "r")

        def job():
            yield Request(res)
            yield Hold(1.0)
            yield Release(res)

        for _ in range(5):
            sim.process(job())
        sim.run()
        assert res.mean_queue_length() > 0.0

    def test_utilization_full_when_always_busy(self):
        sim = Simulation()
        res = Resource(sim, "r")

        def job():
            yield Request(res)
            yield Hold(2.0)
            yield Release(res)

        sim.process(job())
        sim.process(job())
        sim.run()
        assert res.utilization() == pytest.approx(1.0)


class TestContentionStatistics:
    """Wait-time and queue-length accounting under sustained contention —
    the exact paths the fast-dispatch rewiring replumbed (grants and
    wake-ups no longer round-trip through the heap)."""

    def _run_contention(self, capacity, jobs, hold):
        sim = Simulation()
        res = Resource(sim, "r", capacity=capacity)

        def job():
            yield Request(res)
            yield Hold(hold)
            yield Release(res)

        for _ in range(jobs):
            sim.process(job())
        sim.run()
        return sim, res

    def test_wait_times_form_arithmetic_ramp(self):
        # capacity 1, 4 jobs of 2.0 arriving together: waits 0, 2, 4, 6.
        __, res = self._run_contention(capacity=1, jobs=4, hold=2.0)
        assert res.wait_times.n == 4
        assert res.mean_wait() == pytest.approx(3.0)
        assert res.wait_times.minimum == pytest.approx(0.0)
        assert res.wait_times.maximum == pytest.approx(6.0)

    def test_mean_queue_length_matches_littles_law_integral(self):
        # Queue lengths over time: 3 for 2.0, 2 for 2.0, 1 for 2.0, then 0:
        # integral 12 over horizon 8 -> 1.5.
        sim, res = self._run_contention(capacity=1, jobs=4, hold=2.0)
        assert sim.now == pytest.approx(8.0)
        assert res.mean_queue_length() == pytest.approx(12.0 / 8.0)

    def test_utilization_under_full_contention(self):
        sim, res = self._run_contention(capacity=2, jobs=6, hold=1.0)
        assert sim.now == pytest.approx(3.0)
        assert res.utilization() == pytest.approx(1.0)
        assert res.total_served == 6

    def test_served_counter_equals_grants_not_requests(self):
        sim = Simulation()
        res = Resource(sim, "r")

        def job():
            yield Request(res)
            yield Hold(5)
            yield Release(res)

        sim.process(job())
        sim.process(job())
        sim.run(until=1)
        # The second request waits in the queue: a request, not a grant.
        assert res.total_requests == 2
        assert res.total_served == 1
        sim.run()
        assert res.total_served == 2

    def test_wait_time_recorded_at_grant_not_release(self):
        sim = Simulation()
        res = Resource(sim, "r")
        grant_waits = []

        def holder():
            yield Request(res)
            yield Hold(3.0)
            yield Release(res)

        def waiter():
            yield Request(res)
            grant_waits.append((sim.now, res.wait_times.n, res.wait_times.mean))
            yield Hold(5.0)
            yield Release(res)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        # At grant time (t=3) the waiter's 3.0 wait is already recorded.
        assert grant_waits == [(3.0, 2, pytest.approx(1.5))]


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
