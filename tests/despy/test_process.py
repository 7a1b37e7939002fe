"""Unit tests for the generator-based process layer."""

import pytest

from repro.despy import Hold, Process, Release, Request, Simulation, WaitFor
from repro.despy.errors import SchedulingError
from repro.despy.resource import Gate, Resource


class TestHold:
    def test_hold_advances_process_time(self):
        sim = Simulation()
        seen = []

        def proc():
            yield Hold(2)
            seen.append(sim.now)
            yield Hold(3)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [2, 5]

    def test_zero_hold_allowed(self):
        sim = Simulation()
        seen = []

        def proc():
            yield Hold(0.0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [0.0]

    def test_negative_hold_rejected_at_construction(self):
        with pytest.raises(SchedulingError):
            Hold(-1.0)


class TestProcessLifecycle:
    def test_start_delay(self):
        sim = Simulation()
        seen = []

        def proc():
            seen.append(sim.now)
            yield Hold(1.0)

        sim.process(proc(), delay=3.0)
        sim.run()
        assert seen == [3.0]

    def test_return_value_captured(self):
        sim = Simulation()

        def proc():
            yield Hold(1.0)
            return 42

        p = sim.process(proc())
        sim.run()
        assert p.done
        assert p.value == 42

    def test_on_complete_callback_runs_at_completion(self):
        sim = Simulation()
        completions = []

        def proc():
            yield Hold(2.0)

        p = sim.process(proc())
        p.on_complete(lambda proc: completions.append((proc.name, sim.now)))
        sim.run()
        assert completions == [(p.name, 2.0)]

    def test_on_complete_after_done_fires_immediately(self):
        sim = Simulation()

        def proc():
            yield Hold(1.0)

        p = sim.process(proc())
        sim.run()
        fired = []
        p.on_complete(lambda proc: fired.append(True))
        assert fired == [True]

    def test_default_names_unique(self):
        sim = Simulation()

        def proc():
            yield Hold(1.0)

        a = sim.process(proc())
        b = sim.process(proc())
        assert a.name != b.name

    def test_unsupported_yield_raises(self):
        sim = Simulation()

        def proc():
            yield "not-a-command"

        sim.process(proc())
        with pytest.raises(SchedulingError, match="unsupported command"):
            sim.run()


class TestRequestRelease:
    def test_request_grants_when_free(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=1)
        seen = []

        def proc():
            yield Request(res)
            seen.append(sim.now)
            yield Release(res)

        sim.process(proc())
        sim.run()
        assert seen == [0.0]
        assert res.available == 1

    def test_request_queues_when_busy(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=1)
        seen = []

        def holder():
            yield Request(res)
            yield Hold(5.0)
            yield Release(res)

        def waiter():
            yield Request(res)
            seen.append(sim.now)
            yield Release(res)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert seen == [5.0]

    def test_priority_served_before_fifo(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=1)
        order = []

        def holder():
            yield Request(res)
            yield Hold(1.0)
            yield Release(res)

        def job(tag, prio):
            yield Hold(1)  # enqueue while holder owns the resource
            yield Request(res, priority=prio)
            order.append(tag)
            yield Release(res)

        sim.process(holder())
        sim.process(job("low", 10))
        sim.process(job("high", -10))
        sim.run()
        assert order == ["high", "low"]

    def test_capacity_two_serves_pairs(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=2)
        finished = []

        def job(tag):
            yield Request(res)
            yield Hold(1.0)
            yield Release(res)
            finished.append((tag, sim.now))

        for tag in range(4):
            sim.process(job(tag))
        sim.run()
        times = [t for _, t in finished]
        assert times == [1.0, 1.0, 2.0, 2.0]

    def test_request_merges_an_uncontended_grant(self):
        """The Request command grants in place on a quiet list and
        queues the request when the resource is busy."""
        sim = Simulation()
        res = Resource(sim, "r")

        def job():
            yield Request(res)
            yield Hold(5)
            yield Release(res)

        sim.process(job())
        sim.process(job(), delay=1)
        sim.run(until=2)
        assert sim.events_merged_continuations == 1
        assert res.queued == 1
        sim.run()
        assert res.wait_times.maximum == 4

    def test_release_merges_in_place_on_a_quiet_list(self):
        sim = Simulation()
        res = Resource(sim, "r")
        seen = []

        def job():
            yield Request(res)
            before = sim.events_merged_continuations
            yield Release(res)
            seen.append((sim.events_merged_continuations - before, res.available))

        sim.process(job())
        sim.run()
        assert seen == [(1, 1)]
        # Only the process start went through the immediate queue.
        assert sim.events_fast_dispatched == 1


class TestWaitFor:
    def test_waiters_released_when_gate_opens(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        seen = []

        def waiter(tag):
            yield WaitFor(gate)
            seen.append((tag, sim.now))

        def opener():
            yield Hold(4.0)
            gate.open()

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.process(opener())
        sim.run()
        assert sorted(seen) == [("a", 4.0), ("b", 4.0)]

    def test_open_gate_does_not_block(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        gate.open()
        seen = []

        def waiter():
            yield WaitFor(gate)
            seen.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert seen == [0.0]

    def test_gate_reclose_blocks_again(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        gate.open()
        gate.close()
        seen = []

        def waiter():
            yield WaitFor(gate)
            seen.append(sim.now)

        def opener():
            yield Hold(2.0)
            gate.open()

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert seen == [2.0]
        assert gate.times_opened == 2
