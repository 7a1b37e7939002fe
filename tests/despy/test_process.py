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

    def test_return_ends_the_process(self):
        """A ``return`` (with or without a value) just ends the process;
        the rest of the simulation runs on."""
        sim = Simulation()
        seen = []

        def short():
            yield Hold(1)
            return 42

        def long():
            yield Hold(3)
            seen.append(sim.now)

        sim.process(short())
        sim.process(long())
        assert sim.run() == 3
        assert seen == [3]
        assert sim.pending_events == 0

    def test_generator_returning_before_its_first_yield_ends_at_start(self):
        sim = Simulation()
        seen = []

        def empty():
            seen.append(sim.now)
            return
            yield

        sim.process(empty(), delay=4)
        assert sim.run() == 4
        assert seen == [4]
        assert sim.events_executed == 1

    def test_zero_delay_start_queues_among_immediates_in_seq_order(self):
        sim = Simulation()
        order = []

        def proc():
            order.append("process")
            yield Hold(0)

        sim.schedule(0, lambda: order.append("event"))
        sim.process(proc())
        sim.schedule(0, lambda: order.append("later-event"))
        sim.run()
        assert order == ["event", "process", "later-event"]

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

    def test_contended_requests_served_fifo(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=1)
        order = []

        def holder():
            yield Request(res)
            yield Hold(1.0)
            yield Release(res)

        def job(tag, delay):
            yield Hold(delay)  # enqueue while holder owns the resource
            yield Request(res)
            order.append(tag)
            yield Release(res)

        sim.process(holder())
        sim.process(job("second", 1))
        sim.process(job("first", 0))
        sim.run()
        assert order == ["first", "second"]

    def test_capacity_two_queue_serves_waiters_in_arrival_order(self):
        sim = Simulation()
        res = Resource(sim, "r", capacity=2)
        served = []

        def holder():
            yield Request(res)
            yield Hold(10)
            yield Release(res)

        def waiter(arrival):
            yield Hold(arrival)
            yield Request(res)
            served.append((arrival, sim.now))
            yield Hold(1)
            yield Release(res)

        sim.process(holder())
        sim.process(holder())
        for arrival in (4, 3, 2, 1):  # started latest arrival first
            sim.process(waiter(arrival))
        sim.run()
        assert served == [(1, 10), (2, 10), (3, 11), (4, 11)]
        assert res.wait_times.maximum == 9

    def test_release_parks_the_releaser_behind_the_woken_waiter(self):
        sim = Simulation()
        res = Resource(sim, "r")
        order = []

        def holder():
            yield Request(res)
            yield Hold(2)
            yield Release(res)
            order.append(("holder", sim.now))

        def waiter():
            yield Hold(1)
            yield Request(res)
            order.append(("waiter", sim.now))
            yield Release(res)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert order == [("waiter", 2), ("holder", 2)]

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

    def test_gate_wakes_waiters_in_wait_order(self):
        sim = Simulation()
        gate = Gate(sim, "g")
        order = []

        def waiter(tag, arrival):
            yield Hold(arrival)
            yield WaitFor(gate)
            order.append(tag)

        def opener():
            yield Hold(5)
            gate.open()

        sim.process(waiter("late", 2))
        sim.process(waiter("early", 1))
        sim.process(opener())
        sim.run()
        assert order == ["early", "late"]
