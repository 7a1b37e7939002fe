"""Event-list tests: ordering, cancellation and tier ties.

The ordering tests drive :meth:`Simulation.run`, the one dispatch loop,
so they check the order production replications see.
"""

from repro.despy import Simulation
from repro.despy.events import Event, EventList


def _noop():
    pass


def _recorder():
    """A dispatch log and a factory of handlers appending to it."""
    order = []

    def tag(label):
        return lambda: order.append(label)

    return order, tag


class TestEventOrdering:
    def test_run_dispatches_in_time_order(self):
        sim = Simulation()
        seen = []
        for delay in (3, 1, 2):
            sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1, 2, 3]

    def test_priority_breaks_time_ties(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(1, tag("low"), priority=5)
        sim.schedule(1, tag("high"), priority=-5)
        sim.run()
        assert order == ["high", "low"]

    def test_insertion_order_breaks_full_ties(self):
        sim = Simulation()
        order, tag = _recorder()
        for label in ("first", "second", "third"):
            sim.schedule(1, tag(label))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_event_comparison_is_total(self):
        a = Event(1, 0, 0, _noop, ())
        b = Event(1, 0, 1, _noop, ())
        assert a < b
        assert not b < a


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        sim = Simulation()
        order, tag = _recorder()
        doomed = sim.schedule(1, tag("doomed"))
        sim.schedule(2, tag("survivor"))
        doomed.cancel()
        sim.run()
        assert order == ["survivor"]
        assert sim.now == 2

    def test_run_until_skips_cancelled_head(self):
        sim = Simulation()
        order, tag = _recorder()
        doomed = sim.schedule(1, tag("doomed"))
        sim.schedule(5, tag("survivor"))
        doomed.cancel()
        assert sim.run(until=4) == 4
        assert order == []
        assert sim.run(until=5) == 5
        assert order == ["survivor"]

    def test_run_until_on_empty_list_advances_clock(self):
        sim = Simulation()
        assert sim.run(until=7) == 7
        assert sim.events_executed == 0

    def test_len_counts_cancelled_until_discarded(self):
        sim = Simulation()
        sim.schedule(1, _noop).cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_executed == 0


class TestEventListBasics:
    def test_bool_reflects_emptiness(self):
        events = EventList()
        assert not events
        events.push(1, 0, _noop)
        assert events

    def test_clear_empties_the_list(self):
        events = EventList()
        events.push(1, 0, _noop)
        events.clear()
        assert len(events) == 0

    def test_push_stores_handler_and_args(self):
        events = EventList()
        event = events.push(1, 0, _noop, args=(1, 2))
        assert event.handler is _noop
        assert event.args == (1, 2)

    def test_run_drains_every_tier_of_cancelled_events(self):
        """Cancelled immediate, wheel and overflow-heap events are all
        discarded, and the drained list takes fresh work on its clock."""
        sim = Simulation()
        order, tag = _recorder()
        sim.wake(tag("immediate")).cancel()
        sim.schedule(1, tag("wheel")).cancel()
        sim.schedule(float("inf"), tag("overflow")).cancel()
        assert sim.events_heap_pushed == 1
        assert sim.run() == 0
        assert sim.pending_events == 0
        sim.schedule(3, tag("fresh"))
        sim.run()
        assert order == ["fresh"]
        assert sim.now == 3

    def test_run_drains_only_cancelled_timed_events(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(1, tag("a")).cancel()
        sim.schedule(2, tag("b")).cancel()
        assert sim.run() == 0
        assert order == []
        assert sim.pending_events == 0
        assert sim.events_executed == 0

    def test_run_drains_only_cancelled_immediates(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.wake(tag("a")).cancel()
        assert sim.run() == 0
        assert order == []
        assert sim.pending_events == 0
        assert sim.events_fast_dispatched == 0


class TestImmediateQueue:
    """The zero-delay fast path must preserve (time, priority, seq) order."""

    def test_immediate_runs_before_later_timed_event(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(1, tag("later"))
        sim.wake(tag("imm"))
        sim.run()
        assert order == ["imm", "later"]

    def test_earlier_timed_seq_beats_immediate_at_same_time(self):
        sim = Simulation()
        order, tag = _recorder()
        # Timed tier, current tick, smaller seq than the immediate.
        sim._events.push(sim.now, 0, tag("timed"))
        sim.wake(tag("imm"))
        sim.run()
        assert order == ["timed", "imm"]

    def test_negative_priority_timed_event_beats_immediate(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.wake(tag("imm"))
        sim.schedule(0, tag("urgent"), priority=-1)
        sim.run()
        assert order == ["urgent", "imm"]

    def test_immediates_fifo_among_themselves(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.wake(tag("first"))
        sim.wake(tag("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_cancelled_immediate_is_skipped(self):
        sim = Simulation()
        order, tag = _recorder()
        doomed = sim.wake(tag("doomed"))
        sim.wake(tag("survivor"))
        doomed.cancel()
        sim.run()
        assert order == ["survivor"]

    def test_len_and_clear_cover_both_tiers(self):
        events = EventList()
        events.push(1, 0, _noop)
        events.push_immediate(0, _noop)
        assert len(events) == 2
        events.clear()
        assert len(events) == 0
        assert not events

    def test_run_until_dispatches_immediate_before_timed_head(self):
        sim = Simulation()
        seen = []
        sim.schedule(5, lambda: seen.append(("timed", sim.now)))
        sim.run(until=2)
        sim.wake(lambda: seen.append(("imm", sim.now)))
        assert sim.run(until=4) == 4
        assert seen == [("imm", 2)]
        assert sim.pending_events == 1

    def test_counters_track_tiers(self):
        sim = Simulation()
        sim.schedule(1, _noop)
        sim.wake(_noop)
        assert sim.events_wheel_pushed == 1
        assert sim.events_heap_pushed == 0
        assert sim._events.fast_scheduled == 1
        sim.run()
        assert sim.events_fast_dispatched == 1
        assert sim.events_executed == 2
