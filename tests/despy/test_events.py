"""Event-list tests: ordering, tiers and tier ties.

The ordering tests drive :meth:`Simulation.run`, the one dispatch loop,
so they check the order production replications see.
"""

from repro.despy import Hold, Simulation
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

    def test_insertion_order_breaks_full_ties(self):
        sim = Simulation()
        order, tag = _recorder()
        for label in ("first", "second", "third"):
            sim.schedule(1, tag(label))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_event_comparison_is_total(self):
        a = Event(1, 0, _noop, ())
        b = Event(1, 1, _noop, ())
        assert a < b
        assert not b < a

    def test_event_comparison_orders_time_before_seq(self):
        early = Event(1, 9, _noop, ())
        late = Event(2, 0, _noop, ())
        assert early < late
        assert not late < early

    def test_run_until_on_empty_list_advances_clock(self):
        sim = Simulation()
        assert sim.run(until=7) == 7
        assert sim.events_executed == 0


class TestEventListBasics:
    def test_bool_reflects_emptiness(self):
        events = EventList()
        assert not events
        events.push(1, _noop)
        assert events

    def test_push_stores_handler_and_args(self):
        events = EventList()
        event = events.push(1, _noop, args=(1, 2))
        assert event.handler is _noop
        assert event.args == (1, 2)

    def test_run_drains_every_tier(self):
        """Immediate, wheel and overflow-heap events all run, and the
        drained list takes fresh work on its clock."""
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(0, tag("immediate"))
        sim.schedule(1, tag("wheel"))
        sim.schedule(10**15, tag("overflow"))
        assert sim.events_heap_pushed == 1
        assert sim.run() == 10**15
        assert sim.pending_events == 0
        sim.schedule(3, tag("fresh"))
        sim.run()
        assert order == ["immediate", "wheel", "overflow", "fresh"]
        assert sim.now == 10**15 + 3

    def test_schedule_returns_the_event_at_its_absolute_tick(self):
        sim = Simulation()
        sim.schedule(2, _noop)
        sim.run()
        timed = sim.schedule(3, _noop)
        immediate = sim.schedule(0, _noop)
        far = sim.schedule(10**15, _noop)
        assert (timed.time, immediate.time, far.time) == (5, 2, 10**15 + 2)
        assert timed.seq < immediate.seq < far.seq

    def test_scheduled_events_are_never_recycled(self):
        """Events handed back by ``schedule`` stay the caller's: only
        the kernel's own continuations go back to the free list."""
        sim = Simulation()
        held = [sim.schedule(1, _noop), sim.schedule(0, _noop)]

        def proc():
            for _ in range(3):
                yield Hold(1)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert sim.events_pooled_reused > 0
        assert [event.handler for event in held] == [_noop, _noop]
        later = [sim.schedule(delay, _noop) for delay in (0, 1, 2, 3)]
        assert not any(new is old for new in later for old in held)


class TestTierMerges:
    """Events reaching one tick through different tiers keep seq order."""

    def test_overflow_entry_precedes_a_later_wheel_push_at_its_tick(self):
        """An overflow-heap event absorbed into a wheel bucket runs
        before a same-tick event pushed onto the wheel after it."""
        sim = Simulation()
        order, tag = _recorder()
        far = 10**6
        sim.schedule(1, _noop)  # seeds one-tick buckets
        sim.schedule(far, tag("overflow"))
        sim.schedule(far - 10, lambda: sim.schedule(10, tag("wheel")))
        sim.run()
        assert order == ["overflow", "wheel"]
        assert sim.events_heap_pushed == 2
        assert sim.now == far

    def test_push_into_the_draining_bucket_keeps_seq_order(self):
        """A handler scheduling onto a later tick of the bucket being
        drained queues behind the events already due on that tick."""
        sim = Simulation()
        order, tag = _recorder()

        def first():
            order.append("first")
            sim.schedule(1, tag("pushed-while-draining"))

        sim.schedule(8, first)  # seeds two-tick buckets: 8 and 9 share one
        sim.schedule(9, tag("queued-earlier"))
        sim.run()
        assert order == ["first", "queued-earlier", "pushed-while-draining"]

    def test_saturated_events_run_last_in_seq_order(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(float("inf"), tag("inf-first"))
        sim.schedule(5, tag("timed"))
        sim.schedule(float("inf"), tag("inf-second"))
        sim.run()
        assert order == ["timed", "inf-first", "inf-second"]
        assert sim.events_ticks_overflowed == 2

    def test_bucket_width_adapts_without_reordering(self):
        """A chain of far-apart events starts on the overflow heap (the
        first delay seeded one-tick buckets); once enough delays are
        sampled the width adapts and the chain moves onto the wheel,
        dispatching at the same ticks."""
        sim = Simulation()
        seen = []

        def link(remaining):
            seen.append(sim.now)
            if remaining:
                sim.schedule(10_000, link, remaining - 1)

        sim.schedule(1, link, 400)
        sim.run()
        assert seen == [1 + 10_000 * i for i in range(401)]
        assert sim.events_wheel_recalibrations >= 1
        assert 0 < sim.events_heap_pushed < 400


class TestImmediateQueue:
    """The zero-delay fast path must preserve (time, seq) order."""

    def test_immediate_runs_before_later_timed_event(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(1, tag("later"))
        sim.schedule(0, tag("imm"))
        sim.run()
        assert order == ["imm", "later"]

    def test_immediates_fifo_among_themselves(self):
        sim = Simulation()
        order, tag = _recorder()
        sim.schedule(0, tag("first"))
        sim.schedule(0, tag("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_len_covers_both_tiers(self):
        events = EventList()
        events.push(1, _noop)
        events.push_immediate(0, _noop)
        assert len(events) == 2
        assert events

    def test_run_until_dispatches_immediate_before_timed_head(self):
        sim = Simulation()
        seen = []
        sim.schedule(5, lambda: seen.append(("timed", sim.now)))
        sim.run(until=2)
        sim.schedule(0, lambda: seen.append(("imm", sim.now)))
        assert sim.run(until=4) == 4
        assert seen == [("imm", 2)]
        assert sim.pending_events == 1

    def test_counters_track_tiers(self):
        sim = Simulation()
        sim.schedule(1, _noop)
        sim.schedule(0, _noop)
        assert sim.events_wheel_pushed == 1
        assert sim.events_heap_pushed == 0
        assert sim._events.fast_scheduled == 1
        sim.run()
        assert sim.events_fast_dispatched == 1
        assert sim.events_executed == 2
