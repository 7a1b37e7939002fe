"""Unit tests for the Simulation engine: clock, scheduling, streams."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.despy import Hold, Simulation
from repro.despy.errors import SchedulingError


class TestScheduling:
    def test_schedule_runs_handler_at_offset(self):
        sim = Simulation()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_passes_args(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        sim.run()
        assert seen == [("x", 2)]

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SchedulingError):
            sim.schedule(math.nan, lambda: None)

    @pytest.mark.parametrize(
        "delay, ticks",
        [(Fraction(3, 2), None), (Decimal("2.5"), None), (Fraction(4, 2), 2)],
        ids=["fraction-3-2", "decimal-2.5", "fraction-4-2"],
    )
    def test_non_float_delays_must_be_integral(self, delay, ticks):
        """Regression: a fractional Fraction or Decimal delay used to be
        truncated by ``int()`` (3/2 ran at tick 1) instead of raising
        like a fractional float."""
        sim = Simulation()
        if ticks is None:
            with pytest.raises(SchedulingError, match="integer ticks"):
                sim.schedule(delay, lambda: None)
            with pytest.raises(SchedulingError, match="integer ticks"):
                Hold(delay)
            return
        seen = []
        sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [ticks]
        assert Hold(delay).duration == ticks

    def test_drained_simulation_is_reusable(self):
        """Multi-phase experiments schedule fresh work after a drain."""
        sim = Simulation()
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        sim.schedule(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0, 5.0]

    def test_events_chain_from_handlers(self):
        sim = Simulation()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [("first", 1.0), ("second", 3.0)]


class TestRunControl:
    def test_run_until_pauses_clock_at_horizon(self):
        sim = Simulation()
        sim.schedule(10.0, lambda: None)
        end = sim.run(until=4.0)
        assert end == 4.0
        assert sim.pending_events == 1

    def test_run_resumes_after_horizon(self):
        sim = Simulation()
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run(until=4.0)
        sim.run()
        assert seen == [10.0]

    def test_run_after_drain_is_noop(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.run() == 1.0

    def test_empty_run_finishes_at_zero(self):
        sim = Simulation()
        assert sim.run() == 0.0

    def test_run_until_advances_idle_clock_to_horizon(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        end = sim.run(until=9.0)
        assert end == 9.0

    def test_events_executed_counter(self):
        sim = Simulation()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_run_until_infinity_leaves_clock_at_last_event(self):
        """Regression: ``until is not math.inf`` let a *distinct* inf
        float slip through and park the clock at infinity, breaking the
        documented multi-phase reuse."""
        sim = Simulation()
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))
        end = sim.run(until=float("inf"))
        assert end == 2.0
        assert sim.now == 2.0
        # The drained simulation must still be reusable on the same clock.
        sim.schedule(3.0, lambda: seen.append(sim.now))
        sim.run(until=float("inf"))
        assert seen == [2.0, 5.0]

    def test_run_until_infinity_on_empty_list_keeps_clock(self):
        sim = Simulation()
        assert sim.run(until=float("inf")) == 0.0
        assert sim.now == 0.0

    def test_integral_fraction_horizon_bounds_the_warp_lane(self):
        """Regression: a non-float, non-int horizon passed through
        uncoerced, so the warp lane ran a lone process's hold past it
        (``until=Fraction(10)`` ended at tick 100)."""
        sim = Simulation()
        seen = []

        def proc():
            yield Hold(100)
            seen.append(sim.now)

        sim.process(proc())
        assert sim.run(until=Fraction(10)) == 10
        assert seen == []
        with pytest.raises(SchedulingError, match="integer ticks"):
            sim.run(until=Fraction(21, 2))

    def test_run_until_in_past_does_not_rewind_clock(self):
        sim = Simulation()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=2.0) == 5.0  # horizon already behind the clock

    def test_event_due_at_the_horizon_runs(self):
        sim = Simulation()
        seen = []
        sim.schedule(5, lambda: seen.append(sim.now))
        assert sim.run(until=5) == 5
        assert seen == [5]
        assert sim.pending_events == 0

    def test_immediates_queued_on_the_horizon_tick_run_before_returning(self):
        sim = Simulation()
        seen = []

        def last():
            seen.append("last")
            sim.schedule(0, lambda: seen.append("continuation"))

        sim.schedule(5, last)
        assert sim.run(until=5) == 5
        assert seen == ["last", "continuation"]
        assert sim.pending_events == 0

    def test_horizon_behind_the_clock_keeps_queued_immediates(self):
        sim = Simulation()
        seen = []
        sim.schedule(5, lambda: None)
        sim.run()
        sim.schedule(0, lambda: seen.append(sim.now))
        assert sim.run(until=2) == 5
        assert (seen, sim.pending_events) == ([], 1)
        sim.run()
        assert seen == [5]

    def test_hold_past_the_horizon_resumes_on_the_next_run(self):
        sim = Simulation()
        seen = []

        def proc():
            yield Hold(10)
            seen.append(sim.now)

        sim.process(proc())
        assert sim.run(until=4) == 4
        assert (seen, sim.pending_events) == ([], 1)
        assert sim.run() == 10
        assert seen == [10]


class TestFastDispatch:
    """The immediate-dispatch queue must be invisible except in speed."""

    def test_zero_delay_events_bypass_the_timed_tiers(self):
        sim = Simulation()
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert sim.events_fast_dispatched == 1
        assert sim.events_wheel_pushed == 0
        assert sim.events_heap_pushed == 0

    def test_positive_delay_events_use_the_wheel(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fast_dispatched == 0
        assert sim.events_wheel_pushed == 1

    def test_zero_delay_runs_at_current_time_in_seq_order(self):
        sim = Simulation()
        order = []

        def later():
            order.append("later")

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("woken"))
            sim.schedule(0.0, lambda: order.append("scheduled"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, later)
        sim.run()
        # "later" was scheduled before the zero-delay continuations, so
        # its smaller sequence number must win the time tie.
        assert order == ["first", "later", "woken", "scheduled"]

    def test_timed_event_due_now_precedes_the_ticks_immediates(self):
        """A process resumed off the timed tier at a tick where a
        zero-delay event is already queued runs before that event, and
        its own zero-delay continuation queues behind it: the timed
        resume was scheduled on an earlier tick (smaller seq), the
        continuation on this one (larger seq)."""
        sim = Simulation()
        order = []

        def e1():
            order.append("E1")
            sim.schedule(0, lambda: order.append("C"))

        def proc():
            yield Hold(5)
            order.append("P")
            yield Hold(0)
            order.append("P-after")

        sim.schedule(5, e1)
        sim.process(proc())
        sim.run()
        assert order == ["E1", "P", "C", "P-after"]

    def test_fast_path_counts_into_events_executed(self):
        sim = Simulation()
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2

    def test_hold_zero_queues_behind_a_pending_immediate(self):
        """A process yielding ``Hold(0)`` while a zero-delay event is
        queued on its tick parks behind that event."""
        sim = Simulation()
        order = []

        def proc():
            sim.schedule(0, lambda: order.append("queued"))
            yield Hold(0)
            order.append("resumed")

        sim.process(proc())
        sim.run()
        assert order == ["queued", "resumed"]
        assert sim.events_merged_continuations == 0

    def test_hold_zero_merges_in_place_on_a_quiet_list(self):
        sim = Simulation()
        seen = []

        def proc():
            yield Hold(0)
            yield Hold(0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [0]
        assert sim.events_merged_continuations == 2
        # Only the process start went through the immediate queue.
        assert sim.events_fast_dispatched == 1


class TestHoldWarp:
    """A lone process's holds advance the clock in place, unobservably."""

    def test_lone_process_holds_advance_the_clock_in_place(self):
        sim = Simulation()
        seen = []

        def proc():
            for delay in (2, 3, 4):
                yield Hold(delay)
                seen.append(sim.now)

        sim.process(proc())
        assert sim.run() == 9
        assert seen == [2, 5, 9]
        assert sim.events_holds_warped == 3
        assert sim.events_wheel_pushed == 0

    def test_holds_go_through_the_wheel_while_another_event_is_queued(self):
        sim = Simulation()
        order = []

        def proc():
            for _ in range(3):
                yield Hold(2)
                order.append(("P", sim.now))

        sim.schedule(3, lambda: order.append(("E", sim.now)))
        sim.process(proc())
        sim.run()
        assert order == [("P", 2), ("E", 3), ("P", 4), ("P", 6)]
        # Only the last hold finds the list empty.
        assert sim.events_holds_warped == 1


class TestStreams:
    def test_stream_is_cached_by_name(self):
        sim = Simulation(seed=1)
        assert sim.stream("disk") is sim.stream("disk")

    def test_streams_reproducible_across_simulations(self):
        a = Simulation(seed=99).stream("disk")
        b = Simulation(seed=99).stream("disk")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_named_streams_differ(self):
        sim = Simulation(seed=99)
        a = sim.stream("disk")
        b = sim.stream("network")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = Simulation(seed=1).stream("disk")
        b = Simulation(seed=2).stream("disk")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


class TestDeterminism:
    def test_determinism_same_seed_same_trace(self):
        def build():
            sim = Simulation(seed=5)
            order = []

            def recurring(n):
                order.append((sim.now, n))
                if n < 20:
                    delay = sim.stream("d").exponential_ticks(1.0)
                    sim.schedule(delay, recurring, n + 1)

            sim.schedule(0.0, recurring, 0)
            sim.run()
            return order

        assert build() == build()
