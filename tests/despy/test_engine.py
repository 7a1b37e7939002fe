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

    def test_schedule_at_absolute_time(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulation()
        failures = []

        def try_past():
            try:
                sim.schedule_at(1.0, lambda: None)
            except SchedulingError:
                failures.append(sim.now)

        sim.schedule(2.0, try_past)
        sim.run()
        assert failures == [2.0]

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

    def test_stop_drops_pending_events(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(sim.now), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0]

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

    def test_prioritized_zero_delay_events_use_the_timed_tiers(self):
        sim = Simulation()
        sim.schedule(0.0, lambda: None, priority=1)
        sim.run()
        assert sim.events_wheel_pushed == 1

    def test_wake_runs_at_current_time_in_seq_order(self):
        sim = Simulation()
        order = []

        def later():
            order.append("later")

        def first():
            order.append("first")
            sim.wake(lambda: order.append("woken"))
            sim.schedule(0.0, lambda: order.append("scheduled"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, later)
        sim.run()
        # "later" was scheduled before the zero-delay continuations, so
        # its smaller sequence number must win the time tie.
        assert order == ["first", "later", "woken", "scheduled"]

    def test_heap_priority_preempts_pending_immediates(self):
        sim = Simulation()
        order = []

        def kick():
            sim.wake(lambda: order.append("imm"))
            sim.schedule(0.0, lambda: order.append("urgent"), priority=-5)

        sim.schedule(1.0, kick)
        sim.run()
        assert order == ["urgent", "imm"]

    def test_wake_event_can_be_cancelled(self):
        sim = Simulation()
        seen = []
        event = sim.wake(lambda: seen.append("no"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_mixed_order_matches_pure_key_order(self):
        """Interleave heap and immediate events and check the dispatch
        order equals a sort by (time, priority, seq)."""
        sim = Simulation()
        order = []

        def tag(label):
            return lambda: order.append(label)

        def storm():
            sim.schedule(0.0, tag("a"))          # imm seq n
            sim.schedule(0.0, tag("b"), priority=2)   # heap, loses to prio 0
            sim.schedule(0.0, tag("c"), priority=-2)  # heap, wins over imm
            sim.wake(tag("d"))                   # imm seq n+3
            sim.schedule(1.0, tag("e"))

        sim.schedule(1.0, storm)
        sim.run()
        assert order == ["c", "a", "d", "b", "e"]

    def test_fast_path_counts_into_events_executed(self):
        sim = Simulation()
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2

    def test_stop_drops_pending_immediates(self):
        sim = Simulation()
        seen = []

        def first():
            sim.wake(lambda: seen.append("no"))
            sim.stop()

        sim.schedule(1.0, first)
        sim.run()
        assert seen == []

    def test_current_tick_timed_event_keeps_seq_order(self):
        """Regression (from the float kernel's absorbed delays): a
        priority-0 event landing on the *timed* tier at the current tick
        with a seq between two queued immediates.  Integer ticks can no
        longer absorb a positive delay, so the tier mix is staged through
        the event list directly — the merge must still honor
        (time, priority, seq) order across tiers."""
        sim = Simulation()
        order = []

        def kick():
            sim.schedule(0, lambda: order.append("imm-first"))
            # Same tick, timed tier, seq between the two immediates.
            sim._events.push(sim.now, 0, lambda: order.append("tied"))
            sim.schedule(0, lambda: order.append("imm-second"))

        sim.schedule(10**16, kick)
        sim.run()
        assert order == ["imm-first", "tied", "imm-second"]


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
