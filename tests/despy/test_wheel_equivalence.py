"""Hypothesis equivalence suite: wheel+heap kernel vs a pure-heap kernel.

The PR-2/PR-5 contract is that the immediate queue, the calendar wheel,
the overflow heap, the event pool and the merged-continuation fast paths
are *invisible except in speed*: for any schedule, the dispatch order is
exactly the total ``(time, seq)`` order a single binary heap would
produce.  These properties drive randomly generated schedules — nested
scheduling, processes holding among plain handlers, ``run(until=...)``
horizon re-entry — through the real :class:`Simulation` and through a
deliberately naive pure-heap reference kernel, and require identical
dispatch logs.
"""

from __future__ import annotations

import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.despy import (
    MS_PER_TICK,
    TICK_HORIZON,
    TICKS_PER_MS,
    Hold,
    Simulation,
    ms_to_ticks,
    ticks_to_ms,
)


class HeapReferenceKernel:
    """A minimal, obviously-correct event kernel: one binary heap.

    Mirrors :class:`Simulation`'s scheduling semantics — the
    ``(time, seq)`` total order and horizon handling — with none of its
    tiers or fast paths.
    """

    def __init__(self) -> None:
        self.now = 0
        self._heap: list = []
        self._seq = 0

    def schedule(self, delay: int, handler) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, handler))

    def run(self, until: float = math.inf) -> float:
        heap = self._heap
        while heap:
            time, seq, handler = heap[0]
            if time > until:
                if until > self.now and not math.isinf(until):
                    self.now = until
                return self.now
            heapq.heappop(heap)
            self.now = time
            handler()
        if not math.isinf(until) and until > self.now:
            self.now = until
        return self.now


#: One scheduling action: (delay, nested actions).  ``nested`` actions
#: are scheduled from inside the handler when it runs.  Delays are
#: integer ticks spanning ~8 ms, so schedules hit bucket ties, adjacent
#: buckets and empty stretches.
_action = st.deferred(
    lambda: st.tuples(
        st.integers(min_value=0, max_value=8 << 20),
        st.lists(_action, max_size=2),
    )
)

_schedules = st.lists(_action, min_size=1, max_size=12)

#: One process: (start delay, hold durations).  A zero hold on a quiet
#: list runs in place and a lone process's hold advances the clock in
#: place; tick-sized holds tie processes with each other and with plain
#: handlers.
_process = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=4 << 20),
        ),
        max_size=6,
    ),
)


def _process_body(label, holds, clock, log):
    """A process both kernels run: log each resume, then hold."""
    log.append((label, "start", clock()))
    for step, duration in enumerate(holds):
        yield Hold(duration)
        log.append((label, step, clock()))


def _reference_process(kernel, generator):
    """The reference's process: every resume is one plain event."""

    def step():
        try:
            hold = next(generator)
        except StopIteration:
            return
        kernel.schedule(hold.duration, step)

    return step


def _drive_simulation(actions, horizons, processes=()):
    """Run a schedule on the real kernel; return the dispatch log."""
    sim = Simulation()
    log: list = []
    counter = [0]

    def install(action):
        delay, nested = action
        label = counter[0]
        counter[0] += 1

        def handler():
            log.append((label, sim.now))
            for sub in nested:
                install(sub)

        sim.schedule(delay, handler)

    for action in actions:
        install(action)
    for index, (start, holds) in enumerate(processes):
        body = _process_body(("process", index), holds, lambda: sim.now, log)
        sim.process(body, delay=start)
    for horizon in horizons:
        sim.run(until=sim.now + horizon)
    sim.run()
    return log


def _drive_reference(actions, horizons, processes=()):
    """Run the same schedule on the pure-heap reference kernel."""
    kernel = HeapReferenceKernel()
    log: list = []
    counter = [0]

    def install(action):
        delay, nested = action
        label = counter[0]
        counter[0] += 1

        def handler():
            log.append((label, kernel.now))
            for sub in nested:
                install(sub)

        kernel.schedule(delay, handler)

    for action in actions:
        install(action)
    for index, (start, holds) in enumerate(processes):
        body = _process_body(("process", index), holds, lambda: kernel.now, log)
        kernel.schedule(start, _reference_process(kernel, body))
    for horizon in horizons:
        kernel.run(until=kernel.now + horizon)
    kernel.run()
    return log


@settings(max_examples=120, deadline=None)
@given(_schedules)
def test_dispatch_order_matches_pure_heap_reference(actions):
    """Same schedule, same dispatch order — wheel tiers invisible."""
    assert _drive_simulation(actions, ()) == _drive_reference(actions, ())


@settings(max_examples=120, deadline=None)
@given(
    _schedules,
    st.lists(
        st.integers(min_value=0, max_value=6 << 20),
        min_size=1,
        max_size=4,
    ),
)
def test_horizon_reentry_matches_pure_heap_reference(actions, horizons):
    """run(until=...) slices the same schedule at the same points.

    Horizon re-entry is the adversarial case for the wheel: the clock
    jumps past the due bucket without dispatching, so later same-tick
    events must still merge in exact key order.
    """
    assert _drive_simulation(actions, horizons) == _drive_reference(
        actions, horizons
    )


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_action, max_size=6),
    st.lists(_process, min_size=1, max_size=5),
    st.lists(st.integers(min_value=0, max_value=6 << 20), max_size=3),
)
def test_processes_match_pure_heap_reference(actions, processes, horizons):
    """Processes holding among plain handlers run in reference order.

    Neither a zero hold merged in place nor a lone process's hold that
    advances the clock in place may show in the dispatch log, across
    ``run(until=...)`` slices too.
    """
    assert _drive_simulation(actions, horizons, processes) == _drive_reference(
        actions, horizons, processes
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=50 << 20),
        min_size=1,
        max_size=64,
    ),
    st.integers(min_value=2, max_value=7),
)
def test_wide_delay_mix_hits_every_tier(delays, modulus):
    """Zero delays, tick ties and far-future overflows in one schedule.

    Every ``modulus``-th entry is stretched far beyond the overflow
    horizon, forcing wheel/heap coexistence; the dispatch order must
    still be the reference order.
    """
    actions = [
        (delay * 10**9 if i % modulus == 0 else delay, [])
        for i, delay in enumerate(delays)
    ]
    assert _drive_simulation(actions, ()) == _drive_reference(actions, ())


# ----------------------------------------------------------------------
# Tick-domain properties (PR 6): the integer time base itself.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=20),
)
def test_dyadic_ms_roundtrip_is_exact(numerator, exponent):
    """ms -> tick -> ms is *exact* for dyadic delays up to 2**-20 ms.

    The tick scale is 2**20 per ms, so any millisecond value with a
    denominator that is a power of two no coarser than the tick (0.5 ms,
    0.25 ms, Table 1's 0.5-ms lock costs...) converts without rounding:
    the round trip through :func:`ms_to_ticks` / :func:`ticks_to_ms`
    must reproduce the float bit-for-bit.
    """
    ms = numerator / (1 << exponent)
    ticks = ms_to_ticks(ms)
    assert ticks == numerator * (TICKS_PER_MS >> exponent)
    assert ticks_to_ms(ticks) == ms


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**50))
def test_tick_ms_roundtrip_is_exact_for_small_ticks(ticks):
    """tick -> ms -> tick is exact while ticks fit a float mantissa."""
    assert ms_to_ticks(ticks * MS_PER_TICK) == ticks


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=TICK_HORIZON // 4),
        min_size=1,
        max_size=16,
    )
)
def test_until_inf_run_dispatches_everything_without_overflow(delays):
    """``run(until=inf)`` drains near-horizon schedules; no tick wraps.

    Delays up to a quarter of the horizon — far beyond any float-era
    schedule — must dispatch in order with the clock landing exactly on
    the last event, never saturating or wrapping past
    :data:`TICK_HORIZON`.
    """
    sim = Simulation()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    end = sim.run(until=float("inf"))
    assert len(observed) == len(delays)
    assert observed == sorted(observed)
    assert end == max(delays)
    assert 0 <= end < TICK_HORIZON
