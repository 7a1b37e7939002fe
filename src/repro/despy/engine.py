"""The simulation engine: clock, event loop and process bookkeeping.

A :class:`Simulation` owns one event list and one clock.  It can be driven
in two styles, mirroring how DESP-C++ models were written:

* **event scheduling** — ``sim.schedule(delay, handler, *args)`` runs a
  plain callable at a future time;
* **process interaction** — ``sim.process(generator)`` turns a generator
  into a :class:`~repro.despy.process.Process` whose ``yield`` statements
  are interpreted as Hold / Request / Release commands.

Both styles share the same deterministic event ordering, so they compose.

Time base
---------
The clock and every delay are **integer ticks** (1 tick = 2⁻²⁰ ms; see
:mod:`repro.despy.timebase`).  Convert milliseconds at the call site
with :func:`~repro.despy.timebase.ms_to_ticks`; fractional delays (a
float, ``Fraction`` or ``Decimal``) raise — they are unit bugs, not
near-misses.  Integral values (including the ``float('inf')`` horizon
sentinel, which saturates) are coerced.
:attr:`Simulation.now_ms` reports the clock in milliseconds for display.

Fast paths
----------
Zero-delay, priority-0 events (the continuations that dominate VOODB:
resource grants, gate openings, process wake-ups after a release) skip
the timed tiers and land on an immediate-dispatch FIFO; timed events go
through a calendar-queue event wheel with a far-future overflow heap —
see :mod:`repro.despy.events`.  The run loop merges the FIFO head with
the wheel's due head on the full ``(time, priority, seq)`` key, so the
execution order is *bit-identical* to a pure-heap kernel; only the
per-event cost changes.  The counters :attr:`Simulation.events_wheel_pushed`,
:attr:`Simulation.events_heap_pushed`, :attr:`Simulation.events_fast_dispatched`
and :attr:`Simulation.events_pooled_reused` report how much traffic each
tier carried and how many Event allocations the free-list pool saved.

:meth:`Simulation.run` is the only dispatch loop.  At every dispatch it
also refreshes the event list's cached ``quiet`` flag — the one copy of
the merged-continuation test that lets the process layer keep stepping
a process in place (see :meth:`repro.despy.process.Process._step`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Union

from repro.despy.errors import SchedulingError
from repro.despy.events import Event, EventList
from repro.despy.process import Process
from repro.despy.randomstream import RandomStream
from repro.despy.timebase import MS_PER_TICK, TICK_HORIZON, coerce_ticks

#: Fence value above any real sequence number (the engine drains the
#: immediate queue up to, but not past, a tick-tied timed event's seq).
_NO_FENCE = 9223372036854775807


def _coerce_horizon(until: Union[int, float]) -> Union[int, float]:
    """Normalize a ``run(until=...)`` horizon to ticks.

    ``float('inf')`` passes through (an infinite horizon compares fine
    against integer ticks); integral values become ints; fractional
    ones are unit bugs and raise.
    """
    if isinstance(until, float):
        if math.isinf(until):
            return until
        if until != until or until != int(until):
            raise SchedulingError(
                f"run horizon must be integer ticks, got {until!r}; "
                "convert milliseconds with ms_to_ticks()"
            )
        return int(until)
    return coerce_ticks(until)


class Simulation:
    """A single replication of a discrete-event random simulation.

    Parameters
    ----------
    seed:
        Root seed for this replication.  Named random streams derived via
        :meth:`stream` are independent of one another but fully determined
        by this seed, so a replication can always be replayed.
    """

    def __init__(self, seed: int = 0) -> None:
        #: current simulated time in integer ticks
        self.now: int = 0
        self.seed = seed
        self._events = EventList()
        self._streams: dict[str, RandomStream] = {}
        self._processes_started = 0
        self._events_executed = 0
        #: active hold-warp horizon (ticks).  While the run loop
        #: executes, this is the run's ``until`` (or the largest
        #: warpable tick under an infinite horizon); -1 disables the
        #: warp lane (outside run(), after stop()).  See Process._step.
        self._warp_until = -1

    @property
    def now_ms(self) -> float:
        """The clock in milliseconds (reporting only; exact < 2**53)."""
        return self.now * MS_PER_TICK

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------
    def stream(self, name: str) -> RandomStream:
        """Return the named random stream, creating it on first use.

        Streams are cached: asking twice for ``"disk"`` returns the same
        generator, so consumption order stays well-defined.
        """
        if name not in self._streams:
            self._streams[name] = RandomStream(self.seed, name)
        return self._streams[name]

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        handler: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``handler(*args)`` to run ``delay`` ticks from now."""
        if delay.__class__ is not int:
            delay = coerce_ticks(delay)
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay!r}")
        if delay == 0 and priority == 0:
            return self._events.push_immediate(self.now, handler, args)
        return self._events.push(self.now + delay, priority, handler, args)

    def schedule_at(
        self,
        time: int,
        handler: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``handler(*args)`` at an absolute tick time."""
        if time.__class__ is not int:
            time = coerce_ticks(time)
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self.schedule(time - self.now, handler, *args, priority=priority)

    def wake(self, handler: Callable[..., Any], *args: Any) -> Event:
        """Queue ``handler(*args)`` for immediate dispatch at the current time.

        Equivalent to ``schedule(0, handler, *args)`` in every
        observable way (ordering and cancellability included) — just
        spelled as what it is.
        """
        return self._events.push_immediate(self.now, handler, args)

    # ------------------------------------------------------------------
    # Process layer
    # ------------------------------------------------------------------
    def process(
        self,
        generator: Generator,
        name: str = "",
        delay: int = 0,
        priority: int = 0,
    ) -> Process:
        """Register a generator as a simulation process.

        The process starts ``delay`` ticks from now.  See
        :mod:`repro.despy.process` for the command protocol.
        """
        proc = Process(self, generator, name or f"process-{self._processes_started}")
        self._processes_started += 1
        self.schedule(delay, proc._step, None, priority=priority)
        return proc

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Union[int, float] = math.inf) -> int:
        """Execute events in order until the list drains or ``until``.

        Returns the final simulation clock (ticks).  The clock is left
        at ``until`` when the horizon is hit with events still pending,
        and at the last executed event time otherwise.  An infinite
        horizon never touches the clock (``run(until=float("inf"))``
        behaves like ``run()``).

        A drained simulation is *reusable*: scheduling new events and
        calling :meth:`run` again continues on the same clock.  VOODB's
        multi-phase experiments (usage run → clustering → usage run,
        paper §4.4) rely on this.
        """
        if until.__class__ is not int:
            until = _coerce_horizon(until)
        events = self._events
        immediate = events._immediate
        popleft = immediate.popleft
        advance = events._advance
        pool_append = events._pool.append
        executed = self._events_executed
        fast = 0
        now = self.now
        events.now_hint = now
        # Arm the hold-warp lane (see Process._step): a handler may
        # advance the clock in place up to this tick when the event
        # list is provably empty.  Holds landing at the tick horizon
        # must keep their overflow-heap semantics, hence the -1.
        self._warp_until = until if until.__class__ is int else TICK_HORIZON - 1
        try:
            while True:
                # A handler may have warped the clock forward without
                # queueing anything — re-read it every iteration.
                now = self.now
                # Timed head: the due list's live slice, refilled from
                # the wheel/heap only when it runs dry.
                if events._timed:
                    due = events._due
                    idx = events._due_idx
                    if idx < len(due):
                        head = due[idx]
                        if head.cancelled:
                            events._due_idx = idx + 1
                            events._timed -= 1
                            continue
                    else:
                        head = advance()
                else:
                    head = None
                if immediate:
                    if now > until:
                        # Horizon in the past: leave the queue intact
                        # for the next run().
                        return self.now
                    seq_fence = _NO_FENCE
                    if head is not None and head.time == now:
                        # A timed event on the current tick precedes the
                        # pending immediates when its priority is
                        # negative, or on a seq tie-break at priority 0.
                        # (Priority-0 timed events usually come from an
                        # earlier tick and win the tie-break — but a
                        # zero-tick positive delay, now + 0 == now,
                        # lands on this tick with a *larger* seq, so
                        # the compare is required.)
                        prio = head.priority
                        if prio < 0 or (
                            prio == 0 and head.seq < immediate[0].seq
                        ):
                            events._due_idx += 1
                            events._timed -= 1
                            executed += 1
                            head.handler(*head.args)
                            if head.pooled:
                                head.handler = None
                                pool_append(head)
                            continue
                        if prio == 0:
                            # The tick-tied head sorts between two
                            # queued immediates: drain only up to it.
                            seq_fence = head.seq
                    # No preempting timed contender: drain immediates
                    # until the fence, or until one of their handlers
                    # pushes a timed event that could preempt this tick
                    # (preempt_dirty).
                    events.preempt_dirty = False
                    # The timed head is fixed for this drain (pushes
                    # that could tie the tick set preempt_dirty and
                    # break out), so its tie status is too.
                    tie_free = (
                        head is None or head.time != now or head.priority > 0
                    )
                    while immediate:
                        event = immediate[0]
                        if event.seq > seq_fence:
                            break
                        popleft()
                        if event.cancelled:
                            continue
                        executed += 1
                        fast += 1
                        events.quiet = False if immediate else tie_free
                        event.handler(*event.args)
                        if event.pooled:
                            event.handler = None
                            pool_append(event)
                        if events.preempt_dirty:
                            break
                    continue
                if head is None:
                    break
                time = head.time
                if time > until:
                    if until > now:
                        self.now = until
                    return self.now
                events._due_idx += 1
                events._timed -= 1
                events.now_hint = now = self.now = time
                executed += 1
                # Refresh the cached merged-continuation test, the
                # predicate's only full copy: no immediate is queued
                # here, so ``quiet`` iff no timed event ties this tick
                # at priority <= 0.  The live due head is the earliest
                # timed event, which makes the test exact; with the due
                # list drained, the bucket-index checks against the
                # wheel and the overflow heap are exact unless the
                # clock out-ran the due bucket, and then err to False.
                due = events._due
                idx = events._due_idx
                if idx < len(due):
                    nxt = due[idx]
                    events.quiet = nxt.priority > 0 or nxt.time != time
                else:
                    bucket_heap = events._bucket_heap
                    heap = events._heap
                    events.quiet = not (
                        bucket_heap
                        and time >> events._shift >= bucket_heap[0]
                    ) and not (
                        heap and heap[0][0] == time and heap[0][1] <= 0
                    )
                head.handler(*head.args)
                if head.pooled:
                    head.handler = None
                    pool_append(head)
        finally:
            self._events_executed = executed
            events.fast_dispatched += fast
            self._warp_until = -1
        if until.__class__ is int and until > now:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Drop every pending event, ending :meth:`run` at the current time."""
        self._events.clear()
        # Disarm the warp lane: a process stepping on after stop() must
        # park normally so the drained loop can actually exit.
        self._warp_until = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events (live or cancelled) still queued."""
        return len(self._events)

    @property
    def events_executed(self) -> int:
        """Total events the loop has dispatched so far."""
        return self._events_executed

    @property
    def events_heap_pushed(self) -> int:
        """Events that paid a far-future overflow heap push (perf counter)."""
        return self._events.heap_pushed

    @property
    def events_wheel_pushed(self) -> int:
        """Timed events routed through the calendar wheel (perf counter)."""
        return self._events.wheel_pushed

    @property
    def events_fast_dispatched(self) -> int:
        """Events dispatched straight off the immediate queue (perf counter)."""
        return self._events.fast_dispatched

    @property
    def events_pooled_reused(self) -> int:
        """Event objects recycled through the free list instead of
        allocated fresh (perf counter)."""
        return self._events.pooled_reused

    @property
    def events_merged_continuations(self) -> int:
        """Zero-delay continuations the process layer ran in place,
        without any queue round-trip at all (perf counter)."""
        return self._events.merged_continuations

    @property
    def events_holds_warped(self) -> int:
        """Timed holds that advanced the clock in place — the event
        list was provably empty, so the push/dispatch round trip was
        skipped entirely (perf counter)."""
        return self._events.holds_warped

    @property
    def events_ticks_overflowed(self) -> int:
        """Pushes saturated at the tick horizon (perf counter; see
        :mod:`repro.despy.timebase`)."""
        return self._events.ticks_overflowed

    @property
    def events_wheel_recalibrations(self) -> int:
        """Adaptive bucket-width re-derivations applied (perf counter)."""
        return self._events.wheel_recalibrations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulation t={self.now} pending={self.pending_events} "
            f"seed={self.seed}>"
        )
