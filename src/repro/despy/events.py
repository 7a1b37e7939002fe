"""Event and event-list primitives.

The event list is the heart of a discrete-event kernel: a queue ordered
by ``(time, sequence)``.  The sequence number makes the ordering total
and deterministic — two events scheduled for the same time always
execute in scheduling order, which is what makes the whole simulation
reproducible for a given random seed.

Time is an **integer tick count** (see :mod:`repro.despy.timebase`): the
wheel's bucket index is an exact shift (``time >> shift``), clock
compares are integer compares, and the adaptive-width recalibration is
integer arithmetic — no float quantization anywhere in the schedule.

Three storage tiers share one sequence counter:

* an **immediate queue** (a plain FIFO deque) for zero-delay events at
  the current clock value — the continuations that dominate VOODB
  traffic (resource grants, gate openings, process wake-ups);
* a **calendar-queue event wheel** for timed events in the near future:
  events are appended unsorted to a bucket keyed by the high bits of
  their tick time (``time >> shift``; the bucket width is always a power
  of two), and a whole bucket is sorted at once — in C, via an
  attrgetter sort key — when the clock reaches it.  The width adapts to
  the observed mean scheduling delay, and a small heap of *bucket
  indices* (ints, one entry per bucket rather than per event) finds the
  next non-empty bucket without scanning.  When nothing at all is
  queued, a push skips the bucket machinery entirely and becomes the due
  list on its own (the *singleton lane* — the common shape of
  low-multiprogramming phases);
* a **binary heap** for far-future overflow: events more than
  ``_OVERFLOW_BUCKETS`` bucket widths ahead (or saturated at the tick
  horizon — the old "non-finite time" case) would bloat the bucket-index
  heap, so they wait in a conventional heap of ``(time, seq, event)``
  tuples and are merged, bucket by bucket, as the wheel advances.

Dispatch drains the *due list* — the sorted current bucket — by index.
A timed event landing at or before the due bucket is insorted into the
remaining (unconsumed) slice of the due list, so the due head is always
the earliest pending timed event.  Every timed push lands strictly after
the clock, so a timed event due at the current tick was pushed on an
earlier tick and precedes every immediate queued on this one; the
engine needs no other merge rule.  The execution order is therefore
exactly the total order a single heap would produce — only without a
Python-level ``__lt__`` call per heap sift or an O(log n) push per timed
event.

Dispatched events whose creator keeps no reference (process
continuations, resource grants — flagged ``pooled=True`` at push time)
are recycled through a free list instead of being garbage: a sweep
allocates a few thousand :class:`Event` objects instead of millions.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable

from repro.despy.timebase import TICK_HORIZON, TICKS_PER_MS

#: Timed events further ahead than this many bucket widths go to the
#: overflow heap instead of the wheel, bounding the bucket-index heap.
_OVERFLOW_BUCKETS = 4096

#: Pushes with a delay at or past this are excluded from the adaptive
#: width statistics (saturated horizons would poison the mean).
_DELAY_STAT_CAP = TICK_HORIZON


class Event:
    """A pending occurrence in simulated time.

    Events are created by :meth:`repro.despy.engine.Simulation.schedule`.
    Events flagged ``pooled`` are internal continuations whose creator
    provably dropped the reference; the engine recycles them through the
    event list's free list after dispatch.
    """

    __slots__ = ("time", "seq", "handler", "args", "pooled")

    def __init__(
        self,
        time: int,
        seq: int,
        handler: Callable[..., Any],
        args: tuple,
        pooled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.handler = handler
        self.args = args
        self.pooled = pooled

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.handler, "__qualname__", repr(self.handler))
        return f"<Event t={self.time} seq={self.seq} {name}>"


#: Bucket sort key: builds the (time, seq) tuples in C, once per event
#: per bucket sort, instead of per comparison via __lt__.
_SORT_KEY = attrgetter("time", "seq")


class EventList:
    """A deterministic future-event list: immediate FIFO + wheel + heap.

    The wheel tiers store :class:`Event` objects directly; only the
    far-future overflow heap wraps them in ``(time, seq, event)`` tuples
    so its sifts compare C scalars (``seq`` is unique, so the event
    itself is never compared).
    """

    __slots__ = (
        "_immediate",
        "_due",
        "_due_idx",
        "_due_bucket",
        "_buckets",
        "_bucket_heap",
        "_heap",
        "_seq",
        "_shift",
        "_delay_sum",
        "_delay_n",
        "_timed",
        "_pool",
        "heap_pushed",
        "fast_scheduled",
        "fast_dispatched",
        "pooled_reused",
        "ticks_overflowed",
        "wheel_recalibrations",
        "now_hint",
        "quiet",
        "merged_continuations",
        "holds_warped",
    )

    def __init__(self) -> None:
        self._immediate: deque[Event] = deque()
        #: sorted events of the bucket currently being drained, consumed
        #: by index (the dead prefix is dropped wholesale on refill)
        self._due: list = []
        self._due_idx = 0
        #: bucket index (``time >> _shift``) of the due bucket; wheel
        #: buckets and heap entries are always strictly beyond it (see
        #: :meth:`push`)
        self._due_bucket = -1
        #: bucket index -> unsorted list of events
        self._buckets: dict = {}
        #: min-heap of the indices of existing buckets
        self._bucket_heap: list = []
        #: far-future overflow entries (conventional key-tuple heap)
        self._heap: list = []
        self._seq = 0
        # Adaptive bucket width, always a power of two: bucket index =
        # ``time >> _shift``.  ``_shift < 0`` means uncalibrated: the
        # first timed push seeds the shift from its own delay, and the
        # shift is re-derived from the observed mean delay whenever the
        # wheel runs empty.
        self._shift = -1
        self._delay_sum = 0
        self._delay_n = 0
        #: timed events still queued
        self._timed = 0
        #: free list of recycled Event objects (see ``pooled``)
        self._pool: list = []
        #: events that paid a far-future overflow heap push (perf counter)
        self.heap_pushed = 0
        #: events that entered the immediate queue (perf counter)
        self.fast_scheduled = 0
        #: events dispatched straight off the immediate queue
        self.fast_dispatched = 0
        #: Event objects recycled from the free list (perf counter)
        self.pooled_reused = 0
        #: pushes whose time saturated at the tick horizon (perf counter;
        #: see repro.despy.timebase — these were float-inf sentinels)
        self.ticks_overflowed = 0
        #: adaptive-width re-derivations applied while the wheel was
        #: empty (perf counter)
        self.wheel_recalibrations = 0
        #: the engine's current clock, mirrored here so :meth:`push` can
        #: sample scheduling delays for the adaptive bucket width.
        self.now_hint = 0
        #: cached merged-continuation test: True iff the currently
        #: executing handler's process is provably the next dispatch
        #: (immediate queue empty, no timed event tying the current
        #: tick).  The engine computes it at each dispatch (see the
        #: refresh in :meth:`Simulation.run
        #: <repro.despy.engine.Simulation.run>`), an immediate push
        #: resets it, and the warp lane sets it on an empty list.  A
        #: timed push lands strictly after the clock, so it never
        #: creates a tie.  One attribute load replaces the full test on
        #: the hottest kernel sites (``Process._step``, the inline
        #: grant/release fast paths).
        self.quiet = False
        #: continuations the process layer ran synchronously because the
        #: process was provably the next dispatch anyway (perf counter).
        self.merged_continuations = 0
        #: timed holds that advanced the engine clock in place because
        #: the event list was completely empty — the sole process just
        #: kept running at its own landing tick (perf counter; see
        #: Process._step's warp lane).
        self.holds_warped = 0

    @property
    def wheel_pushed(self) -> int:
        """Timed events routed through the wheel tiers (perf counter).

        Derived: every push draws a sequence number, immediates count in
        ``fast_scheduled`` and overflow pushes in ``heap_pushed`` — the
        remainder went through the wheel.  Keeping it out of
        :meth:`push` saves a counter update on the hottest path.
        """
        return self._seq - self.fast_scheduled - self.heap_pushed

    def __len__(self) -> int:
        return self._timed + len(self._immediate)

    def __bool__(self) -> bool:
        return bool(self._timed) or bool(self._immediate)

    # ------------------------------------------------------------------
    # Push side
    # ------------------------------------------------------------------
    def push(
        self,
        time: int,
        handler: Callable[..., Any],
        args: tuple = (),
        pooled: bool = False,
    ) -> Event:
        """Insert a new timed event, due strictly after the clock.

        Routing: at or before the due bucket → insorted into the live
        slice of the due list; within the wheel horizon → appended to its
        bucket (or the singleton lane when nothing is queued); beyond →
        overflow heap.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.handler = handler
            event.args = args
            event.pooled = pooled
            self.pooled_reused += 1
        else:
            event = Event(time, seq, handler, args, pooled)
        now = self.now_hint
        shift = self._shift
        if shift < 0:
            shift = self._calibrate(time - now)
        if time < TICK_HORIZON:
            if not seq & 15:
                # Sampled width statistics: 1 push in 16 is plenty for
                # the adaptive width and keeps the per-push cost down.
                self._delay_sum += time - now
                self._delay_n += 1
            bucket = time >> shift
            due_bucket = self._due_bucket
            if bucket > due_bucket:
                if bucket - due_bucket > _OVERFLOW_BUCKETS:
                    heappush(self._heap, (time, seq, event))
                    self.heap_pushed += 1
                elif self._timed:
                    buckets = self._buckets
                    chain = buckets.get(bucket)
                    if chain is None:
                        buckets[bucket] = [event]
                        heappush(self._bucket_heap, bucket)
                    else:
                        chain.append(event)
                else:
                    # Singleton lane: nothing else is queued, so this
                    # event *is* the due list — no bucket, no
                    # bucket-index heap push, and no _advance() on the
                    # dispatch side.
                    self._due = [event]
                    self._due_idx = 0
                    self._due_bucket = bucket
            else:
                insort(self._due, event, self._due_idx)
        else:
            # Saturated at the tick horizon (float-inf sentinel or an
            # absurd delay): dispatches last, in key order, off the heap.
            heappush(self._heap, (time, seq, event))
            self.heap_pushed += 1
            self.ticks_overflowed += 1
        self._timed += 1
        return event

    def push_immediate(
        self,
        time: int,
        handler: Callable[..., Any],
        args: tuple = (),
        pooled: bool = False,
    ) -> Event:
        """Append a zero-delay event at the current clock value.

        The caller (the engine) guarantees ``time`` equals the current
        simulation clock; under that invariant FIFO order within the
        queue equals ``(time, seq)`` order, so the timed tiers are
        bypassed without changing the execution order.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.handler = handler
            event.args = args
            event.pooled = pooled
            self.pooled_reused += 1
        else:
            event = Event(time, seq, handler, args, pooled)
        self.fast_scheduled += 1
        self.quiet = False
        self._immediate.append(event)
        return event

    # ------------------------------------------------------------------
    # Wheel mechanics
    # ------------------------------------------------------------------
    def _calibrate(self, delay: int) -> int:
        """Seed the bucket shift from the first observed delay."""
        if not 0 < delay < _DELAY_STAT_CAP:
            delay = TICKS_PER_MS  # 1 ms: the old float default
        width = delay >> 2
        # Largest power of two <= width (shift 0 = 1-tick buckets).
        shift = width.bit_length() - 1 if width else 0
        self._shift = shift
        return shift

    def _recalibrate(self) -> None:
        """Re-derive the bucket shift from the observed mean delay.

        Only legal while the wheel's buckets are empty (bucket indices
        are width-relative); callers guarantee that.
        """
        n = self._delay_n
        if n >= 16:
            mean = self._delay_sum // n
            if 0 < mean < _DELAY_STAT_CAP:
                width = mean >> 2
                self._shift = width.bit_length() - 1 if width else 0
                self.wheel_recalibrations += 1
            self._delay_sum = 0
            self._delay_n = 0

    def _advance(self) -> Event:
        """Refill the exhausted due list and return its head event.

        The engine calls this only while timed events are queued past
        the due list.  It opens the next wheel bucket, absorbs any
        overflow-heap entries falling in the same bucket, and sorts the
        merged batch — the only per-timed-event ordering work the wheel
        ever does.
        """
        bucket_heap = self._bucket_heap
        heap = self._heap
        if bucket_heap:
            shift = self._shift
            bucket = bucket_heap[0]
            if heap and heap[0][0] >> shift < bucket:
                # The overflow head precedes every wheel bucket: open
                # its bucket instead.
                bucket = heap[0][0] >> shift
                batch = [heappop(heap)[2]]
            else:
                heappop(bucket_heap)
                batch = self._buckets.pop(bucket)
        else:
            # Wheel empty: a safe moment to adapt the bucket width before
            # quantizing the overflow head's bucket.  (The shift is
            # always calibrated here: push() seeds it on the first timed
            # event, heap-routed or not.)
            self._recalibrate()
            shift = self._shift
            bucket = heap[0][0] >> shift
            batch = [heappop(heap)[2]]
        # Absorb overflow entries falling in the same bucket (exact
        # integer compares — no 2**53 float edge cases).
        while heap and heap[0][0] >> shift <= bucket:
            batch.append(heappop(heap)[2])
        batch.sort(key=_SORT_KEY)
        self._due = batch
        self._due_idx = 0
        self._due_bucket = bucket
        return batch[0]
