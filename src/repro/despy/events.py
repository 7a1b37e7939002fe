"""Event and event-list primitives.

The event list is the heart of a discrete-event kernel: a priority queue
ordered by ``(time, priority, sequence)``.  The sequence number makes the
ordering total and deterministic — two events scheduled for the same time
and priority always execute in scheduling order, which is what makes the
whole simulation reproducible for a given random seed.

Time is an **integer tick count** (see :mod:`repro.despy.timebase`): the
wheel's bucket index is an exact shift (``time >> shift``), clock
compares are integer compares, and the adaptive-width recalibration is
integer arithmetic — no float quantization anywhere in the schedule.

Three storage tiers share one sequence counter:

* an **immediate queue** (a plain FIFO deque) for priority-0 events at
  the current clock value — the zero-delay continuations that dominate
  VOODB traffic (resource grants, gate openings, process wake-ups);
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
  heap, so they wait in a conventional heap of ``(time, priority, seq,
  event)`` tuples and are merged, bucket by bucket, as the wheel
  advances.

Dispatch drains the *due list* — the sorted current bucket — by index.
A timed event landing at or before the due bucket is insorted into the
remaining (unconsumed) slice of the due list, so the due head is always
the earliest pending timed event; the engine merges it against the
immediate queue head on the full ``(time, priority, seq)`` key.  The
merged execution order is therefore exactly the total order a single
heap would produce — only without a Python-level ``__lt__`` call per
heap sift or an O(log n) push per timed event.

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
from typing import Any, Callable, Optional

from repro.despy.errors import SchedulingError
from repro.despy.timebase import TICK_HORIZON, TICKS_PER_MS

#: Timed events further ahead than this many bucket widths go to the
#: overflow heap instead of the wheel, bounding the bucket-index heap.
_OVERFLOW_BUCKETS = 4096

#: Pushes with a delay at or past this are excluded from the adaptive
#: width statistics (saturated horizons would poison the mean).
_DELAY_STAT_CAP = TICK_HORIZON


class Event:
    """A pending occurrence in simulated time.

    Events are created by :meth:`repro.despy.engine.Simulation.schedule`;
    user code normally only keeps a reference in order to ``cancel()`` it.
    Events flagged ``pooled`` are internal continuations whose creator
    provably dropped the reference; the engine recycles them through the
    event list's free list after dispatch.
    """

    __slots__ = ("time", "priority", "seq", "handler", "args", "cancelled", "pooled")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        handler: Callable[..., Any],
        args: tuple,
        pooled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.handler = handler
        self.args = args
        self.cancelled = False
        self.pooled = pooled

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.handler, "__qualname__", repr(self.handler))
        return f"<Event t={self.time} prio={self.priority} {name}{state}>"


#: Bucket sort key: builds the (time, priority, seq) tuples in C, once
#: per event per bucket sort, instead of per comparison via __lt__.
_SORT_KEY = attrgetter("time", "priority", "seq")


class EventList:
    """A deterministic future-event list: immediate FIFO + wheel + heap.

    The wheel tiers store :class:`Event` objects directly; only the
    far-future overflow heap wraps them in ``(time, priority, seq,
    event)`` tuples so its sifts compare C scalars (``seq`` is unique,
    so the event itself is never compared).
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
        "preempt_dirty",
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
        #: timed events still queued (live or cancelled-but-unpruned)
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
        #: tell whether a new timed event could preempt the tick being
        #: drained (see ``preempt_dirty``).
        self.now_hint = 0
        #: set when a timed push lands at the current tick with priority
        #: <= 0; tells the engine's drain loop to re-merge.
        self.preempt_dirty = False
        #: cached merged-continuation test: True iff the currently
        #: executing handler's process is provably the next dispatch
        #: (immediate queue empty, no timed event tying the current tick
        #: at priority <= 0).  The engine computes it exactly at each
        #: dispatch (see :meth:`_compute_quiet`); the two push paths
        #: that can create a tie clear it.  It may go conservatively
        #: stale-False (a cancel can silently clear a tie) — that skips
        #: a merge, never permits a wrong one.  One attribute load
        #: replaces the full test on the hottest kernel sites
        #: (``Process._step``, the inline grant/release fast paths).
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
        priority: int,
        handler: Callable[..., Any],
        args: tuple = (),
        pooled: bool = False,
    ) -> Event:
        """Insert a new timed event and return it (so callers may cancel it).

        Routing: at or before the due bucket → insorted into the live
        slice of the due list; within the wheel horizon → appended to its
        bucket (or the singleton lane when nothing is queued); beyond →
        overflow heap.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            # Recycled events were dispatched live, so ``cancelled`` is
            # already False.
            event = pool.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.handler = handler
            event.args = args
            event.pooled = pooled
            self.pooled_reused += 1
        else:
            event = Event(time, priority, seq, handler, args, pooled)
        now = self.now_hint
        if time <= now and priority <= 0:
            self.preempt_dirty = True
            self.quiet = False
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
                    heappush(self._heap, (time, priority, seq, event))
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
                    # Singleton lane: nothing else is queued (not even a
                    # cancelled-but-unpruned event), so this event *is*
                    # the due list — no bucket, no bucket-index heap
                    # push, and no _advance() on the pop side.
                    self._due = [event]
                    self._due_idx = 0
                    self._due_bucket = bucket
            else:
                insort(self._due, event, self._due_idx)
        else:
            # Saturated at the tick horizon (float-inf sentinel or an
            # absurd delay): dispatches last, in key order, off the heap.
            heappush(self._heap, (time, priority, seq, event))
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
        """Append a priority-0 event at the current clock value.

        The caller (the engine) guarantees ``time`` equals the current
        simulation clock; under that invariant FIFO order within the
        queue equals ``(time, priority, seq)`` order, so the timed tiers
        are bypassed without changing the execution order.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.priority = 0
            event.seq = seq
            event.handler = handler
            event.args = args
            event.pooled = pooled
            self.pooled_reused += 1
        else:
            event = Event(time, 0, seq, handler, args, pooled)
        self.fast_scheduled += 1
        self.quiet = False
        self._immediate.append(event)
        return event

    def _compute_quiet(self, now: int) -> bool:
        """The merged-continuation test, evaluated exactly.

        True iff the immediate queue is empty and no pending timed event
        ties tick ``now`` at priority <= 0.  The due head (always the
        earliest pending timed event while the due list is live) makes
        the test exact; with the due list drained it falls back to
        bucket-index checks against the wheel and overflow heap — exact
        whenever the clock has not out-run the due bucket, conservative
        in the rare horizon-jump states.
        """
        if self._immediate:
            return False
        if self._timed:
            due = self._due
            idx = self._due_idx
            if idx < len(due):
                head = due[idx]
                return head.priority > 0 or head.time != now
            bucket_heap = self._bucket_heap
            heap = self._heap
            return not (
                bucket_heap and now >> self._shift >= bucket_heap[0]
            ) and not (heap and heap[0][0] == now and heap[0][1] <= 0)
        return True

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

    def _advance(self):
        """Refill the due list and return its head event, or ``None``.

        Prunes cancelled events, merges the next wheel bucket with any
        overflow-heap entries falling in the same bucket, and sorts the
        merged batch — the only per-timed-event ordering work the wheel
        ever does.
        """
        due = self._due
        idx = self._due_idx
        timed = self._timed
        while idx < len(due):
            event = due[idx]
            if not event.cancelled:
                self._due_idx = idx
                self._timed = timed
                return event
            idx += 1
            timed -= 1
        self._due_idx = idx
        self._timed = timed
        while True:
            bucket_heap = self._bucket_heap
            heap = self._heap
            if bucket_heap:
                shift = self._shift
                bucket = bucket_heap[0]
                batch = None
                if heap:
                    head_bucket = heap[0][0] >> shift
                    if head_bucket < bucket:
                        # The overflow head precedes every wheel
                        # bucket: open its bucket instead.
                        bucket = head_bucket
                        batch = [heappop(heap)[3]]
                if batch is None:
                    heappop(bucket_heap)
                    batch = self._buckets.pop(bucket)
                # Absorb overflow entries falling in the same bucket
                # (exact integer compares — no 2**53 float edge cases).
                while heap and heap[0][0] >> shift <= bucket:
                    batch.append(heappop(heap)[3])
                batch.sort(key=_SORT_KEY)
            elif heap:
                # Wheel empty: a safe moment to adapt the bucket width
                # before quantizing the overflow head's bucket.  (The
                # shift is always calibrated here: push() seeds it on
                # the first timed event, heap-routed or not.)
                self._recalibrate()
                shift = self._shift
                bucket = heap[0][0] >> shift
                batch = [heappop(heap)[3]]
                while heap and heap[0][0] >> shift <= bucket:
                    batch.append(heappop(heap)[3])
                batch.sort(key=_SORT_KEY)
            else:
                # Fully drained: adapt the width for the next burst and
                # re-anchor the due bucket at the current clock so fresh
                # pushes route through the wheel, not the insort path.
                self._due = []
                self._due_idx = 0
                self._recalibrate()
                shift = self._shift
                if shift >= 0:
                    self._due_bucket = self.now_hint >> shift
                return None
            self._due = due = batch
            self._due_bucket = bucket
            idx = 0
            timed = self._timed
            while idx < len(due):
                event = due[idx]
                if not event.cancelled:
                    self._due_idx = idx
                    self._timed = timed
                    return event
                idx += 1
                timed -= 1
            self._due_idx = idx
            self._timed = timed
            # Every event in the batch was cancelled: take the next bucket.

    # The merged-continuation predicate — "no immediate event queued and
    # no timed event ties the current tick at priority <= 0" — is
    # evaluated in two places, both of which write the cached ``quiet``
    # flag: :meth:`_compute_quiet` (the traced loop) and the refresh
    # inlined in Simulation.run (the immediate drain's ``tie_free`` and
    # the due-head/fallback test at each timed dispatch), where a call
    # frame would be measurable.  Elsewhere the flag is only read
    # (Process._step, the Resource inline grant/release helpers), cleared
    # by the pushes that can create a tie, or set by the warp lane, whose
    # empty event list passes the test trivially.  When changing the test
    # (e.g. the conservative bucket-horizon compare), update both copies.

    # ------------------------------------------------------------------
    # Generic pop side (tests and the traced loop; the engine inlines)
    # ------------------------------------------------------------------
    def _timed_head(self) -> Optional[Event]:
        """Next live timed event (pruning cancelled), or ``None``."""
        due = self._due
        idx = self._due_idx
        if idx < len(due):
            event = due[idx]
            if not event.cancelled:
                return event
            return self._advance()
        if self._bucket_heap or self._heap:
            return self._advance()
        return None

    def _head(self) -> Optional[Event]:
        """The next live event (pruning cancelled heads), or ``None``.

        The event stays queued; pair with :meth:`pop` to consume it.
        """
        immediate = self._immediate
        while immediate and immediate[0].cancelled:
            immediate.popleft()
        timed = self._timed_head()
        if immediate:
            first = immediate[0]
            if timed is not None and (
                (timed.time, timed.priority, timed.seq)
                < (first.time, first.priority, first.seq)
            ):
                return timed
            return first
        return timed

    def pop(self) -> Event:
        """Remove and return the next live event in key order.

        Cancelled events are lazily discarded here, which keeps
        :meth:`Event.cancel` O(1).  When no live event remains —
        the list is empty or every queued event has been cancelled —
        a :class:`~repro.despy.errors.SchedulingError` is raised; that
        makes exhaustion explicit instead of leaking a bare
        ``IndexError``.
        """
        event = self._head()
        if event is None:
            raise SchedulingError("event list exhausted: no live events remain")
        immediate = self._immediate
        if immediate and event is immediate[0]:
            immediate.popleft()
            self.fast_dispatched += 1
        else:
            self._due_idx += 1
            self._timed -= 1
        return event

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the list is empty."""
        event = self._head()
        return None if event is None else event.time

    def clear(self) -> None:
        self._immediate.clear()
        self._due = []
        self._due_idx = 0
        self._buckets.clear()
        self._bucket_heap.clear()
        self._heap.clear()
        self._timed = 0
        self.quiet = False
