"""Passive resources: capacity-limited queues with usage statistics.

Paper Table 1 lists VOODB's passive resources (processors and main
memory, disk controller, the database scheduler); Table 2 maps each to a
``RESOURCE STATION`` in QNAP2 and an ``instance of class Resource`` in
DESP-C++.  This module is that class.

Process generators take a unit with ``yield Request(res)`` and give it
back with ``yield Release(res)``.  Hot model generators skip those
yields' round trip through the command pump with
:meth:`Resource.try_acquire_inline` and :meth:`Resource.release_inline`.
The ``Release`` command runs :meth:`Resource.release_inline` itself, and
the ``Request`` command books an uncontended grant as
:meth:`Resource.try_acquire_inline` does, so there is one grant rule and
one release rule.  The two rules update the time-weighted statistics
that report resource utilization and queue lengths at the end of a
replication.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.despy.errors import ResourceError
from repro.despy.monitor import OnlineStats, TimeWeightedStats
from repro.despy.process import _STEP_ARGS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation
    from repro.despy.process import Process


class Resource:
    """A capacity-limited passive resource with a FIFO queue."""

    def __init__(self, sim: "Simulation", name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        #: waiting ``(process, enqueue tick)`` pairs, first come first
        #: served.  A list, not a deque: a deque measured 0.3 MB more
        #: peak RSS on perfbench paper-o2.
        self._queue: list[tuple["Process", int]] = []
        # Statistics
        self.busy_units = TimeWeightedStats(sim)
        self.queue_length = TimeWeightedStats(sim)
        self.wait_times = OnlineStats()
        self.total_requests = 0
        self.total_served = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        """Capacity units currently free."""
        return self.capacity - self._in_use

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Grant and release (the Request/Release commands run these too)
    # ------------------------------------------------------------------
    # The grant/release accounting below inlines the two collectors'
    # ``record`` bodies (the time-weighted busy integral and Welford's
    # zero-wait update).  Every simulated I/O passes through these
    # methods, and the method-call overhead of three ``record`` calls
    # per grant cycle is measurable; the statement sequence — including
    # each float operation — is exactly what the ``record`` calls
    # perform, so the statistics stay bit-identical.

    def release_inline(self) -> bool:
        """Release a unit; True iff the caller may keep running inline.

        The one release rule, which ``yield Release(self)`` runs too:
        the release (with its statistics and waiter wake-up) happens
        immediately; the return value is the merged-continuation test.
        On False the caller must ``yield PARK`` (a shared ``Hold(0)``)
        — the process layer then parks it on the immediate queue
        exactly as the Release command does.  Releasing an idle
        resource raises :class:`~repro.despy.errors.ResourceError`.

        The release bookkeeping is spelled out inline (every simulated
        I/O and network transfer ends here); the uncontended no-waiter
        exit never leaves this frame.  The merge test is the event
        list's cached ``quiet`` flag — the same one Process._step reads,
        refreshed by ``Simulation.run`` at every dispatch.
        """
        in_use = self._in_use
        if in_use <= 0:
            raise ResourceError(f"release of idle resource {self.name!r}")
        in_use -= 1
        self._in_use = in_use
        sim = self.sim
        now = sim.now
        busy = self.busy_units
        if now != busy._last_time:
            busy._area += busy._last_value * (now - busy._last_time)
            busy._last_time = now
        busy._last_value = in_use
        if self._queue:
            waiter, enqueue_time = self._queue.pop(0)
            self.queue_length.record(len(self._queue))
            self._take()
            self.wait_times.record(now - enqueue_time)
            events = sim._events
            events.push_immediate(now, waiter._step, _STEP_ARGS, True)
            # The wake-up above cleared the quiet flag, so the merge
            # test below is False by construction.
            return False
        events = sim._events
        if events.quiet:
            events.merged_continuations += 1
            return True
        return False

    def try_acquire_inline(self) -> bool:
        """Grant a unit inline iff ``yield Request(self)`` would merge.

        The merged-continuation test and accounting of an uncontended
        grant, as ``yield Request(self)`` books it (:meth:`_request`) —
        offered to hot model generators so they can skip the Request
        yield's round trip through the command pump entirely.  Returns
        False (booking nothing) whenever the grant is contended or this
        caller is not provably the next dispatch; the caller then falls
        back to ``yield Request(self)``, which queues the request or
        parks the granted process on the immediate queue.

        The merge test and the grant accounting (:meth:`_book_grant`)
        are spelled out inline for the same reason as
        :meth:`release_inline`.
        """
        sim = self.sim
        events = sim._events
        if events.quiet and self._in_use < self.capacity and not self._queue:
            now = sim.now
            self.total_requests += 1
            in_use = self._in_use + 1
            self._in_use = in_use
            self.total_served += 1
            busy = self.busy_units
            if now != busy._last_time:
                busy._area += busy._last_value * (now - busy._last_time)
                busy._last_time = now
            busy._last_value = in_use
            waits = self.wait_times
            n = waits.n + 1
            waits.n = n
            waits.total += 0.0
            delta = 0.0 - waits.mean
            waits.mean += delta / n
            waits._m2 += delta * (0.0 - waits.mean)
            if waits.minimum > 0.0:
                waits.minimum = 0.0
            if waits.maximum < 0.0:
                waits.maximum = 0.0
            events.merged_continuations += 1
            return True
        return False

    def _book_grant(self) -> None:
        """Uncontended-grant accounting: take a unit, record zero wait."""
        in_use = self._in_use + 1
        self._in_use = in_use
        self.total_served += 1
        busy = self.busy_units
        now = self.sim.now
        if now != busy._last_time:
            busy._area += busy._last_value * (now - busy._last_time)
            busy._last_time = now
        busy._last_value = in_use
        waits = self.wait_times
        n = waits.n + 1
        waits.n = n
        waits.total += 0.0
        delta = 0.0 - waits.mean
        waits.mean += delta / n
        waits._m2 += delta * (0.0 - waits.mean)
        if waits.minimum > 0.0:
            waits.minimum = 0.0
        if waits.maximum < 0.0:
            waits.maximum = 0.0

    def _request(self, process: "Process") -> bool:
        """Run ``yield Request(self)``; True iff the caller keeps stepping.

        An uncontended grant is booked at once and merges in place when
        the event list is ``quiet``, as :meth:`try_acquire_inline` does;
        otherwise the process goes to the immediate-dispatch queue.  A
        contended request joins the FIFO queue.
        """
        self.total_requests += 1
        if self._in_use < self.capacity and not self._queue:
            self._book_grant()
            sim = self.sim
            events = sim._events
            if events.quiet:
                events.merged_continuations += 1
                return True
            events.push_immediate(sim.now, process._step, _STEP_ARGS, True)
            return False
        self._queue.append((process, self.sim.now))
        self.queue_length.record(len(self._queue))
        return False

    def _take(self) -> None:
        self._in_use += 1
        self.total_served += 1
        self.busy_units.record(self._in_use)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use so far."""
        return self.busy_units.time_average() / self.capacity

    def mean_queue_length(self) -> float:
        return self.queue_length.time_average()

    def mean_wait(self) -> float:
        return self.wait_times.mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
            f"queued={len(self._queue)}>"
        )


class Gate:
    """A broadcast synchronization point (closed until opened).

    Processes yielding :class:`~repro.despy.process.WaitFor` on a closed
    gate suspend; :meth:`open` releases them all at the current time.  A
    gate can be re-closed and reused — VOODB uses one to model the
    external clustering demand of Figure 4.
    """

    def __init__(self, sim: "Simulation", name: str = "gate") -> None:
        self.sim = sim
        self.name = name
        self._open = False
        self._waiters: list["Process"] = []
        self.times_opened = 0

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def _wait(self, process: "Process") -> None:
        if self._open:
            sim = self.sim
            sim._events.push_immediate(sim.now, process._step, _STEP_ARGS, True)
        else:
            self._waiters.append(process)

    def open(self) -> None:
        """Open the gate, releasing every waiting process.

        Wake-up events are pooled: waiters never see them, so the engine
        may recycle each one after its dispatch.
        """
        self._open = True
        self.times_opened += 1
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        events = sim._events
        now = sim.now
        for process in waiters:
            events.push_immediate(now, process._step, _STEP_ARGS, True)

    def close(self) -> None:
        self._open = False
