"""Passive resources: capacity-limited FIFO queues.

Paper Table 1 lists VOODB's passive resources (processors and main
memory, disk controller, the database scheduler); Table 2 maps each to a
``RESOURCE STATION`` in QNAP2 and an ``instance of class Resource`` in
DESP-C++.  This module is that class.

Process generators take a unit with ``yield Request(res)`` and give it
back with ``yield Release(res)``.  Hot model generators skip those
yields' round trip through the command pump with
:meth:`Resource.try_acquire_inline` and :meth:`Resource.release_inline`.
The ``Release`` command runs :meth:`Resource.release_inline` itself, and
the ``Request`` command grants an uncontended unit as
:meth:`Resource.try_acquire_inline` does, so there is one grant rule and
one release rule.

A resource keeps no statistics: a grant or a release only moves a unit
and queues or wakes a process.  The model reads utilization and network
time from the subsystems' own ``busy_ticks`` counters
(:class:`~repro.core.io_subsystem.IOSubsystem`,
:class:`~repro.core.network.Network`), and the kernel validation tests
measure utilization and queue length from their jobs' service and wait
ticks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.despy.errors import ResourceError
from repro.despy.process import _STEP_ARGS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation
    from repro.despy.process import Process


class Resource:
    """A capacity-limited passive resource with a FIFO queue.

    A process waits only while every unit is taken, and a release with
    a waiter hands its unit straight to the head of the queue, so the
    queue is empty whenever a unit is free.
    """

    def __init__(self, sim: "Simulation", name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        #: waiting processes, first come first served.  A list, not a
        #: deque: a deque measured 0.3 MB more peak RSS on perfbench
        #: paper-o2.
        self._queue: list["Process"] = []

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
    def release_inline(self) -> bool:
        """Release a unit; True iff the caller may keep running inline.

        The one release rule, which ``yield Release(self)`` runs too:
        the release (with its waiter wake-up) happens immediately; the
        return value is the merged-continuation test.  On False the
        caller must ``yield PARK`` (a shared ``Hold(0)``) — the process
        layer then parks it on the immediate queue exactly as the
        Release command does.  Releasing an idle resource raises
        :class:`~repro.despy.errors.ResourceError`.

        With a waiter queued, the head waiter inherits the unit
        (``in_use`` is unchanged) and is woken on the immediate queue.
        The merge test is the event list's cached ``quiet`` flag — the
        same one Process._step reads, refreshed by ``Simulation.run`` at
        every dispatch.
        """
        if self._in_use <= 0:
            raise ResourceError(f"release of idle resource {self.name!r}")
        sim = self.sim
        events = sim._events
        if self._queue:
            waiter = self._queue.pop(0)
            events.push_immediate(sim.now, waiter._step, _STEP_ARGS, True)
            # The wake-up above cleared the quiet flag, so the merge
            # test is False by construction.
            return False
        self._in_use -= 1
        if events.quiet:
            events.merged_continuations += 1
            return True
        return False

    def try_acquire_inline(self) -> bool:
        """Grant a unit inline iff ``yield Request(self)`` would merge.

        The merged-continuation test of an uncontended grant, as
        ``yield Request(self)`` runs it (:meth:`_request`) — offered to
        hot model generators so they can skip the Request yield's round
        trip through the command pump entirely.  Returns False (taking
        nothing) whenever the grant is contended or this caller is not
        provably the next dispatch; the caller then falls back to
        ``yield Request(self)``, which queues the request or parks the
        granted process on the immediate queue.
        """
        events = self.sim._events
        if events.quiet and self._in_use < self.capacity:
            self._in_use += 1
            events.merged_continuations += 1
            return True
        return False

    def _request(self, process: "Process") -> bool:
        """Run ``yield Request(self)``; True iff the caller keeps stepping.

        An uncontended grant takes a unit at once and merges in place
        when the event list is ``quiet``, as :meth:`try_acquire_inline`
        does; otherwise the process goes to the immediate-dispatch
        queue.  A contended request joins the FIFO queue.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            sim = self.sim
            events = sim._events
            if events.quiet:
                events.merged_continuations += 1
                return True
            events.push_immediate(sim.now, process._step, _STEP_ARGS, True)
            return False
        self._queue.append(process)
        return False

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
