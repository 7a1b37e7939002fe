"""Generator-based processes and their command protocol.

DESP-C++ models describe each *client* (paper Table 2: a transaction or
sub-transaction flowing through the system) as a sequence of service
demands on resources.  In despy a client is a generator that yields
command objects:

``yield Hold(duration)``
    advance simulated time for this process;
``yield Request(resource)``
    queue (FIFO) for one capacity unit of a resource, resuming once
    granted;
``yield Release(resource)``
    give the unit back;
``yield WaitFor(gate)``
    block until :meth:`repro.despy.resource.Gate.open` is called.

A process may also ``return`` at any point; it then simply ends.

Hot model generators may skip the ``Request``/``Release`` yields with
:meth:`~repro.despy.resource.Resource.try_acquire_inline` and
:meth:`~repro.despy.resource.Resource.release_inline`; the two commands
book the same grant and run the same release, so both spellings grant
and release alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.despy.errors import SchedulingError
from repro.despy.timebase import coerce_ticks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.despy.engine import Simulation
    from repro.despy.resource import Gate, Resource


class Hold:
    """Command: advance this process by ``duration`` integer ticks.

    Durations are ticks (see :mod:`repro.despy.timebase`); fractional
    durations raise at construction — convert milliseconds at the call
    site with :func:`~repro.despy.timebase.ms_to_ticks`.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration.__class__ is not int:
            duration = coerce_ticks(duration)
        if duration < 0:
            raise SchedulingError(f"hold duration must be >= 0, got {duration}")
        self.duration = duration


class Request:
    """Command: acquire one capacity unit of ``resource``.

    Contended requests are served first come, first served.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource


class Release:
    """Command: release one previously acquired unit of ``resource``."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource


class WaitFor:
    """Command: block until the given :class:`Gate` opens."""

    __slots__ = ("gate",)

    def __init__(self, gate: "Gate") -> None:
        self.gate = gate


#: Shared argument tuple for process continuations — every ``_step``
#: resume sends ``None``, so one tuple serves all of them.
_STEP_ARGS = (None,)

#: Shared zero-delay Hold used as a *park* command: a generator that
#: called :meth:`repro.despy.resource.Resource.release_inline` and was
#: told it may not keep running yields this to defer itself through the
#: immediate queue — the exact non-merged branch of ``yield Release``.
PARK = Hold(0)


class Process:
    """A running generator inside a :class:`Simulation`.

    Do not instantiate directly — use :meth:`Simulation.process`.
    """

    __slots__ = ("sim", "name", "_generator", "_send")

    def __init__(self, sim: "Simulation", generator: Generator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._generator = generator
        # Bound once: _step is the hottest call site in the kernel.
        self._send = generator.send

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def _step(self, send_value: Any) -> None:
        """Advance the generator one command and interpret the result.

        This is the kernel's innermost call: it runs once per event of
        every process, so the command dispatch uses exact-type checks
        (a subclassed command is unsupported) and routes continuations
        straight onto the event list's tiers, skipping the generic
        ``schedule`` wrapper where validation adds nothing.

        Merged continuations
        --------------------
        A zero-delay continuation (an uncontended ``Request`` grant, a
        ``Release``, a ``Hold(0)``) normally parks this process on the
        immediate queue and returns to the engine, which dispatches it
        as the next event.  When the immediate queue is empty and no
        timed event ties the current tick, this process *is* provably
        that next dispatch — so the loop below just keeps sending into
        the generator instead.  The observable execution order (and
        therefore every statistic and random draw) is bit-identical;
        only the queue round-trip disappears.

        The test itself is the event list's cached ``quiet`` flag — one
        attribute load.  The engine computes it exactly at every
        dispatch (reading the wheel's due head, with conservative
        bucket-index fallbacks; see the refresh in ``Simulation.run``)
        and an immediate push resets it, so the flag always equals the
        full test, erring only on the conservative side (skip the merge,
        park on the immediate queue).
        """
        send = self._send
        sim = self.sim
        events = sim._events
        while True:
            try:
                command = send(send_value)
            except StopIteration:
                return
            cls = command.__class__
            if cls is Hold:
                duration = command.duration
                if duration == 0:
                    if events.quiet:
                        events.merged_continuations += 1
                        send_value = None
                        continue
                    events.push_immediate(sim.now, self._step, _STEP_ARGS, True)
                else:
                    time = sim.now + duration
                    # Warp lane: when the event list is *completely*
                    # empty, this process is the entire simulation — the
                    # push would come straight back to it as the next
                    # dispatch at ``time``.  Advance the clock in place
                    # instead (within the run's armed horizon) and keep
                    # sending.  Clock and statistics are bit-identical;
                    # only the push/dispatch round trip disappears.
                    if (
                        not events._timed
                        and not events._immediate
                        and time <= sim._warp_until
                    ):
                        sim.now = time
                        events.now_hint = time
                        events.quiet = True
                        events.holds_warped += 1
                        send_value = None
                        continue
                    # Hold validated the duration (int, >= 0) at
                    # construction — push without re-checking.
                    events.push(time, self._step, _STEP_ARGS, True)
                return
            if cls is Request:
                if command.resource._request(self):
                    send_value = None
                    continue
                return
            if cls is Release:
                # A release that wakes a waiter parks this process
                # behind the woken one (release_inline returns False).
                if command.resource.release_inline():
                    send_value = None
                    continue
                events.push_immediate(sim.now, self._step, _STEP_ARGS, True)
                return
            if cls is WaitFor:
                command.gate._wait(self)
                return
            raise SchedulingError(
                f"process {self.name!r} yielded unsupported command "
                f"{command!r}; expected Hold/Request/Release/WaitFor"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r}>"
