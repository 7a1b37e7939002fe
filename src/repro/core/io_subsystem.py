"""The I/O Subsystem: physical disk accesses (Figure 5).

The knowledge model's "Access Disk" functioning rule (paper Figure 5)
decomposes an I/O request into *search time* + *latency time* + *transfer
time*, with one optimization: **if the requested page is contiguous to
the previously loaded page, search and latency are skipped** and only the
transfer is paid.  That shortcut is why initial placement and clustering
matter to response time and not only to I/O counts.

The disk itself is a despy :class:`~repro.despy.resource.Resource` of
capacity 1 — the "server disk controller and secondary storage" passive
resource of Table 1 — so concurrent transactions serialize on it.  This
module is the only code that takes it: a buffer miss hands its
:class:`~repro.core.buffering.AccessOutcome` to :meth:`IOSubsystem.serve_miss`,
and every system class pays the same disk for the same outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.despy.process import PARK, Hold, Request
from repro.despy.resource import Resource
from repro.core.failures import NoFailures
from repro.core.parameters import VOODBConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class IOSubsystem:
    """Disk model with per-page timing and the Figure 5 shortcut."""

    __slots__ = (
        "sim",
        "config",
        "disk",
        "failures",
        "_last_page",
        "_sequential_ok",
        "_sequential_time",
        "_random_time",
        "_request_disk",
        "_hold_sequential",
        "_hold_random",
        "reads",
        "writes",
        "swap_reads",
        "swap_writes",
        "sequential_accesses",
        "busy_ticks",
    )

    def __init__(self, sim: "Simulation", config: VOODBConfig) -> None:
        self.sim = sim
        self.config = config
        self.disk = Resource(sim, "disk", capacity=1)
        #: hazard source consulted per operation (§5 failures module);
        #: the model swaps in a live FailureInjector when configured.
        self.failures = NoFailures()
        self._last_page: int = -2  # nothing is contiguous to the start
        # The config is frozen, so its derived timing properties are
        # constants for this subsystem's lifetime; resolving them once
        # keeps the per-page path free of property recomputation.  The
        # Request command is an immutable message naming the disk, so
        # every operation can yield the same instance.
        self._sequential_ok = config.sequential_optimization
        self._sequential_time = config.sequential_io_ticks
        self._random_time = config.random_io_ticks
        self._request_disk = Request(self.disk)
        # Without failures every page op holds for one of exactly two
        # durations, so two shared Hold commands cover almost all I/O.
        self._hold_sequential = Hold(self._sequential_time)
        self._hold_random = Hold(self._random_time)
        # Counters
        self.reads = 0
        self.writes = 0
        self.swap_reads = 0
        self.swap_writes = 0
        self.sequential_accesses = 0
        self.busy_ticks = 0

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _service(self, page: int) -> "tuple[int, Hold]":
        """Contiguity-shortcut timing core: (service ticks, shared Hold).

        The single source of truth for the Figure 5 rule: every database
        page the disk reads or writes — one at a time or in a bulk run —
        is priced here.  Mutates the head position, so call at most once
        per physical access.
        """
        if self._sequential_ok and page == self._last_page + 1:
            self.sequential_accesses += 1
            pair = (self._sequential_time, self._hold_sequential)
        else:
            pair = (self._random_time, self._hold_random)
        self._last_page = page
        return pair

    def access_time(self, page: int) -> int:
        """Service ticks for one page, applying the contiguity shortcut."""
        return self._service(page)[0]

    # ------------------------------------------------------------------
    # Process-style operations (yield from these inside processes)
    # ------------------------------------------------------------------
    def _occupy(self, page: Optional[int], write: bool, scale: float = 0.0):
        """One operation: take the disk, hold it, give it back.

        The hold is priced once the disk is granted, against the head
        position the previous holder left; the failure hazard adds its
        per-operation penalty, and the whole duration is busy time.
        ``page`` ``None`` is a swap transfer: swap lives in its own disk
        region, so it pays the full random-access cost and breaks
        database-region contiguity (the arm moved) — §4.3.2's "costly
        swap".  ``scale`` > 0 stretches the hold by that share of its
        duration (a gray node's degraded disk); the disk really is
        occupied that long, so the stretch is busy time too.  The
        request/release pair uses the inline merge fast paths, so an
        uncontended operation costs a single Hold event (see
        Resource.try_acquire_inline).
        """
        disk = self.disk
        if not disk.try_acquire_inline():
            yield self._request_disk
        if page is None:
            self._last_page = -2
            time = self._random_time
            hold = self._hold_random
            if write:
                self.swap_writes += 1
            else:
                self.swap_reads += 1
        else:
            time, hold = self._service(page)
            if write:
                self.writes += 1
            else:
                self.reads += 1
        penalty = self.failures.io_penalty()
        if penalty:
            time += penalty
            hold = Hold(time)
        self.busy_ticks += time
        yield hold
        if scale:
            extra = int(time * scale)
            if extra:
                self.busy_ticks += extra
                yield Hold(extra)
        if not disk.release_inline():
            yield PARK

    def serve_miss(self, outcome, scale: float = 0.0):
        """All the disk work one buffer miss owes, one operation at a time.

        In order: the dirty victims' write-backs, the swap-outs, the
        swap-in, then the read of the missing page itself.  ``scale``
        stretches every operation as in :meth:`_occupy`.
        """
        occupy = self._occupy
        for victim in outcome.writeback_pages:
            yield from occupy(victim, True, scale)
        for __ in outcome.swap_out_pages:
            yield from occupy(None, True, scale)
        if outcome.swap_read:
            yield from occupy(None, False, scale)
        if outcome.read_page is not None:
            yield from occupy(outcome.read_page, False, scale)

    def write_back(self, victims: Iterable[int]):
        """Write dirty evicted pages back, one operation each."""
        for victim in victims:
            yield from self._occupy(victim, True)

    def read_pages(self, pages: Iterable[int]):
        """Bulk read; sorts the batch so contiguous runs pay transfer only.

        Used by the Clustering Manager's reorganization, which reads whole
        regions of the base (paper §4.4 "clustering overhead").
        """
        return self._bulk(pages, False)

    def write_pages(self, pages: Iterable[int]):
        """Bulk write, contiguity-aware like :meth:`read_pages`."""
        return self._bulk(pages, True)

    def _bulk(self, pages: Iterable[int], write: bool):
        """One disk hold for a whole sorted batch (one hazard penalty)."""
        batch: List[int] = sorted(set(pages))
        disk = self.disk
        if not disk.try_acquire_inline():
            yield self._request_disk
        total = self.failures.io_penalty() if batch else 0
        for page in batch:
            total += self.access_time(page)
        if write:
            self.writes += len(batch)
        else:
            self.reads += len(batch)
        self.busy_ticks += total
        yield Hold(total)
        if not disk.release_inline():
            yield PARK

    # ------------------------------------------------------------------
    @property
    def total_ios(self) -> int:
        return self.reads + self.writes + self.swap_reads + self.swap_writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IOSubsystem reads={self.reads} writes={self.writes}>"
