"""The Buffering Manager (knowledge model, Figure 4).

"[The Object Manager] requests the page from the Buffering Manager that
checks if the page is present in the memory buffer.  If not, it requests
the page from the I/O Subsystem" — this module is that check.

The buffer holds up to BUFFSIZE page frames; residency is decided by the
pluggable replacement policy (Table 3 PGREP, :mod:`repro.core.replacement`)
and optionally widened by a prefetcher (Table 3 PREFETCH,
:mod:`repro.core.prefetch`).

The protocol with the Transaction Manager is miss-with-reservation:
``access(page)`` immediately claims a frame on a miss (evicting if
needed) and reports what disk work the caller owes — the page read plus
a possible dirty-victim write.  Claiming the frame before the simulated
I/O completes keeps two concurrent transactions from double-loading the
same page, which is the role page latches play in a real server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.despy.randomstream import RandomStream
from repro.core.parameters import VOODBConfig
from repro.core.replacement import ReplacementPolicy, make_replacement_policy


@dataclass
class AccessOutcome:
    """What one buffer access requires from the caller.

    ``hit`` — page was resident, no disk work.
    ``read_page`` — page to read from disk (None on hit).
    ``writeback_pages`` — dirty victims the caller must write first.

    Outcomes are read-only messages: the hit case and the empty
    writeback list are shared singletons on the hot path, so callers
    must never mutate an outcome they received.
    """

    hit: bool
    read_page: Optional[int] = None
    writeback_pages: Sequence[int] = ()

    # Class-level (non-field) defaults for the virtual-memory
    # extension's extra attributes, so the shared server path reads them
    # as plain attributes on any outcome without getattr fallbacks.
    swap_read = False
    swap_out_pages: Sequence[int] = ()


#: Shared "page was resident" outcome — every hit is the same message,
#: so the hot path hands out one frozen instance instead of allocating
#: ~2 objects (outcome + list) per buffer hit.
_HIT = AccessOutcome(hit=True)

#: Shared empty writebacks for misses that evicted nothing dirty — a
#: tuple, so a stray mutation fails loudly instead of corrupting every
#: outcome sharing the singleton.
_NO_WRITEBACKS: Sequence[int] = ()


class BufferManager:
    """A BUFFSIZE-frame database buffer with pluggable replacement."""

    __slots__ = (
        "config",
        "capacity",
        "policy",
        "_on_hit",
        "_on_admit",
        "_choose_victim",
        "_frames",
        "hits",
        "misses",
        "dirty_writebacks",
    )

    def __init__(
        self,
        config: VOODBConfig,
        rng: RandomStream,
        capacity: Optional[int] = None,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.config = config
        self.capacity = capacity if capacity is not None else config.buffsize
        if self.capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {self.capacity}")
        self.policy = policy or make_replacement_policy(config.pgrep, rng)
        # The policy never changes after construction; its three hot
        # hooks are bound once so each access skips two attribute hops.
        self._on_hit = self.policy.on_hit
        self._on_admit = self.policy.on_admit
        self._choose_victim = self.policy.choose_victim
        #: frame table: page -> dirty flag
        self._frames: Dict[int, bool] = {}
        # Counters
        self.hits = 0
        self.misses = 0
        self.dirty_writebacks = 0

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def access(self, page: int, write: bool = False) -> AccessOutcome:
        """Reference one page; reserve its frame immediately on a miss."""
        frames = self._frames
        if page in frames:
            self.hits += 1
            if write:
                frames[page] = True
            self._on_hit(page)
            return _HIT
        self.misses += 1
        writebacks = self._make_room(1)
        frames[page] = write
        self._on_admit(page)
        return AccessOutcome(hit=False, read_page=page, writeback_pages=writebacks)

    def admit_prefetched(self, page: int) -> Optional[AccessOutcome]:
        """Bring a page in without counting a hit/miss (prefetch path).

        Returns the outcome (read + possible writebacks), or None if the
        page is already resident.
        """
        if page in self._frames:
            return None
        writebacks = self._make_room(1)
        self._frames[page] = False
        # The bound hot hook, exactly as access() uses: a caller that
        # swaps _on_admit (instrumentation, a policy wrapper) must see
        # the prefetch path too, not only demand admissions.
        self._on_admit(page)
        return AccessOutcome(hit=False, read_page=page, writeback_pages=writebacks)

    def _make_room(self, needed: int) -> Sequence[int]:
        frames = self._frames
        if len(frames) + needed <= self.capacity:
            return _NO_WRITEBACKS
        writebacks: Optional[List[int]] = None
        while len(frames) + needed > self.capacity:
            victim = self._choose_victim()
            dirty = frames.pop(victim)
            if dirty:
                self.dirty_writebacks += 1
                if writebacks is None:
                    writebacks = []
                writebacks.append(victim)
        return _NO_WRITEBACKS if writebacks is None else writebacks

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def contains(self, page: int) -> bool:
        return page in self._frames

    def is_dirty(self, page: int) -> bool:
        return self._frames.get(page, False)

    def invalidate(self, page: int) -> bool:
        """Drop a page without write-back (clustering moved its objects)."""
        if page in self._frames:
            del self._frames[page]
            self.policy.forget(page)
            return True
        return False

    def invalidate_all(self) -> int:
        """Empty the buffer (post-reorganization), returning frames dropped."""
        count = len(self._frames)
        for page in list(self._frames):
            self.invalidate(page)
        return count

    def flush(self) -> List[int]:
        """Clean every dirty frame, returning the pages to write."""
        dirty = [page for page, d in self._frames.items() if d]
        for page in dirty:
            self._frames[page] = False
        return dirty

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferManager {self.resident_pages}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
