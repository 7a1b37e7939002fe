"""The OS virtual-memory model behind Texas (paper §4.3.2).

Texas is a *persistent store*: it maps the database into the process
address space and relies on the operating system's paging.  When a page
is faulted in, Texas swizzles the pointers it contains — which **reserves
memory for the referenced pages before they are actually loaded**.  The
paper attributes Figure 11's exponential degradation to exactly this:

    "This degradation is due to Texas' object loading policy, which
    provokes the reservation in memory of numerous pages even before
    they are actually loaded.  This process is clearly exponential and
    generates a costly swap..."

This module models that mechanism:

* every frame is either **resident** (holds loaded, swizzled data) or
  **reserved** (address space claimed by swizzling, no data yet);
* accessing an unseen page costs a **database read** and reserves frames
  for the pages its objects reference (the cascade);
* swizzled pages are dirty anonymous memory, so evicting a resident page
  costs a **swap write**, and touching it again later costs a **swap
  read** — this is the thrash that dwarfs regular I/O once available
  memory drops below the footprint;
* reserved frames are demand-allocated anonymous memory too (Linux
  2.0-era): evicting one also swaps it out, and touching it later costs
  a swap-in *plus* the database read it never performed — the paper's
  "costly swap [...] as important a hindrance as the main memory is
  small".

When memory exceeds the database-plus-reservations footprint none of
this fires and the model behaves like a plain buffer — which is why
Texas is *faster* than O2 at equal memory in Figures 9/10 but collapses
harder in Figure 11.

The two frame states are two tables, both sets mutated in place and
never rebound: ``resident`` (loaded pages) and ``reserved`` (frames a
swizzle claimed).  Together they fill at most ``capacity`` frames, and
the replacement policy tracks both alike.  ``resident`` and ``touch``
(the policy's hit hook) are the memory-model contract of
:mod:`repro.core.buffering`: a reserved frame is no hit, so a walk that
resolves reads of ``resident`` pages in place sees exactly the pages
``access`` would count as hits.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from repro.despy.randomstream import RandomStream
from repro.core.buffering import AccessOutcome
from repro.core.parameters import VOODBConfig
from repro.core.replacement import make_replacement_policy

#: Shared "no pages swapped" result — returned whenever an operation
#: freed or reserved nothing, which under ample memory is every
#: operation.  A tuple, so accidental mutation fails loudly.
_NO_SWAPS: Sequence[int] = ()


class VMAccessOutcome(AccessOutcome):
    """Adds swap traffic to the buffer outcome contract."""

    def __init__(
        self,
        hit: bool,
        read_page=None,
        writeback_pages=None,
        swap_read: bool = False,
        swap_out_pages: Sequence[int] | None = None,
    ) -> None:
        # Direct assignment instead of chaining the dataclass __init__:
        # outcomes are allocated once per page fault, which under swap
        # thrash (Figure 11) is the model's hottest allocation site.
        self.hit = hit
        self.read_page = read_page
        self.writeback_pages = writeback_pages if writeback_pages is not None else ()
        self.swap_read = swap_read
        self.swap_out_pages = swap_out_pages if swap_out_pages is not None else ()


#: Shared "page was resident and swizzled" outcome, mirroring the plain
#: buffer's hit singleton — hits dominate once memory fits the footprint.
_VM_HIT = VMAccessOutcome(hit=True)


class VirtualMemoryManager:
    """Texas-style memory: frames + reservations + swap.

    Parameters
    ----------
    pages_referenced_by_page:
        Callback mapping a page to the pages referenced by the objects it
        holds — the swizzling cascade.  Texas swizzles at **page-fault
        time**: the moment a page comes in, every pointer on it is
        translated, reserving address space for every referenced page.
        Supplied by the Object Manager so this module stays
        placement-agnostic.
    """

    __slots__ = (
        "config",
        "capacity",
        "policy",
        "touch",
        "_on_admit",
        "_choose_victim",
        "_pages_referenced_by_page",
        "resident",
        "reserved",
        "_swapped_resident",
        "_swapped_reserved",
        "hits",
        "misses",
        "swap_ins",
        "swap_outs",
        "reservations",
    )

    def __init__(
        self,
        config: VOODBConfig,
        rng: RandomStream,
        pages_referenced_by_page: Callable[[int], Iterable[int]],
        capacity: int | None = None,
    ) -> None:
        self.config = config
        self.capacity = capacity if capacity is not None else config.buffsize
        if self.capacity < 1:
            raise ValueError(f"memory capacity must be >= 1, got {self.capacity}")
        self.policy = make_replacement_policy(config.pgrep, rng)
        # Bound once, like BufferManager: the hooks run per page fault.
        #: the policy's hit hook (the memory-model contract)
        self.touch = self.policy.on_hit
        self._on_admit = self.policy.on_admit
        self._choose_victim = self.policy.choose_victim
        self._pages_referenced_by_page = pages_referenced_by_page
        #: frames holding loaded, swizzled data: the pages an access hits
        self.resident: set[int] = set()
        #: frames a swizzle reserved that hold no data yet
        self.reserved: set[int] = set()
        #: evicted resident pages whose data image lives in swap
        self._swapped_resident: set[int] = set()
        #: evicted reserved pages (swapped out before ever holding data)
        self._swapped_reserved: set[int] = set()
        # Counters
        self.hits = 0
        self.misses = 0
        self.swap_ins = 0
        self.swap_outs = 0
        self.reservations = 0

    # ------------------------------------------------------------------
    # Core protocol (same shape as BufferManager.access)
    # ------------------------------------------------------------------
    def access(self, page: int, write: bool = False) -> VMAccessOutcome:
        resident = self.resident
        if page in resident:
            self.hits += 1
            self.touch(page)
            return _VM_HIT
        self.misses += 1
        if page in self.reserved:
            # Reserved by a swizzle: the frame exists, the data does not.
            # Loading the data swizzles *this* page's pointers in turn.
            self.reserved.remove(page)
            resident.add(page)
            self.touch(page)
            swap_outs = self._swizzle(page)
            return VMAccessOutcome(
                hit=False, read_page=page, swap_out_pages=swap_outs
            )
        if page in self._swapped_resident:
            # Was resident once; its dirty image must come back from swap.
            self._swapped_resident.discard(page)
            self.swap_ins += 1
            swap_outs = self._make_room()
            resident.add(page)
            self._on_admit(page)
            return VMAccessOutcome(
                hit=False, swap_read=True, swap_out_pages=swap_outs
            )
        if page in self._swapped_reserved:
            # A reservation that was swapped out before ever being filled:
            # swap it back in *and* perform the database read it owed.
            self._swapped_reserved.discard(page)
            self.swap_ins += 1
            swap_outs = self._make_room()
            resident.add(page)
            self._on_admit(page)
            swizzled = self._swizzle(page)
            if swizzled:
                swap_outs = swap_outs + swizzled if swap_outs else swizzled
            return VMAccessOutcome(
                hit=False,
                read_page=page,
                swap_read=True,
                swap_out_pages=swap_outs,
            )
        # First touch ever: claim a frame, read from the database, and
        # swizzle the fresh page's pointers (the §4.3.2 cascade).
        swap_outs = self._make_room()
        resident.add(page)
        self._on_admit(page)
        swizzled = self._swizzle(page)
        if swizzled:
            swap_outs = swap_outs + swizzled if swap_outs else swizzled
        return VMAccessOutcome(
            hit=False, read_page=page, swap_out_pages=swap_outs
        )

    def _swizzle(self, page: int) -> Sequence[int]:
        """Pointer-swizzle a freshly loaded page: reserve frames for every
        page its objects reference.  Returns pages swapped out to make
        room (the caller owes one swap write each)."""
        swap_outs: List[int] | None = None
        resident = self.resident
        reserved = self.reserved
        for target in self._pages_referenced_by_page(page):
            if (
                target in resident
                or target in reserved
                or target in self._swapped_resident
                or target in self._swapped_reserved
            ):
                continue
            room = self._make_room(protect=page)
            if room is None:
                # No frame can be freed without evicting the page being
                # swizzled itself; the OS would simply fail the eager
                # reservation and fault the target later.
                break
            if room:
                # room is a fresh list (the shared empty is falsy), so
                # the first one can be adopted outright.
                if swap_outs is None:
                    swap_outs = room
                else:
                    swap_outs.extend(room)
            reserved.add(target)
            self._on_admit(target)
            self.reservations += 1
        return swap_outs if swap_outs is not None else _NO_SWAPS

    def _make_room(self, protect: int | None = None) -> Sequence[int] | None:
        """Free one frame if full; victims go to swap (dirty anon memory).

        Returns the swapped-out pages (the shared empty tuple when
        memory had room), or ``None`` when the only remaining victim is
        the ``protect`` page (the frame being swizzled must stay
        resident).
        """
        resident = self.resident
        reserved = self.reserved
        capacity = self.capacity
        if len(resident) + len(reserved) < capacity:
            return _NO_SWAPS
        swap_outs: List[int] = []
        choose_victim = self._choose_victim
        while len(resident) + len(reserved) >= capacity:
            victim = choose_victim()
            if victim == protect:
                # Give the frame back (at MRU position) and report no room.
                self.policy.on_admit(victim)
                return None
            if victim in resident:
                resident.remove(victim)
                self._swapped_resident.add(victim)
            else:
                reserved.remove(victim)
                self._swapped_reserved.add(victim)
            swap_outs.append(victim)
            self.swap_outs += 1
        return swap_outs

    # ------------------------------------------------------------------
    # BufferManager-compatible surface
    # ------------------------------------------------------------------
    def contains(self, page: int) -> bool:
        return page in self.resident

    def invalidate(self, page: int) -> bool:
        present = page in self.resident or page in self.reserved
        if present:
            self.resident.discard(page)
            self.reserved.discard(page)
            self.policy.forget(page)
        self._swapped_resident.discard(page)
        self._swapped_reserved.discard(page)
        return present

    def invalidate_all(self) -> int:
        """Forget every frame and swap image, returning frames dropped.

        The policy forgets the resident frames, then the reserved ones.
        Any order leaves every policy empty (RANDOM's swap-removes,
        LFU's buckets and the CLOCK hands included), so the order of
        the two tables affects nothing after this call.
        """
        forget = self.policy.forget
        count = len(self.resident) + len(self.reserved)
        for page in self.resident:
            forget(page)
        for page in self.reserved:
            forget(page)
        self.resident.clear()
        self.reserved.clear()
        self._swapped_resident.clear()
        self._swapped_reserved.clear()
        return count

    def flush(self) -> List[int]:
        """No write-back concept: the store is the memory image."""
        return []

    @property
    def resident_pages(self) -> int:
        return len(self.resident)

    @property
    def reserved_pages(self) -> int:
        return len(self.reserved)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VirtualMemoryManager "
            f"{self.resident_pages + self.reserved_pages}/{self.capacity} "
            f"resident={self.resident_pages} reserved={self.reserved_pages} "
            f"swapped={len(self._swapped_resident) + len(self._swapped_reserved)}>"
        )
