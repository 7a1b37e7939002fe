"""Buffer page replacement strategies (Table 3: PGREP).

Table 3 lists RANDOM | FIFO | LFU | LRU-K | CLOCK | GCLOCK with LRU-1 as
the default; §5 notes these "basic buffering strategies" as the ones
VOODB currently provides.  This module implements them all (plus MRU,
a classic foil for sequential-flooding discussions) behind one small
interface used by the Buffering Manager:

* ``on_admit(page)`` — a page entered the buffer;
* ``on_hit(page)``   — a resident page was referenced;
* ``choose_victim()`` — pick and forget the page to evict;
* ``forget(page)``   — the page left the buffer for another reason
  (invalidation after clustering reorganization).

Policies keep their own bookkeeping; the Buffering Manager owns the
actual frame table.  The recency family (LRU/MRU/FIFO) keeps residency
order in one ``collections.OrderedDict`` — LRU's and MRU's ``on_hit`` is
the dict's own ``move_to_end``, so a buffer hit costs no Python frame
in the policy — and LFU runs on O(1) frequency buckets: every operation
constant-time.  LRU-K keeps its lazy heap (O(log n) victim), and the
CLOCK/GCLOCK hand sweeps are amortized O(1) per admission.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Dict, List

from repro.despy.randomstream import RandomStream


class EmptyPolicyError(LookupError):
    """Raised when a victim is requested from a policy tracking no pages.

    Without this the strategies would leak their internals — LRU/MRU/FIFO
    a ``KeyError`` from ``OrderedDict.popitem``, LFU an endless bucket
    scan, LRU-K a bare ``IndexError`` from ``heappop``, CLOCK an
    ``IndexError`` mid-sweep.
    """


class ReplacementPolicy(ABC):
    """Interface between the Buffering Manager and a strategy."""

    name: str = "abstract"

    @abstractmethod
    def on_admit(self, page: int) -> None: ...

    @abstractmethod
    def on_hit(self, page: int) -> None: ...

    @abstractmethod
    def choose_victim(self) -> int:
        """Return the page to evict, removing it from the bookkeeping.

        Raises :class:`EmptyPolicyError` when no page is tracked.
        """

    @abstractmethod
    def forget(self, page: int) -> None: ...

    def _no_victim(self) -> "int":
        raise EmptyPolicyError(
            f"{self.name} replacement policy has no pages to evict"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class _RecencyPolicy(ReplacementPolicy):
    """Residency order on a :class:`collections.OrderedDict`.

    The first key is the coldest page, the last the hottest: admissions
    append at the hot end and the victim pops from the cold end (the hot
    end when ``_evict_hottest`` is set).  Every operation is one O(1)
    call into the dict's C implementation.
    """

    #: pop the victim from the hot end (MRU) instead of the cold end
    _evict_hottest = False

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()
        # on_hit runs once per buffer hit.  Unless a subclass overrides
        # it (FIFO), each instance shadows it with the dict's own bound
        # move_to_end, as RandomStream aliases its pass-throughs: the
        # hook the Buffering Manager binds is then a C call, not a frame.
        if type(self).on_hit is _RecencyPolicy.on_hit:
            self.on_hit = self._order.move_to_end

    def on_admit(self, page: int) -> None:
        self._order[page] = None

    def on_hit(self, page: int) -> None:
        """Move a resident page to the hot end."""
        self._order.move_to_end(page)

    def choose_victim(self) -> int:
        if not self._order:
            self._no_victim()
        return self._order.popitem(last=self._evict_hottest)[0]

    def forget(self, page: int) -> None:
        self._order.pop(page, None)


class LRUPolicy(_RecencyPolicy):
    """Least Recently Used (Table 3's LRU-1 default)."""

    name = "LRU"


class MRUPolicy(_RecencyPolicy):
    """Most Recently Used — evicts the hottest page (anti-LRU foil)."""

    name = "MRU"
    _evict_hottest = True


class FIFOPolicy(_RecencyPolicy):
    """First In First Out — references do not refresh residency."""

    name = "FIFO"

    def on_hit(self, page: int) -> None:
        pass


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim (Table 3's RANDOM)."""

    name = "RANDOM"

    def __init__(self, rng: RandomStream) -> None:
        self._rng = rng
        self._pages: List[int] = []
        self._slot: Dict[int, int] = {}

    def on_admit(self, page: int) -> None:
        self._slot[page] = len(self._pages)
        self._pages.append(page)

    def on_hit(self, page: int) -> None:
        pass

    def choose_victim(self) -> int:
        if not self._pages:
            self._no_victim()
        index = self._rng.randint(0, len(self._pages) - 1)
        page = self._pages[index]
        self._remove_at(index)
        return page

    def forget(self, page: int) -> None:
        index = self._slot.get(page)
        if index is not None:
            self._remove_at(index)

    def _remove_at(self, index: int) -> None:
        page = self._pages[index]
        last = self._pages[-1]
        self._pages[index] = last
        self._slot[last] = index
        self._pages.pop()
        del self._slot[page]


class LFUPolicy(ReplacementPolicy):
    """Least Frequently Used, least-recently-bumped among ties.

    O(1) frequency buckets instead of a lazy heap: ``_buckets[c]`` holds
    the pages currently at count ``c`` in the order they *reached* that
    count, so the first page of the lowest non-empty bucket is exactly
    the heap formulation's ``(count, seq)`` minimum — the coldest page,
    ties broken by the earliest last-touch.  No per-hit heap push, no
    stale entries to skim at eviction time.
    """

    name = "LFU"

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._buckets: Dict[int, Dict[int, None]] = {}
        self._min_count = 1

    def on_admit(self, page: int) -> None:
        self._counts[page] = 1
        bucket = self._buckets.get(1)
        if bucket is None:
            bucket = self._buckets[1] = {}
        bucket[page] = None
        self._min_count = 1

    def on_hit(self, page: int) -> None:
        counts = self._counts
        count = counts[page]
        counts[page] = count + 1
        buckets = self._buckets
        bucket = buckets[count]
        del bucket[page]
        if not bucket:
            del buckets[count]
        bucket = buckets.get(count + 1)
        if bucket is None:
            bucket = buckets[count + 1] = {}
        bucket[page] = None

    def choose_victim(self) -> int:
        if not self._counts:
            self._no_victim()
        buckets = self._buckets
        count = self._min_count
        bucket = buckets.get(count)
        while bucket is None:
            # The minimum only drifts up between admissions; scan
            # resumes where it left off (amortized O(1) per eviction).
            count += 1
            bucket = buckets.get(count)
        self._min_count = count
        page = next(iter(bucket))
        del bucket[page]
        if not bucket:
            del buckets[count]
        del self._counts[page]
        return page

    def forget(self, page: int) -> None:
        count = self._counts.pop(page, None)
        if count is not None:
            bucket = self._buckets[count]
            del bucket[page]
            if not bucket:
                del self._buckets[count]


class LRUKPolicy(ReplacementPolicy):
    """LRU-K: evict the page whose K-th most recent reference is oldest.

    Pages with fewer than K references rank as minus infinity (classic
    O'Neil backward-K-distance), falling back to the oldest first
    reference among themselves.
    """

    name = "LRU-K"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"LRU-K needs k >= 1, got {k}")
        self.k = k
        self._clock = 0
        self._history: Dict[int, List[int]] = {}
        self._heap: List[tuple[float, int, int]] = []
        self._seq = 0

    def _kth_key(self, page: int) -> float:
        history = self._history[page]
        if len(history) < self.k:
            # Effectively -inf rank; the tiny offset tie-breaks by the
            # earliest reference so the coldest under-referenced page
            # goes first.
            return -1e18 + history[0]
        return float(history[-self.k])

    def _touch(self, page: int) -> None:
        self._clock += 1
        history = self._history.setdefault(page, [])
        history.append(self._clock)
        if len(history) > self.k:
            del history[0]
        heapq.heappush(self._heap, (self._kth_key(page), self._seq, page))
        self._seq += 1

    def on_admit(self, page: int) -> None:
        self._history.pop(page, None)
        self._touch(page)

    def on_hit(self, page: int) -> None:
        self._touch(page)

    def choose_victim(self) -> int:
        if not self._history:
            self._no_victim()
        while True:
            key, __, page = heapq.heappop(self._heap)
            if page in self._history and self._kth_key(page) == key:
                del self._history[page]
                return page

    def forget(self, page: int) -> None:
        self._history.pop(page, None)


def _drop_slot(pages: List[int], hand: int, page: int) -> int:
    """Remove ``page``'s slot from a clock ring; return the hand, stepped
    back when the slot was behind it so it stays on the same page.

    A linear scan, but only invalidations forget a page.
    """
    index = pages.index(page)
    del pages[index]
    return hand - 1 if index < hand else hand


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: a hand sweeps reference bits."""

    name = "CLOCK"

    def __init__(self) -> None:
        self._pages: List[int] = []
        self._refbit: Dict[int, bool] = {}
        self._hand = 0

    def on_admit(self, page: int) -> None:
        self._pages.append(page)
        self._refbit[page] = False

    def on_hit(self, page: int) -> None:
        self._refbit[page] = True

    def choose_victim(self) -> int:
        if not self._refbit:
            self._no_victim()
        while True:
            if self._hand >= len(self._pages):
                self._hand = 0
            page = self._pages[self._hand]
            if self._refbit[page]:
                self._refbit[page] = False
                self._hand += 1
            else:
                self._pages.pop(self._hand)
                del self._refbit[page]
                return page

    def forget(self, page: int) -> None:
        if self._refbit.pop(page, None) is not None:
            self._hand = _drop_slot(self._pages, self._hand, page)


class GClockPolicy(ReplacementPolicy):
    """Generalized CLOCK: counters decremented by the sweeping hand."""

    name = "GCLOCK"

    def __init__(self, initial_weight: int = 2) -> None:
        if initial_weight < 1:
            raise ValueError("initial_weight must be >= 1")
        self.initial_weight = initial_weight
        self._pages: List[int] = []
        self._count: Dict[int, int] = {}
        self._hand = 0

    def on_admit(self, page: int) -> None:
        self._pages.append(page)
        self._count[page] = self.initial_weight

    def on_hit(self, page: int) -> None:
        self._count[page] += 1

    def choose_victim(self) -> int:
        if not self._count:
            self._no_victim()
        while True:
            if self._hand >= len(self._pages):
                self._hand = 0
            page = self._pages[self._hand]
            if self._count[page] > 0:
                self._count[page] -= 1
                self._hand += 1
            else:
                self._pages.pop(self._hand)
                del self._count[page]
                return page

    def forget(self, page: int) -> None:
        if self._count.pop(page, None) is not None:
            self._hand = _drop_slot(self._pages, self._hand, page)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Factories for Table 3's PGREP values.  ``rng`` is only consumed by
#: RANDOM but passed uniformly for interface simplicity.
_FACTORIES: Dict[str, Callable[[RandomStream], ReplacementPolicy]] = {
    "LRU": lambda rng: LRUPolicy(),
    "MRU": lambda rng: MRUPolicy(),
    "FIFO": lambda rng: FIFOPolicy(),
    "RANDOM": lambda rng: RandomPolicy(rng),
    "LFU": lambda rng: LFUPolicy(),
    "CLOCK": lambda rng: ClockPolicy(),
    "GCLOCK": lambda rng: GClockPolicy(),
}


def available_policies() -> List[str]:
    """Registry keys plus the parameterized LRU-K form."""
    return sorted(_FACTORIES) + ["LRU-<k>"]


def make_replacement_policy(name: str, rng: RandomStream) -> ReplacementPolicy:
    """Build a policy from its Table 3 PGREP code.

    ``LRU-<k>`` (e.g. ``LRU-2``) builds :class:`LRUKPolicy`; ``LRU`` and
    ``LRU-1`` are the plain LRU default.
    """
    key = name.strip().upper()
    if key in ("LRU", "LRU-1"):
        return LRUPolicy()
    if key.startswith("LRU-"):
        try:
            k = int(key[4:])
        except ValueError as exc:
            raise ValueError(f"bad LRU-K policy name {name!r}") from exc
        return LRUKPolicy(k)
    if key in _FACTORIES:
        return _FACTORIES[key](rng)
    raise ValueError(
        f"unknown replacement policy {name!r}; known: {available_policies()}"
    )
