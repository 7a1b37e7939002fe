"""Object placement: laying the object base onto disk pages.

Table 3's INITPL parameter offers **Sequential** (objects in OID order)
and **Optimized Sequential** (the Table 4 default for both O2 and Texas:
objects grouped by class, so each class extent is contiguous on disk).

The product is a :class:`PageMap` — the OID→page mapping the Object
Manager consults on every access and the Clustering Manager rebuilds when
it reorganizes the base.  Objects never share a page with a partial
object; an object larger than a page spans consecutive pages (its page
span is returned by :meth:`PageMap.pages_of`).

Page capacity accounts for the system's storage overhead (callers pass
``VOODBConfig.usable_page_bytes``) — this is how the same OCB base
occupies ~28 MB under O2 and ~21 MB under Texas (§4.3/§4.4).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ocb.database import Database


class PageMap:
    """Every object's page span, and every page's objects.

    Two lists: ``_ranges[oid]`` is the object's page span and
    ``_page_objects[page]`` the objects living on the page (an object
    spanning several pages is listed on its first page only).  Only
    :meth:`append_object` changes a built map: it extends both lists and
    fills the append page it opened itself.  A reorganization builds a
    new map (:func:`relocation_placement`) that shares the untouched
    page lists, so no other page list may ever be mutated.
    """

    def __init__(
        self,
        ranges: List[range],
        page_objects: List[List[int]],
    ) -> None:
        #: per-oid page ranges, materialized once — ``pages_of`` is the
        #: single hottest lookup in the model (one call per object
        #: access), and rebuilding the range object each time costs more
        #: than this map's whole construction
        self._ranges = ranges
        self._page_objects = page_objects
        #: (page, used bytes) of the current insert-append page, if any
        self._append_cursor: tuple[int, int] | None = None

    @classmethod
    def build(
        cls,
        order: Sequence[int],
        sizes: Sequence[int],
        usable_page_bytes: int,
        page_aligned_groups: Sequence[int] | None = None,
    ) -> "PageMap":
        """Pack objects onto pages in the given order.

        ``order`` is a permutation of OIDs; ``sizes[oid]`` the object
        payload.  ``page_aligned_groups`` optionally marks OIDs that must
        start on a fresh page (cluster starts, class-extent starts) so
        groups never straddle a shared page boundary.
        """
        ranges = [range(0, 1)] * len(sizes)
        page_objects: List[List[int]] = []
        aligned = set(page_aligned_groups or ())
        current: List[int] = []
        used = 0

        def close_page() -> None:
            nonlocal current, used
            page_objects.append(current)
            current = []
            used = 0

        for oid in order:
            size = sizes[oid]
            if oid in aligned and current:
                close_page()
            if size > usable_page_bytes:
                # Large object: dedicated consecutive pages.
                if current:
                    close_page()
                pages_needed = -(-size // usable_page_bytes)
                first = len(page_objects)
                ranges[oid] = range(first, first + pages_needed)
                page_objects.append([oid])
                for __ in range(pages_needed - 1):
                    page_objects.append([])
                continue
            if used + size > usable_page_bytes:
                close_page()
            page = len(page_objects)
            ranges[oid] = range(page, page + 1)
            current.append(oid)
            used += size
        if current:
            close_page()
        return cls(ranges, page_objects)

    def append_object(self, oid: int, size: int, usable_page_bytes: int) -> int:
        """Place a newly created object (OCB insert) at the extent's end.

        New objects fill the current append page until it overflows, then
        open a fresh page — heap-file append semantics.  Returns the
        first page of the new object.  ``oid`` must be the next unmapped
        OID (inserts allocate OIDs densely).
        """
        if oid != len(self._ranges):
            raise ValueError(
                f"append_object expects oid {len(self._ranges)}, got {oid}"
            )
        if size > usable_page_bytes:
            pages_needed = -(-size // usable_page_bytes)
            first = len(self._page_objects)
            self._page_objects.append([oid])
            for __ in range(pages_needed - 1):
                self._page_objects.append([])
            self._ranges.append(range(first, first + pages_needed))
            self._append_cursor = None
            return first
        if (
            self._append_cursor is None
            or self._append_cursor[1] + size > usable_page_bytes
        ):
            self._page_objects.append([])
            self._append_cursor = (len(self._page_objects) - 1, 0)
        page, used = self._append_cursor
        self._page_objects[page].append(oid)
        self._append_cursor = (page, used + size)
        self._ranges.append(range(page, page + 1))
        return page

    # ------------------------------------------------------------------
    # Hot-path accessors
    # ------------------------------------------------------------------
    def page_of(self, oid: int) -> int:
        """First page of the object (its only page for small objects)."""
        return self._ranges[oid].start

    def pages_of(self, oid: int) -> range:
        """Every page the object occupies."""
        return self._ranges[oid]

    @property
    def page_ranges(self) -> List[range]:
        """Every object's page span, indexed by OID.

        The map's own list, which :meth:`append_object` extends in place:
        a holder of it sees inserted objects, but not a rebuilt map.
        """
        return self._ranges

    def objects_on(self, page: int) -> Sequence[int]:
        return self._page_objects[page]

    @property
    def total_pages(self) -> int:
        return len(self._page_objects)

    def __len__(self) -> int:
        return len(self._ranges)

    def occupancy(self) -> float:
        """Mean objects per non-empty page."""
        non_empty = [p for p in self._page_objects if p]
        if not non_empty:
            return 0.0
        return sum(len(p) for p in non_empty) / len(non_empty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PageMap objects={len(self)} pages={self.total_pages}>"


def sequential_placement(db: Database, usable_page_bytes: int) -> PageMap:
    """INITPL = Sequential: objects packed in OID (creation) order."""
    sizes = [db.size(oid) for oid in range(len(db))]
    return PageMap.build(range(len(db)), sizes, usable_page_bytes)


def optimized_sequential_placement(db: Database, usable_page_bytes: int) -> PageMap:
    """INITPL = Optimized Sequential: class extents contiguous on disk.

    Objects of one class sit together (in extent order), and each class
    starts on a fresh page.  Combined with OCB's object-locality window
    this gives related objects page proximity from the start — the
    baseline DSTC has to beat.
    """
    sizes = [db.size(oid) for oid in range(len(db))]
    order: List[int] = []
    group_starts: List[int] = []
    for cid in range(db.config.nc):
        extent = db.instances_of(cid)
        if extent:
            group_starts.append(extent[0])
            order.extend(extent)
    return PageMap.build(order, sizes, usable_page_bytes, group_starts)


def relocation_placement(
    db: Database,
    usable_page_bytes: int,
    clusters: Sequence[Sequence[int]],
    current: PageMap,
) -> PageMap:
    """Relocate clustered objects to fresh pages; everything else stays.

    This is how a real store reorganizes: moved objects leave holes in
    their old pages and land on newly allocated pages appended after the
    current extent (each cluster page-aligned, members contiguous in
    cluster order).  Non-moved objects keep their exact page ids, so
    buffer frames for untouched pages remain valid — only the old pages
    of moved objects (stale images) and the fresh cluster pages are
    affected.  Freed hole space is not reclaimed, matching the
    storage-growth behaviour of relocation-based reorganizers.

    The new map copies ``current``'s two lists, re-filters only the
    pages the moved objects leave and writes ranges only for the moved
    objects.  Every other page list is shared with ``current``, which
    is never mutated: for static workloads it is the cached initial
    placement every replication starts from.
    """
    moved: set[int] = set()
    for cluster in clusters:
        for oid in cluster:
            if oid in moved:
                raise ValueError(f"object {oid} appears in two clusters")
            moved.add(oid)

    ranges = current._ranges.copy()
    page_objects = current._page_objects.copy()
    for page in {page for oid in moved for page in ranges[oid]}:
        page_objects[page] = [oid for oid in page_objects[page] if oid not in moved]

    current_page: List[int] = []
    used = 0

    def close_page() -> None:
        nonlocal current_page, used
        if current_page:
            page_objects.append(current_page)
        current_page = []
        used = 0

    for cluster in clusters:
        close_page()  # each cluster starts on a fresh page
        for oid in cluster:
            size = db.size(oid)
            if size > usable_page_bytes:
                close_page()
                pages_needed = -(-size // usable_page_bytes)
                first = len(page_objects)
                ranges[oid] = range(first, first + pages_needed)
                page_objects.append([oid])
                for __ in range(pages_needed - 1):
                    page_objects.append([])
                continue
            if used + size > usable_page_bytes:
                close_page()
            page = len(page_objects)
            ranges[oid] = range(page, page + 1)
            current_page.append(oid)
            used += size
    close_page()
    return PageMap(ranges, page_objects)


#: Table 3 INITPL registry.
_PLACEMENTS = {
    "sequential": sequential_placement,
    "optimized_sequential": optimized_sequential_placement,
}


def make_placement(db: Database, initpl: str, usable_page_bytes: int) -> PageMap:
    """Build the initial placement selected by the INITPL code."""
    key = initpl.strip().lower()
    if key not in _PLACEMENTS:
        raise ValueError(
            f"unknown initial placement {initpl!r}; known: {sorted(_PLACEMENTS)}"
        )
    return _PLACEMENTS[key](db, usable_page_bytes)
