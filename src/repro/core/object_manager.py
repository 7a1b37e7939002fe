"""The Object Manager (knowledge model, Figure 4).

"A given object is requested by the Transaction Manager to the Object
Manager that finds out which disk page contains the object."

The Object Manager owns the OID→page mapping (a
:class:`~repro.clustering.placement.PageMap`) and rebuilds it when the
Clustering Manager reorganizes the base.  OIDs are logical — §4.4 notes
that simulation models "necessarily use logical OIDs", which is exactly
why simulated clustering overhead excludes Texas' physical-OID
reference-update scan.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.clustering.placement import PageMap
from repro.ocb.database import Database


class ObjectManager:
    """Logical-OID object-to-page directory."""

    def __init__(
        self,
        db: Database,
        page_map: PageMap,
        shared_page_refs_cache: dict | None = None,
    ) -> None:
        self.db = db
        self._install(page_map)
        if shared_page_refs_cache is not None:
            # A sweep-wide swizzle-cascade cache adopted from the
            # placement cache: valid because the shared (map, graph)
            # pair is immutable for the configs that supply one.  The
            # mutation stamp must match the live graph, or the first
            # lookup would wipe the warm cache.
            self._page_refs_cache = shared_page_refs_cache
            self._page_refs_mutations = db.mutations
        self.rebuilds = 0

    def _install(self, page_map: PageMap) -> None:
        self._page_map = page_map
        #: per-oid page spans of the installed map.  The architectures'
        #: trace walks index it directly (the hottest lookup in the
        #: model, once per object access) and must read the attribute
        #: again after each step they yield: :meth:`rebuild` replaces it,
        #: while an OCB insert extends the same list in place.
        self.page_ranges = page_map.page_ranges
        # Bound here (and again on rebuild) so page_of skips two
        # attribute hops per lookup.
        self._page_of = page_map.page_of
        # Swizzle-cascade cache: page -> pages referenced by its
        # objects.  Valid for one (page map, database graph) pair; the
        # map half resets here, the graph half via ``db.mutations``.
        self._page_refs_cache: dict = {}
        self._page_refs_mutations = -1

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def pages_of(self, oid: int) -> range:
        """Page span holding the object (one page for ordinary objects).

        The hot path indexes :attr:`page_ranges` itself; this reads the
        same table.
        """
        return self.page_ranges[oid]

    def page_of(self, oid: int) -> int:
        return self._page_of(oid)

    def pages_referenced_by(self, oid: int) -> List[int]:
        """Pages of every object ``oid`` references (swizzling cascade)."""
        page_of = self._page_of
        return [page_of(target) for target in self.db.refs(oid)]

    def pages_referenced_by_page(self, page: int) -> List[int]:
        """Distinct pages referenced by the objects living on ``page``.

        This is what Texas' page-fault-time pointer swizzling reserves
        (see :mod:`repro.core.virtual_memory`).  The cascade is a pure
        function of the page map and the object graph, and the VM model
        asks for the same hot pages on every fault — so the result is
        cached until either input changes.
        """
        cache = self._page_refs_cache
        mutations = self.db.mutations
        if mutations != self._page_refs_mutations:
            cache.clear()
            self._page_refs_mutations = mutations
        cached = cache.get(page)
        if cached is not None:
            return cached
        page_map = self._page_map
        db = self.db
        targets = {
            page_map.page_of(target)
            for oid in page_map.objects_on(page)
            for target in db.refs(oid)
        }
        targets.discard(page)
        result = sorted(targets)
        cache[page] = result
        return result

    # ------------------------------------------------------------------
    # Directory maintenance
    # ------------------------------------------------------------------
    @property
    def page_map(self) -> PageMap:
        return self._page_map

    @property
    def total_pages(self) -> int:
        return self._page_map.total_pages

    def objects_on(self, page: int) -> Sequence[int]:
        return self._page_map.objects_on(page)

    def pages_holding(self, oids: Iterable[int]) -> List[int]:
        """Distinct pages (sorted) currently holding the given objects."""
        page_ranges = self.page_ranges
        pages = {page for oid in oids for page in page_ranges[oid]}
        return sorted(pages)

    def rebuild(self, page_map: PageMap) -> None:
        """Install a new mapping after a clustering reorganization."""
        if len(page_map) != len(self.db):
            raise ValueError(
                f"new page map covers {len(page_map)} of {len(self.db)} objects"
            )
        self._install(page_map)
        self.rebuilds += 1

    def allocate(self, oid: int, usable_page_bytes: int) -> int:
        """Assign disk space to a freshly inserted object.

        Called by the Transaction Manager when it executes an OCB insert
        transaction; returns the object's first page.
        """
        page = self._page_map.append_object(
            oid, self.db.size(oid), usable_page_bytes
        )
        # The new object changes what lives on its page (and the insert
        # already bumped db.mutations, but the placement change alone
        # would not have).
        self._page_refs_cache.pop(page, None)
        return page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ObjectManager objects={len(self.db)} "
            f"pages={self.total_pages} rebuilds={self.rebuilds}>"
        )
