"""The Clustering Manager (knowledge model, Figure 4).

"After an operation on a given object is over, the Clustering Manager
may update some usage statistics for the database.  An analysis of these
statistics can trigger a reclustering, which is then performed by the
Clustering Manager.  Such a database reorganization can also be demanded
externally by the Users."

The algorithm-specific pieces live in the plugged
:class:`~repro.clustering.base.ClusteringPolicy`; this manager owns the
mechanism every policy shares:

* routing the per-access statistics hook,
* the automatic trigger (policy says "reorganize" at a transaction
  boundary) and the external demand (§4.4's experiment protocol),
* the physical reorganization: read the pages currently holding the
  clustered objects, rewrite them at their new locations, rebuild the
  Object Manager's directory, and invalidate stale buffer frames —
  its I/Os are the paper's "clustering overhead" (Table 6), accounted
  separately from usage I/Os.

Because OIDs are logical, no reference-update pass is needed — the paper
calls its absence out when comparing simulated overhead (354 I/Os) with
Texas' measured overhead (12 799 I/Os, physical OIDs): "this flagrant
inconsistency is not due to a bug in the simulation model, but to a
particularity in Texas."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.clustering.base import ClusteringPolicy
from repro.clustering.placement import relocation_placement
from repro.core.object_manager import ObjectManager
from repro.core.parameters import VOODBConfig
from repro.core.results import ClusteringReport
from repro.ocb.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.io_subsystem import IOSubsystem


class ClusteringManager:
    """Mechanism shared by every clustering policy."""

    def __init__(
        self,
        config: VOODBConfig,
        db: Database,
        object_manager: ObjectManager,
        memory,
        io: "IOSubsystem",
        policy: ClusteringPolicy,
    ) -> None:
        self.config = config
        self.db = db
        self.object_manager = object_manager
        self.memory = memory
        self.io = io
        self.policy = policy
        policy.attach(db)
        self.report = ClusteringReport(policy=policy.name)
        self._installed_clusters: List[List[int]] = []
        #: called at the end of every reorganization, automatic or
        #: demanded; the model wires the architecture's
        #: ``notify_reorganized`` here.
        self.on_reorganized: Callable[[], None] = lambda: None
        self._rebind_access_hook()

    # ------------------------------------------------------------------
    # Figure 4 hooks (called by the Transaction Manager)
    # ------------------------------------------------------------------
    def on_object_access(self, oid: int, previous_oid: Optional[int]) -> None:
        self.policy.on_object_access(oid, previous_oid)

    def _rebind_access_hook(self) -> None:
        # The hook runs once per object access; aliasing the policy's
        # bound method on the instance removes the pure-delegation frame
        # from the hot path while keeping ``on_object_access`` the API.
        self.on_object_access = self.policy.on_object_access

    def after_transaction_nowait(self):
        """Automatic trigger check; reorganizes inline when requested.

        Returns the reorganization generator to ``yield from`` when the
        policy fires, ``None`` (almost always) otherwise.
        """
        if self.policy.on_transaction_end():
            return self.reorganize()
        return None

    def demand_clustering(self):
        """External trigger (Figure 4 "Clustering Demand" from Users)."""
        flush = getattr(self.policy, "flush_observations", None)
        if flush is not None:
            flush()
        yield from self.reorganize()

    # ------------------------------------------------------------------
    # The reorganization itself
    # ------------------------------------------------------------------
    def reorganize(self):
        """Physically rewrite the base around the policy's clusters."""
        clusters = self.policy.build_clusters()
        if not clusters:
            return
        moved = [oid for cluster in clusters for oid in cluster]

        # 1. Read the pages currently holding the objects to move.
        # Reorganization goes through the memory manager: pages still
        # resident from the observation run cost no I/O (this is why the
        # paper's simulated overhead is 354 I/Os while Texas pays 12 799).
        old_pages = self.object_manager.pages_holding(moved)
        pages_to_read = [p for p in old_pages if not self.memory.contains(p)]
        yield from self.io.read_pages(pages_to_read)

        # 2. Rebuild the directory: clusters relocate to fresh pages,
        # everything else keeps its physical location.
        new_map = relocation_placement(
            self.db,
            self.config.usable_page_bytes,
            clusters,
            self.object_manager.page_map,
        )
        self.object_manager.rebuild(new_map)

        # 3. Write the pages now holding the moved objects.
        new_pages = self.object_manager.pages_holding(moved)
        yield from self.io.write_pages(new_pages)

        # 4. Only the affected frames are stale: the old images of moved
        # objects.  Frames for untouched pages stay valid (their page ids
        # did not change), which is what lets a warm cache survive a
        # reorganization.
        for page in old_pages:
            self.memory.invalidate(page)
        for page in new_pages:
            self.memory.invalidate(page)

        # 5. Bookkeeping.
        self.report.reorganizations += 1
        self.report.overhead_reads += len(pages_to_read)
        self.report.overhead_writes += len(new_pages)
        self.report.clusters = len(clusters)
        self.report.clustered_objects = len(moved)
        self.report.moved_objects += len(moved)
        self._installed_clusters = clusters
        self.policy.notify_reorganized(clusters)
        self.on_reorganized()

    # ------------------------------------------------------------------
    @property
    def installed_clusters(self) -> List[List[int]]:
        return self._installed_clusters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusteringManager policy={self.policy.name!r} "
            f"reorganizations={self.report.reorganizations}>"
        )
