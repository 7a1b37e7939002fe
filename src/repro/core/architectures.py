"""System-class strategies (Table 3 SYSCLASS; paper §3.3).

"Our generic model allows simulating the behavior of different types of
OODBMSs.  It is [...] especially suitable to page server systems (like
ObjectStore or O2), but can also be used to model object server systems
(like ORION or ONTOS), or database server systems [...].  The
organization of the VOODB components is controlled by the 'System class'
parameter."

Each strategy implements the object-access path of Figure 4 for one
organization:

* :class:`Centralized` — client and server are the same machine (Texas):
  Object Manager → memory → disk, no network.
* :class:`PageServer` — O2's organization: the client asks the server
  for the *page* holding the object; the page ships back whole.  An
  optional client page cache (``client_buffsize``) absorbs repeats.
* :class:`ObjectServer` — ORION/ONTOS: the client asks for the *object*;
  only the object's bytes ship.  The optional client cache holds objects.
* :class:`DBServer` — the whole transaction ships to the server and only
  request/result messages cross the network.

Every strategy serves a buffer miss on one path: the base class's
``_miss_io`` hands the miss's outcome to
:meth:`~repro.core.io_subsystem.IOSubsystem.serve_miss` (dirty
write-backs, swap traffic, the read itself), then runs the prefetcher.
Architectures therefore differ *only* in where requests travel — the
point of the paper's genericity claim — while the I/O Subsystem alone
decides what a disk access costs (Figure 5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional

from repro.despy.process import PARK, Hold
from repro.core.buffering import BufferManager
from repro.core.network import Network
from repro.core.object_manager import ObjectManager
from repro.core.parameters import SystemClass, VOODBConfig
from repro.core.prefetch import NoPrefetch, PrefetchPolicy
from repro.ocb.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation
    from repro.core.io_subsystem import IOSubsystem


class Architecture(ABC):
    """The object-access path of one system class."""

    name: str = "abstract"

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        db: Database,
        object_manager: ObjectManager,
        memory,
        io: "IOSubsystem",
        network: Network,
        prefetcher: PrefetchPolicy,
    ) -> None:
        self.sim = sim
        self.config = config
        self.db = db
        self.object_manager = object_manager
        self.memory = memory
        self.io = io
        self.network = network
        self.prefetcher = prefetcher
        #: bound page-directory lookup — one frame per object access
        #: instead of two on the hottest lookup in the model
        self._om_pages_of = object_manager.pages_of
        self._admit_prefetched = getattr(memory, "admit_prefetched", None)
        self._prefetch_enabled = (
            self._admit_prefetched is not None
            and not isinstance(prefetcher, NoPrefetch)
        )
        self._prefetched_unused: set[int] = set()
        # Counters
        self.prefetched_pages = 0
        self.prefetch_hits = 0
        self.client_hits = 0
        self.client_misses = 0

    # ------------------------------------------------------------------
    @abstractmethod
    def access_object_nowait(self, oid: int, write: bool):
        """One object access, synchronous when no simulated time passes.

        This is the face subclasses implement (and the one the
        Transaction Manager calls): return ``None`` when the access
        completed entirely in place (client/buffer hits, free network) —
        the dominant outcome once the working set is resident — or a
        generator to ``yield from`` for the part that needs the event
        loop.  Pure cache hits then cost zero generator round-trips.
        """

    def begin_transaction_nowait(self):
        """The envelope face subclasses override (the Transaction
        Manager calls only this pair): ``None`` when there is no work —
        the default for every non-DB-server class."""
        return None

    def end_transaction_nowait(self):
        return None

    # ------------------------------------------------------------------
    # Shared server-side page path
    # ------------------------------------------------------------------
    def _miss_io(self, outcome, page: int):
        """One demand miss on ``page``: the disk work its outcome owes
        (:meth:`IOSubsystem.serve_miss`), then any prefetching.

        A prefetched page that was evicted unused is demand-read now, so
        its next hit is no prefetch hit.
        """
        self._prefetched_unused.discard(page)
        yield from self.io.serve_miss(outcome)
        if self._prefetch_enabled:
            yield from self._prefetch_after_miss(page)

    def _prefetch_after_miss(self, page: int):
        """Stage the prefetcher's pages, each served like a miss."""
        admit = self._admit_prefetched
        serve_miss = self.io.serve_miss
        for extra in self.prefetcher.pages_after_miss(
            page, self.object_manager.total_pages
        ):
            outcome = admit(extra)
            if outcome is None:
                continue
            yield from serve_miss(outcome)
            self._prefetched_unused.add(extra)
            self.prefetched_pages += 1

    def _server_object_access_nowait(self, oid: int, write: bool):
        """Synchronous server-side object access, handing off on a miss.

        Walks the object's pages through the memory model in place; on
        the first miss it returns a generator that finishes that miss's
        disk work and the remaining pages.  Returns ``None`` when every
        page hit — no simulated time passed, so there is nothing to
        yield.
        """
        memory = self.memory
        prefetched = self._prefetched_unused
        pages = iter(self._om_pages_of(oid))
        for page in pages:
            outcome = memory.access(page, write)
            if outcome.hit:
                if page in prefetched:
                    prefetched.discard(page)
                    self.prefetch_hits += 1
                continue
            return self._object_access_tail(outcome, page, pages, write)
        return None

    def _object_access_tail(self, outcome, page, pages, write):
        """Finish an object access from its first missing page on.

        Each miss goes through :meth:`_miss_io`; the walk over the
        object's remaining pages stays in this one frame, so the hits
        between misses cost no generator.
        """
        memory_access = self.memory.access
        prefetched = self._prefetched_unused
        while True:
            yield from self._miss_io(outcome, page)
            for page in pages:
                outcome = memory_access(page, write)
                if not outcome.hit:
                    break
                if page in prefetched:
                    prefetched.discard(page)
                    self.prefetch_hits += 1
            else:
                return

    def notify_reorganized(self) -> None:
        """Clustering moved objects: client/prefetch state is stale."""
        self._prefetched_unused.clear()

    # ------------------------------------------------------------------
    # Client-cache construction (shared by the single-server and
    # cluster variants, so their sizing can never diverge)
    # ------------------------------------------------------------------
    def _page_client_cache(self) -> "Optional[BufferManager]":
        """A page-granular client cache of ``client_buffsize`` frames."""
        if self.config.client_buffsize <= 0:
            return None
        return BufferManager(
            self.config,
            self.sim.stream("client-cache"),
            capacity=self.config.client_buffsize,
        )

    def _object_client_cache(self) -> "Optional[BufferManager]":
        """An object-granular client cache: the page budget translated
        into object slots at mean object size."""
        if self.config.client_buffsize <= 0:
            return None
        mean_size = max(1.0, self.db.config.mean_instance_size)
        slots = max(
            1,
            int(
                self.config.client_buffsize
                * self.config.usable_page_bytes
                / mean_size
            ),
        )
        return BufferManager(
            self.config, self.sim.stream("client-cache"), capacity=slots
        )


class Centralized(Architecture):
    """SYSCLASS = Centralized (Texas): everything is local."""

    name = "centralized"

    def access_object_nowait(self, oid: int, write: bool):
        return self._server_object_access_nowait(oid, write)


class PageServer(Architecture):
    """SYSCLASS = Page Server (O2, ObjectStore): pages ship to clients."""

    name = "page_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache: Optional[BufferManager] = self._page_client_cache()
        #: request + page response, precomputed for the free-net loop
        self._round_trip_bytes = self.config.message_bytes + self.config.pgsize

    def access_object_nowait(self, oid: int, write: bool):
        client_cache = self.client_cache
        network = self.network
        pages = iter(self._om_pages_of(oid))
        if network.infinite:
            # Free network (Table 4's NETTHRU = +inf): transfers only
            # count, so the whole loop stays synchronous until a page
            # actually needs the disk.  The request and response
            # messages are booked together — the totals are all that is
            # observable.
            memory = self.memory
            prefetched = self._prefetched_unused
            round_trip_bytes = self._round_trip_bytes
            for page in pages:
                if client_cache is not None:
                    if client_cache.access(page, False).hit:
                        self.client_hits += 1
                        continue
                    self.client_misses += 1
                network.messages += 2
                network.bytes_sent += round_trip_bytes
                outcome = memory.access(page, write)
                if outcome.hit:
                    if page in prefetched:
                        prefetched.discard(page)
                        self.prefetch_hits += 1
                    continue
                return self._page_server_free_net_tail(
                    outcome, page, pages, write
                )
            return None
        for page in pages:
            if client_cache is not None:
                if client_cache.access(page, False).hit:
                    self.client_hits += 1
                    continue
                self.client_misses += 1
            # This page must travel: hand the rest to the event loop.
            # Its client-cache miss is already booked, so the tail
            # starts at the ship-request step.
            return self._page_server_tail(page, pages, write)
        return None

    def _page_server_free_net_tail(self, outcome, page, pages, write: bool):
        """Finish a free-network object access from its first disk miss.

        The first page's round trip is already counted by the caller.
        """
        client_cache = self.client_cache
        network = self.network
        memory = self.memory
        prefetched = self._prefetched_unused
        round_trip_bytes = self._round_trip_bytes
        yield from self._miss_io(outcome, page)
        for page in pages:
            if client_cache is not None:
                if client_cache.access(page, False).hit:
                    self.client_hits += 1
                    continue
                self.client_misses += 1
            network.messages += 2
            network.bytes_sent += round_trip_bytes
            outcome = memory.access(page, write)
            if not outcome.hit:
                yield from self._miss_io(outcome, page)
            elif page in prefetched:
                prefetched.discard(page)
                self.prefetch_hits += 1

    def _page_server_tail(self, page, pages, write: bool):
        """Ship the remaining pages over the (finite) network.

        The whole simulation funnels through this loop on the page-server
        class, so the network transfer's three commands are yielded here
        instead of through a ``_timed_transfer`` generator per message,
        with the exact counter updates that generator performs.  The
        server-side buffer access runs in this frame too; only a miss
        leaves it, for :meth:`_miss_io`.
        """
        client_cache = self.client_cache
        network = self.network
        message_bytes = self.config.message_bytes
        pgsize = self.config.pgsize
        memory_access = self.memory.access
        prefetched = self._prefetched_unused
        request_medium = network._request_medium
        release_medium = network._release_medium
        holds = network._holds
        msg_hold = holds.get(message_bytes)
        if msg_hold is None:
            msg_hold = holds[message_bytes] = Hold(
                network.transfer_ticks(message_bytes)
            )
        msg_time = msg_hold.duration
        page_hold = holds.get(pgsize)
        if page_hold is None:
            page_hold = holds[pgsize] = Hold(network.transfer_ticks(pgsize))
        page_time = page_hold.duration
        medium = network.medium
        medium_inline = medium.try_acquire_inline
        medium_release = medium.release_inline
        while True:
            network.messages += 1
            network.bytes_sent += message_bytes
            network.busy_ticks += msg_time
            if not medium_inline():
                yield request_medium
            yield msg_hold
            if not medium_release():
                yield PARK
            outcome = memory_access(page, write)
            if not outcome.hit:
                yield from self._miss_io(outcome, page)
            elif page in prefetched:
                prefetched.discard(page)
                self.prefetch_hits += 1
            network.messages += 1
            network.bytes_sent += pgsize
            network.busy_ticks += page_time
            if not medium_inline():
                yield request_medium
            yield page_hold
            if not medium_release():
                yield PARK
            for page in pages:
                if client_cache is not None:
                    if client_cache.access(page, False).hit:
                        self.client_hits += 1
                        continue
                    self.client_misses += 1
                break
            else:
                return

    def notify_reorganized(self) -> None:
        super().notify_reorganized()
        if self.client_cache is not None:
            self.client_cache.invalidate_all()


class ObjectServer(Architecture):
    """SYSCLASS = Object Server (ORION, ONTOS): objects ship to clients."""

    name = "object_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache: Optional[BufferManager] = self._object_client_cache()

    def access_object_nowait(self, oid: int, write: bool):
        if self.client_cache is not None:
            if self.client_cache.access(oid, False).hit:
                self.client_hits += 1
                return None
            self.client_misses += 1
        network = self.network
        if network.infinite:
            network.transfer_nowait(self.config.message_bytes)
            step = self._server_object_access_nowait(oid, write)
            if step is None:
                network.transfer_nowait(self.db.size(oid))
                return None
            return self._object_server_finish(step, oid)
        return self._object_server_tail(oid, write)

    def _object_server_finish(self, step, oid: int):
        yield from step
        self.network.transfer_nowait(self.db.size(oid))

    def _object_server_tail(self, oid: int, write: bool):
        """The access over a throttled network: request, server, object."""
        network = self.network
        yield from network.transfer_nowait(self.config.message_bytes)
        step = self._server_object_access_nowait(oid, write)
        if step is not None:
            yield from step
        yield from network.transfer_nowait(self.db.size(oid))

    def notify_reorganized(self) -> None:
        super().notify_reorganized()
        if self.client_cache is not None:
            self.client_cache.invalidate_all()


class DBServer(Architecture):
    """SYSCLASS = DB Server: transactions ship, data stays put."""

    name = "db_server"

    def begin_transaction_nowait(self):
        return self.network.transfer_nowait(self.config.message_bytes)

    def end_transaction_nowait(self):
        return self.network.transfer_nowait(self.config.message_bytes)

    def access_object_nowait(self, oid: int, write: bool):
        return self._server_object_access_nowait(oid, write)


class ClusterArchitecture(Architecture):
    """Shared plumbing of the sharded (multi-server) organizations.

    The server side is a :class:`~repro.core.cluster.Cluster`: every
    page access routes to its owning node through the shard router, and
    all disk work happens on that node's private disk.  Like the
    single-server classes, the nowait faces return ``None`` when the
    whole access resolved in place (client-cache hits, buffer hits that
    owe no network time) — the PR-2 fast-path contract, extended per
    node.
    """

    def __init__(self, *args, cluster=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if cluster is None:
            raise ValueError(f"{type(self).__name__} needs a Cluster instance")
        self.cluster = cluster


class ClusterPageServer(ClusterArchitecture):
    """Sharded page server: a smart driver routes each page directly.

    The client knows the placement (as cluster drivers do) and sends
    every page request straight to a serving replica — reads balance
    round-robin over the replica set, writes hit the primary and
    propagate to the other replicas across the interconnect.  The
    client network books the same per-page request/response round trip
    as the single-server :class:`PageServer`.
    """

    name = "cluster_page_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache: Optional[BufferManager] = self._page_client_cache()

    def access_object_nowait(self, oid: int, write: bool):
        client_cache = self.client_cache
        network = self.network
        cluster = self.cluster
        pages = iter(self.object_manager.pages_of(oid))
        if network.infinite:
            # Free client network: the loop stays synchronous until a
            # page service owes simulated time (disk misses, throttled
            # interconnect transfers, crash downtime, quorum waits),
            # and that remainder rides the returned step.
            round_trip_bytes = self.config.message_bytes + self.config.pgsize
            for page in pages:
                if client_cache is not None:
                    if client_cache.access(page, False).hit:
                        self.client_hits += 1
                        continue
                    self.client_misses += 1
                network.messages += 2
                network.bytes_sent += round_trip_bytes
                step = cluster.serve_page(page, write)
                if step is not None:
                    return self._free_fabric_tail(step, pages, write)
            return None
        if client_cache is not None:
            # Throttled client network: client-cache hits still resolve
            # in place; hand off at the first page that must travel.
            for page in pages:
                if client_cache.access(page, False).hit:
                    self.client_hits += 1
                    continue
                self.client_misses += 1
                return self._timed_tail(page, pages, write)
            return None
        return self._timed_access(pages, write)

    def _free_fabric_tail(self, step, pages, write: bool):
        """Finish a free-network object access from its first timed page."""
        client_cache = self.client_cache
        network = self.network
        cluster = self.cluster
        round_trip_bytes = self.config.message_bytes + self.config.pgsize
        yield from step
        for page in pages:
            if client_cache is not None:
                if client_cache.access(page, False).hit:
                    self.client_hits += 1
                    continue
                self.client_misses += 1
            network.messages += 2
            network.bytes_sent += round_trip_bytes
            step = cluster.serve_page(page, write)
            if step is not None:
                yield from step

    def _timed_page(self, page: int, write: bool):
        """One page's round trip over the throttled client network."""
        network = self.network
        cluster = self.cluster
        step = network.transfer_nowait(self.config.message_bytes)
        if step is not None:
            yield from step
        step = cluster.serve_page(page, write)
        if step is not None:
            yield from step
        step = network.transfer_nowait(self.config.pgsize)
        if step is not None:
            yield from step

    def _timed_tail(self, page: int, pages, write: bool):
        """Finish a throttled access whose first page already missed the
        client cache (the caller booked that miss)."""
        yield from self._timed_page(page, write)
        yield from self._timed_access(pages, write)

    def _timed_access(self, pages, write: bool):
        """Per-page round trips over the throttled client network."""
        client_cache = self.client_cache
        for page in pages:
            if client_cache is not None:
                if client_cache.access(page, False).hit:
                    self.client_hits += 1
                    continue
                self.client_misses += 1
            yield from self._timed_page(page, write)

    def notify_reorganized(self) -> None:
        super().notify_reorganized()
        if self.client_cache is not None:
            self.client_cache.invalidate_all()


class ClusterObjectServer(ClusterArchitecture):
    """Sharded object server: a balancer picks a coordinator per object.

    The client is placement-blind: a front-end balancer hands each
    object request to a coordinator node round-robin.  The coordinator
    assembles the object — pages it owns are served locally, remotely
    owned pages cross the interconnect (request out, page back) — then
    the object's bytes ship to the client, ORION-style.  Forwarding
    cost therefore scales with ``(servers - 1) / servers``, the classic
    thin-client cluster trade the scenario catalog measures.
    """

    name = "cluster_object_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache: Optional[BufferManager] = self._object_client_cache()

    def access_object_nowait(self, oid: int, write: bool):
        if self.client_cache is not None:
            if self.client_cache.access(oid, False).hit:
                self.client_hits += 1
                return None
            self.client_misses += 1
        cluster = self.cluster
        span = self.object_manager.pages_of(oid)
        home = cluster.next_coordinator()
        network = self.network
        if network.infinite:
            network.transfer_nowait(self.config.message_bytes)
            pages = iter(span)
            for page in pages:
                step = cluster.serve_page(page, write, home)
                if step is not None:
                    return self._free_fabric_tail(step, pages, write, home, oid)
            network.transfer_nowait(self.db.size(oid))
            return None
        return self._timed_access(oid, span, write, home)

    def _free_fabric_tail(self, step, pages, write: bool, home: int, oid: int):
        cluster = self.cluster
        yield from step
        for page in pages:
            step = cluster.serve_page(page, write, home)
            if step is not None:
                yield from step
        self.network.transfer_nowait(self.db.size(oid))

    def _timed_access(self, oid: int, span, write: bool, home: int):
        network = self.network
        cluster = self.cluster
        step = network.transfer_nowait(self.config.message_bytes)
        if step is not None:
            yield from step
        for page in span:
            step = cluster.serve_page(page, write, home)
            if step is not None:
                yield from step
        step = network.transfer_nowait(self.db.size(oid))
        if step is not None:
            yield from step

    def notify_reorganized(self) -> None:
        super().notify_reorganized()
        if self.client_cache is not None:
            self.client_cache.invalidate_all()


_ARCHITECTURES: Dict[SystemClass, type] = {
    SystemClass.CENTRALIZED: Centralized,
    SystemClass.PAGE_SERVER: PageServer,
    SystemClass.OBJECT_SERVER: ObjectServer,
    SystemClass.DB_SERVER: DBServer,
}

_CLUSTER_ARCHITECTURES: Dict[SystemClass, type] = {
    SystemClass.PAGE_SERVER: ClusterPageServer,
    SystemClass.OBJECT_SERVER: ClusterObjectServer,
}


def make_architecture(
    sim: "Simulation",
    config: VOODBConfig,
    db: Database,
    object_manager: ObjectManager,
    memory,
    io: "IOSubsystem",
    network: Network,
    prefetcher: PrefetchPolicy,
    cluster=None,
) -> Architecture:
    """Instantiate the strategy selected by ``config.sysclass``.

    With a :class:`~repro.core.cluster.Cluster` the sharded variant of
    the system class is built instead (page/object server only — the
    config layer rejects other classes in cluster mode).
    """
    if cluster is not None:
        cls = _CLUSTER_ARCHITECTURES.get(config.sysclass)
        if cls is None:
            raise ValueError(
                f"no cluster variant for system class {config.sysclass.value!r}"
            )
        return cls(
            sim,
            config,
            db,
            object_manager,
            memory,
            io,
            network,
            prefetcher,
            cluster=cluster,
        )
    cls = _ARCHITECTURES[config.sysclass]
    return cls(sim, config, db, object_manager, memory, io, network, prefetcher)
