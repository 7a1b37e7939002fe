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

Requests and responses likewise cross the client network only through
:meth:`~repro.core.network.Network.transfer_nowait`.  On a free network
(NETTHRU = +inf) a transfer only counts and returns ``None``, so each
client/server class runs one access loop and one tail on both networks;
on a throttled one the server is reached only after the request has
crossed.  The page server's free-network hit loop, the model's inner
loop, books its round trips in place.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional

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
    #: the client-side page or object cache, when the class has one
    client_cache: Optional[BufferManager] = None

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
        self._admit_prefetched = getattr(memory, "admit_prefetched", None)
        self._prefetch_enabled = (
            self._admit_prefetched is not None
            and not isinstance(prefetcher, NoPrefetch)
        )
        self._prefetched_unused: set[int] = set()
        # Counters
        self.prefetched_pages = 0
        self.prefetch_hits = 0

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
        pages = iter(self.object_manager.page_ranges[oid])
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
        if self.client_cache is not None:
            self.client_cache.invalidate_all()

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
        self.client_cache = self._page_client_cache()
        #: request + page response, booked together by the free-net loop
        self._round_trip_bytes = self.config.message_bytes + self.config.pgsize

    def access_object_nowait(self, oid: int, write: bool):
        client_cache = self.client_cache
        network = self.network
        free = network.infinite
        prefetched = self._prefetched_unused
        pages = iter(self.object_manager.page_ranges[oid])
        for page in pages:
            if client_cache is not None and client_cache.access(page, False).hit:
                continue
            if not free:
                return self._page_server_tail(page, pages, write)
            # Free network (Table 4's NETTHRU = +inf): the request
            # arrives at once.  This is the model's inner loop, so a
            # server-buffer hit books its round trip here in place.
            outcome = self.memory.access(page, write)
            if not outcome.hit:
                return self._page_server_tail(page, pages, write, outcome)
            network.messages += 2
            network.bytes_sent += self._round_trip_bytes
            if page in prefetched:
                prefetched.discard(page)
                self.prefetch_hits += 1
        return None

    def _page_server_tail(self, page, pages, write: bool, outcome=None):
        """Finish an access from its first page that owes simulated time.

        ``page`` has missed the client cache.  On a throttled network its
        request has yet to cross (``outcome`` is ``None``); on a free one
        the access loop has already read the server buffer, which missed.
        A request crosses before the server buffer is read, and a miss
        goes through :meth:`_miss_io`.
        """
        client_cache = self.client_cache
        transfer = self.network.transfer_nowait
        message_bytes = self.config.message_bytes
        pgsize = self.config.pgsize
        memory_access = self.memory.access
        prefetched = self._prefetched_unused
        while True:
            step = transfer(message_bytes)
            if step is not None:
                yield from step
            if outcome is None:
                outcome = memory_access(page, write)
            if not outcome.hit:
                yield from self._miss_io(outcome, page)
            elif page in prefetched:
                prefetched.discard(page)
                self.prefetch_hits += 1
            step = transfer(pgsize)
            if step is not None:
                yield from step
            outcome = None
            for page in pages:
                if client_cache is not None and client_cache.access(page, False).hit:
                    continue
                break
            else:
                return


class ObjectServer(Architecture):
    """SYSCLASS = Object Server (ORION, ONTOS): objects ship to clients."""

    name = "object_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache = self._object_client_cache()

    def access_object_nowait(self, oid: int, write: bool):
        client_cache = self.client_cache
        if client_cache is not None and client_cache.access(oid, False).hit:
            return None
        request = self.network.transfer_nowait(self.config.message_bytes)
        if request is not None:
            return self._object_server_tail(request, None, oid, write)
        step = self._server_object_access_nowait(oid, write)
        if step is not None:
            return self._object_server_tail(None, step, oid, write)
        self.network.transfer_nowait(self.db.size(oid))
        return None

    def _object_server_tail(self, request, step, oid: int, write: bool):
        """Finish an access from the request crossing a throttled
        network, or from the server work a free network's request
        started.  The object ships after the server work: a concurrent
        OCB delete can change its size meanwhile."""
        if request is not None:
            yield from request
            step = self._server_object_access_nowait(oid, write)
        if step is not None:
            yield from step
        response = self.network.transfer_nowait(self.db.size(oid))
        if response is not None:
            yield from response


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
        self.client_cache = self._page_client_cache()

    def access_object_nowait(self, oid: int, write: bool):
        client_cache = self.client_cache
        pages = iter(self.object_manager.page_ranges[oid])
        for page in pages:
            if client_cache is not None and client_cache.access(page, False).hit:
                continue
            step = self._round_trip(page, write)
            if step is not None:
                return self._page_tail(step, page, pages, write)
        return None

    def _round_trip(self, page: int, write: bool):
        """Start ``page``'s round trip: request, node service, response.

        On a free client network all three happen in place, and the
        result is the node's step (disk misses, a throttled interconnect,
        crash downtime, quorum waits), ``None`` when it owes no time.  On
        a throttled one the result is the request's crossing: the node
        serves the page only once it has arrived, in :meth:`_page_tail`.
        """
        network = self.network
        request = network.transfer_nowait(self.config.message_bytes)
        if request is not None:
            return request
        step = self.cluster.serve_page(page, write)
        network.transfer_nowait(self.config.pgsize)
        return step

    def _page_tail(self, step, page: int, pages, write: bool):
        """Finish an access from its first round trip that owes time."""
        client_cache = self.client_cache
        network = self.network
        while True:
            yield from step
            if not network.infinite:
                step = self.cluster.serve_page(page, write)
                if step is not None:
                    yield from step
                yield from network.transfer_nowait(self.config.pgsize)
            for page in pages:
                if client_cache is not None and client_cache.access(page, False).hit:
                    continue
                step = self._round_trip(page, write)
                if step is not None:
                    break
            else:
                return


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
        self.client_cache = self._object_client_cache()

    def access_object_nowait(self, oid: int, write: bool):
        client_cache = self.client_cache
        if client_cache is not None and client_cache.access(oid, False).hit:
            return None
        cluster = self.cluster
        pages = iter(self.object_manager.page_ranges[oid])
        home = cluster.next_coordinator()
        request = self.network.transfer_nowait(self.config.message_bytes)
        if request is not None:
            return self._object_tail(request, pages, write, home, oid)
        for page in pages:
            step = cluster.serve_page(page, write, home)
            if step is not None:
                return self._object_tail(step, pages, write, home, oid)
        self.network.transfer_nowait(self.db.size(oid))
        return None

    def _object_tail(self, step, pages, write: bool, home: int, oid: int):
        """Finish an access from the request crossing a throttled network,
        or from the first page service that owes time on a free one."""
        cluster = self.cluster
        yield from step
        for page in pages:
            step = cluster.serve_page(page, write, home)
            if step is not None:
                yield from step
        response = self.network.transfer_nowait(self.db.size(oid))
        if response is not None:
            yield from response


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
    config layer rejects other classes in cluster mode).  It gets no
    server ``memory`` or ``io``: the nodes own those, and the cluster
    serves every page.
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
            None,
            None,
            network,
            prefetcher,
            cluster=cluster,
        )
    cls = _ARCHITECTURES[config.sysclass]
    return cls(sim, config, db, object_manager, memory, io, network, prefetcher)
