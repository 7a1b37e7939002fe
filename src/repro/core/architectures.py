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

Each strategy walks a transaction's whole access trace in one generator,
:meth:`Architecture.access_steps`.  The walk does every in-place part of
an access itself (client-cache hits, round trips on a free network,
server-buffer hits, prefetch-hit bookkeeping) and yields only what owes
simulated time (a miss's disk work, a throttled crossing, a node's timed
page service) for the Transaction Manager to ``yield from``; it goes on
once that step has run.  A timed command therefore never crosses the
walk's frame, and an access that owes no time costs no generator.

The single-server walks (:meth:`Architecture._server_steps` and the
page server's free network) resolve a *read* of a resident server page
without calling the memory model: one test on its ``resident`` table,
one call of its ``touch`` hook and one more hit in a local tally (the
memory-model contract of :mod:`repro.core.buffering`).  Writes and
misses go through ``memory.access``.  The tally is added to
``memory.hits`` (on the free network also to the round-trip counters)
before each yield and at the walk's end, so every counter is exact
whenever another process can run.

Every strategy serves a buffer miss on one path, ``_miss_io``, which
the base class binds once:
:meth:`~repro.core.io_subsystem.IOSubsystem.serve_miss` (dirty
write-backs, swap traffic, the read itself), followed by the
prefetcher's staging when PREFETCH is set.
Architectures therefore differ *only* in where requests travel — the
point of the paper's genericity claim — while the I/O Subsystem alone
decides what a disk access costs (Figure 5).

Requests and responses likewise cross the client network only through
:meth:`~repro.core.network.Network.transfer_nowait`.  On a free network
(NETTHRU = +inf) a transfer only counts and returns ``None``, so each
client/server class runs one walk on both networks; on a throttled one
the server is reached only after the request has crossed, so a
throttled page server reads its buffer through ``access`` alone.
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
        self._prefetched_unused: set[int] = set()
        #: Whether PREFETCH is set: only then do the walks look for a
        #: hit on a prefetched page.
        self._prefetching = not isinstance(prefetcher, NoPrefetch)
        #: What the walks yield for one demand miss: the I/O Subsystem's
        #: service alone, or followed by prefetching.  The cluster
        #: classes have no server ``io``: their nodes serve the misses.
        if self._prefetching:
            self._miss_io = self._miss_then_prefetch
        elif io is not None:
            self._miss_io = io.serve_miss
        # Counters
        self.prefetched_pages = 0
        self.prefetch_hits = 0

    # ------------------------------------------------------------------
    @abstractmethod
    def access_steps(self, accesses):
        """Walk a transaction's access trace, yielding only what owes time.

        ``accesses`` holds the trace's ``(oid, write)`` pairs, or is the
        Clustering Manager's generator over them.  Each yielded step is
        a generator for the Transaction Manager to ``yield from``; the
        walk continues once it has run, so an all-hit trace yields
        nothing.

        A walk reads ``object_manager.page_ranges`` when an object's
        access begins and again after each step it yields: another
        transaction's reorganization can install a new table while the
        walk is suspended.  An object's remaining pages keep the range
        they started with.
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
    def _miss_then_prefetch(self, outcome):
        """One demand miss's disk work
        (:meth:`IOSubsystem.serve_miss`), then the prefetcher's pages,
        each served like a miss.

        A prefetched page that was evicted unused is demand-read now, so
        its next hit is no prefetch hit.
        """
        page = outcome.read_page
        prefetched = self._prefetched_unused
        prefetched.discard(page)
        serve_miss = self.io.serve_miss
        yield from serve_miss(outcome)
        admit = self.memory.admit_prefetched
        for extra in self.prefetcher.pages_after_miss(
            page, self.object_manager.total_pages
        ):
            outcome = admit(extra)
            if outcome is None:
                continue
            yield from serve_miss(outcome)
            prefetched.add(extra)
            self.prefetched_pages += 1

    def _server_steps(self, accesses):
        """The server-page walk: each object's pages through the memory
        model, yielding each miss's ``_miss_io``; a read of a
        ``resident`` page is resolved in place (see the module
        docstring).

        Centralized and DB-server runs walk their traces with it; the
        object server runs it for each object's server part.
        """
        object_manager = self.object_manager
        memory = self.memory
        memory_access = memory.access
        resident = memory.resident
        touch = memory.touch
        miss_io = self._miss_io
        prefetching = self._prefetching
        prefetched = self._prefetched_unused
        page_ranges = object_manager.page_ranges
        hits = 0  # read hits not yet added to memory.hits
        for oid, write in accesses:
            for page in page_ranges[oid]:
                if not write and page in resident:
                    touch(page)
                    hits += 1
                else:
                    outcome = memory_access(page, write)
                    if not outcome.hit:
                        if hits:
                            memory.hits += hits
                            hits = 0
                        yield miss_io(outcome)
                        page_ranges = object_manager.page_ranges
                        continue
                if prefetching and page in prefetched:
                    prefetched.discard(page)
                    self.prefetch_hits += 1
        if hits:
            memory.hits += hits

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
    access_steps = Architecture._server_steps


class PageServer(Architecture):
    """SYSCLASS = Page Server (O2, ObjectStore): pages ship to clients."""

    name = "page_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache = self._page_client_cache()

    def access_steps(self, accesses):
        object_manager = self.object_manager
        client_cache = self.client_cache
        network = self.network
        transfer = network.transfer_nowait
        free = network.infinite
        memory = self.memory
        memory_access = memory.access
        resident = memory.resident
        touch = memory.touch
        miss_io = self._miss_io
        prefetching = self._prefetching
        prefetched = self._prefetched_unused
        message_bytes = self.config.message_bytes
        pgsize = self.config.pgsize
        round_trip_bytes = message_bytes + pgsize
        page_ranges = object_manager.page_ranges
        hits = 0  # free-network read hits not yet booked
        for oid, write in accesses:
            for page in page_ranges[oid]:
                if client_cache is not None and client_cache.access(page, False).hit:
                    continue
                if free:
                    # Table 4's NETTHRU = +inf: the request arrives at
                    # once.  This is the model's inner loop, so a read of
                    # a resident page is resolved here and only tallied,
                    # as a buffer hit and a round trip.
                    if not write and page in resident:
                        touch(page)
                        hits += 1
                        if prefetching and page in prefetched:
                            prefetched.discard(page)
                            self.prefetch_hits += 1
                        continue
                    outcome = memory_access(page, write)
                request = transfer(message_bytes)
                if request is not None:
                    # A throttled request crosses before the server
                    # buffer is read.
                    yield request
                    outcome = memory_access(page, write)
                if not outcome.hit:
                    if hits:
                        memory.hits += hits
                        network.messages += 2 * hits
                        network.bytes_sent += hits * round_trip_bytes
                        hits = 0
                    yield miss_io(outcome)
                elif prefetching and page in prefetched:
                    prefetched.discard(page)
                    self.prefetch_hits += 1
                response = transfer(pgsize)
                if response is not None:
                    yield response
                page_ranges = object_manager.page_ranges
        if hits:
            memory.hits += hits
            network.messages += 2 * hits
            network.bytes_sent += hits * round_trip_bytes


class ObjectServer(Architecture):
    """SYSCLASS = Object Server (ORION, ONTOS): objects ship to clients."""

    name = "object_server"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.client_cache = self._object_client_cache()

    def access_steps(self, accesses):
        client_cache = self.client_cache
        transfer = self.network.transfer_nowait
        message_bytes = self.config.message_bytes
        size = self.db.size
        server_steps = self._server_steps
        for access in accesses:
            oid = access[0]
            if client_cache is not None and client_cache.access(oid, False).hit:
                continue
            request = transfer(message_bytes)
            if request is not None:
                yield request
            yield from server_steps((access,))
            # The object ships after the server work: a concurrent OCB
            # delete can change its size meanwhile.
            response = transfer(size(oid))
            if response is not None:
                yield response


class DBServer(Architecture):
    """SYSCLASS = DB Server: transactions ship, data stays put."""

    name = "db_server"

    def begin_transaction_nowait(self):
        return self.network.transfer_nowait(self.config.message_bytes)

    def end_transaction_nowait(self):
        return self.network.transfer_nowait(self.config.message_bytes)

    access_steps = Architecture._server_steps


class ClusterArchitecture(Architecture):
    """Shared plumbing of the sharded (multi-server) organizations.

    The server side is a :class:`~repro.core.cluster.Cluster`: every
    page access routes to its owning node through the shard router, and
    all disk work happens on that node's private disk.  Like the
    single-server classes, the walks yield no step for an access that
    resolves in place (client-cache hits, node-buffer hits that owe no
    network time).
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

    def access_steps(self, accesses):
        object_manager = self.object_manager
        client_cache = self.client_cache
        transfer = self.network.transfer_nowait
        serve_page = self.cluster.serve_page
        message_bytes = self.config.message_bytes
        pgsize = self.config.pgsize
        page_ranges = object_manager.page_ranges
        for oid, write in accesses:
            for page in page_ranges[oid]:
                if client_cache is not None and client_cache.access(page, False).hit:
                    continue
                request = transfer(message_bytes)
                if request is None:
                    # Free client network: the request and the response
                    # are booked around the page service, and only the
                    # node's step (disk misses, a throttled interconnect,
                    # crash downtime, quorum waits) can owe time.
                    step = serve_page(page, write)
                    transfer(pgsize)
                    if step is None:
                        continue
                    yield step
                else:
                    # The node serves the page once the request arrived.
                    yield request
                    step = serve_page(page, write)
                    if step is not None:
                        yield step
                    yield transfer(pgsize)
                page_ranges = object_manager.page_ranges


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

    def access_steps(self, accesses):
        client_cache = self.client_cache
        cluster = self.cluster
        serve_page = cluster.serve_page
        transfer = self.network.transfer_nowait
        message_bytes = self.config.message_bytes
        size = self.db.size
        for oid, write in accesses:
            if client_cache is not None and client_cache.access(oid, False).hit:
                continue
            pages = self.object_manager.page_ranges[oid]
            home = cluster.next_coordinator()
            request = transfer(message_bytes)
            if request is not None:
                yield request
            for page in pages:
                step = serve_page(page, write, home)
                if step is not None:
                    yield step
            response = transfer(size(oid))
            if response is not None:
                yield response


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
