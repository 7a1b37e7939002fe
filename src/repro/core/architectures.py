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

The shared server-side path (memory access, dirty write-back, swap
traffic, the read itself, prefetching) lives in the base class so that
architectures differ *only* in where requests travel — which is the
point of the paper's genericity claim.
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
    def access_object(self, oid: int, write: bool):
        """Process-generator performing one object access end to end."""
        step = self.access_object_nowait(oid, write)
        if step is not None:
            yield from step

    @abstractmethod
    def access_object_nowait(self, oid: int, write: bool):
        """One object access, synchronous when no simulated time passes.

        This is the face subclasses implement (and the one the
        Transaction Manager calls): return ``None`` when the access
        completed entirely in place (client/buffer hits, free network) —
        the dominant outcome once the working set is resident — or a
        generator to ``yield from`` for the part that needs the event
        loop.  Pure cache hits then cost zero generator round-trips.
        :meth:`access_object` is a convenience wrapper over this.
        """

    def begin_transaction(self):
        """Hook before a transaction's accesses (network for DB server)."""
        step = self.begin_transaction_nowait()
        if step is not None:
            yield from step

    def end_transaction(self):
        """Hook after a transaction's accesses."""
        step = self.end_transaction_nowait()
        if step is not None:
            yield from step

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
    def _server_page_access(self, page: int, write: bool):
        """Figure 4's Buffering Manager → I/O Subsystem chain for a page."""
        outcome = self.memory.access(page, write)
        if outcome.hit:
            if page in self._prefetched_unused:
                self._prefetched_unused.discard(page)
                self.prefetch_hits += 1
            return
        yield from self._miss_io(outcome, page)

    def _miss_io(self, outcome, page: int):
        """The disk traffic one buffer miss produced (writebacks, swap,
        the read itself, prefetching)."""
        io = self.io
        disk = io.disk
        disk_inline = disk.try_acquire_inline
        disk_release = disk.release_inline
        for victim in outcome.writeback_pages:
            if not disk_inline():
                yield io._request_disk
            yield io.write_hold(victim)
            if not disk_release():
                yield PARK
        for __ in outcome.swap_out_pages:
            if not disk_inline():
                yield io._request_disk
            yield io.swap_write_hold()
            if not disk_release():
                yield PARK
        if outcome.swap_read:
            if not disk_inline():
                yield io._request_disk
            yield io.swap_read_hold()
            if not disk_release():
                yield PARK
        read_page = outcome.read_page
        if read_page is not None:
            # io.read_page, inlined: this is once-per-buffer-miss.
            if not disk_inline():
                yield io._request_disk
            yield io.read_hold(read_page)
            if not disk_release():
                yield PARK
            if self._prefetch_enabled:
                yield from self._prefetch_after_miss(page)

    def _prefetch_after_miss(self, page: int):
        admit = self._admit_prefetched
        if admit is None:
            return  # prefetching needs a buffer; the VM model has none
        io = self.io
        disk = io.disk
        disk_inline = disk.try_acquire_inline
        disk_release = disk.release_inline
        for extra in self.prefetcher.pages_after_miss(
            page, self.object_manager.total_pages
        ):
            outcome = admit(extra)
            if outcome is None:
                continue
            for victim in outcome.writeback_pages:
                if not disk_inline():
                    yield io._request_disk
                yield io.write_hold(victim)
                if not disk_release():
                    yield PARK
            if not disk_inline():
                yield io._request_disk
            yield io.read_hold(extra)
            if not disk_release():
                yield PARK
            self._prefetched_unused.add(extra)
            self.prefetched_pages += 1

    def _server_object_access(self, oid: int, write: bool):
        """Fetch every page of the object, then run the swizzle hook."""
        for page in self.object_manager.pages_of(oid):
            yield from self._server_page_access(page, write)
        io = self.io
        disk_inline = io.disk.try_acquire_inline
        disk_release = io.disk.release_inline
        for __ in self.memory.note_object_access(oid):
            if not disk_inline():
                yield io._request_disk
            yield io.swap_write_hold()
            if not disk_release():
                yield PARK

    def _server_object_access_nowait(self, oid: int, write: bool):
        """Synchronous server-side object access, handing off on a miss.

        Walks the object's pages through the memory model in place; on
        the first miss it returns a generator that finishes that miss's
        disk work and the remaining pages.  Returns ``None`` when every
        page hit (and the swizzle hook owed nothing) — no simulated time
        passed, so there is nothing to yield.
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
            return self._object_access_tail(oid, outcome, page, pages, write)
        notes = memory.note_object_access(oid)
        if notes:
            return self._swap_notes(notes)
        return None

    def _object_access_tail(self, oid, outcome, page, pages, write):
        """Finish an object access from its first missing page on.

        The miss traffic (write-backs, swap, the read) and the walk over
        the object's remaining pages run in this single frame — the VM
        model's fault storms otherwise pay a ``_miss_io`` +
        ``_server_page_access`` generator pair per faulted page.  The
        command sequence is exactly the delegated formulation's.
        """
        io = self.io
        request_disk = io._request_disk
        disk = io.disk
        disk_inline = disk.try_acquire_inline
        disk_release = disk.release_inline
        memory_access = self.memory.access
        prefetched = self._prefetched_unused
        prefetching = self._prefetch_enabled
        while True:
            for victim in outcome.writeback_pages:
                if not disk_inline():
                    yield request_disk
                yield io.write_hold(victim)
                if not disk_release():
                    yield PARK
            for __ in outcome.swap_out_pages:
                if not disk_inline():
                    yield request_disk
                yield io.swap_write_hold()
                if not disk_release():
                    yield PARK
            if outcome.swap_read:
                if not disk_inline():
                    yield request_disk
                yield io.swap_read_hold()
                if not disk_release():
                    yield PARK
            read_page = outcome.read_page
            if read_page is not None:
                if not disk_inline():
                    yield request_disk
                yield io.read_hold(read_page)
                if not disk_release():
                    yield PARK
                if prefetching:
                    yield from self._prefetch_after_miss(page)
            for page in pages:
                outcome = memory_access(page, write)
                if outcome.hit:
                    if page in prefetched:
                        prefetched.discard(page)
                        self.prefetch_hits += 1
                    continue
                break
            else:
                break
        for __ in self.memory.note_object_access(oid):
            if not disk_inline():
                yield request_disk
            yield io.swap_write_hold()
            if not disk_release():
                yield PARK

    def _swap_notes(self, notes):
        io = self.io
        disk_inline = io.disk.try_acquire_inline
        disk_release = io.disk.release_inline
        for __ in notes:
            if not disk_inline():
                yield io._request_disk
            yield io.swap_write_hold()
            if not disk_release():
                yield PARK

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
        round_trip_bytes = self.config.message_bytes + self.config.pgsize
        io = self.io
        prefetching = self._prefetch_enabled
        disk = io.disk
        if (
            not outcome.writeback_pages
            and not outcome.swap_out_pages
            and not outcome.swap_read
            and outcome.read_page is not None
            and not prefetching
        ):
            # Plain first miss (the common case), inlined.
            if not disk.try_acquire_inline():
                yield io._request_disk
            yield io.read_hold(outcome.read_page)
            if not disk.release_inline():
                yield PARK
        else:
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
                if (
                    not outcome.writeback_pages
                    and not outcome.swap_out_pages
                    and not outcome.swap_read
                    and outcome.read_page is not None
                    and not prefetching
                ):
                    # Plain read miss (the common case), inlined.
                    if not io.disk.try_acquire_inline():
                        yield io._request_disk
                    yield io.read_hold(outcome.read_page)
                    if not io.disk.release_inline():
                        yield PARK
                else:
                    yield from self._miss_io(outcome, page)
            elif page in prefetched:
                prefetched.discard(page)
                self.prefetch_hits += 1

    def _page_server_tail(self, page, pages, write: bool):
        """Ship the remaining pages over the (finite) network.

        The whole simulation funnels through this loop on the page-server
        class, so the per-page collaborators are inlined: the network
        transfer's three commands are yielded here instead of through a
        ``_timed_transfer`` generator per message, and the server-side
        page access runs in this frame with the plain read miss (no
        writebacks, no swap, no prefetcher) spelled out.  Counter
        updates and float accumulations are the exact sequence the
        delegated formulation performs.
        """
        client_cache = self.client_cache
        network = self.network
        message_bytes = self.config.message_bytes
        pgsize = self.config.pgsize
        memory_access = self.memory.access
        prefetched = self._prefetched_unused
        prefetching = self._prefetch_enabled
        io = self.io
        request_disk = io._request_disk
        release_disk = io._release_disk
        read_hold = io.read_hold
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
        disk = io.disk
        disk_inline = disk.try_acquire_inline
        disk_release = disk.release_inline
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
            if outcome.hit:
                if page in prefetched:
                    prefetched.discard(page)
                    self.prefetch_hits += 1
            elif (
                not outcome.writeback_pages
                and not outcome.swap_out_pages
                and not outcome.swap_read
                and outcome.read_page is not None
                and not prefetching
            ):
                # Plain read miss (the common case), inlined.
                if not disk_inline():
                    yield request_disk
                yield read_hold(outcome.read_page)
                if not disk_release():
                    yield PARK
            else:
                yield from self._miss_io(outcome, page)
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
        network = self.network
        step = network.transfer_nowait(self.config.message_bytes)
        if step is not None:
            yield from step
        yield from self._server_object_access(oid, write)
        step = network.transfer_nowait(self.db.size(oid))
        if step is not None:
            yield from step

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
