"""Multi-server cluster topology: sharded placement over N server nodes.

VOODB §3.3 notes the generic model "can also be used to model [...]
multiserver hybrid systems (like GemStone)"; this module is that
extension.  A :class:`Cluster` instantiates the server side of Figure 4
once per node — each :class:`ClusterNode` owns its own Buffering
Manager, I/O Subsystem (a private capacity-1 disk) and object lock
table — and a deterministic :class:`ShardRouter` places every disk page
on its owning node(s).

Placement strategies (Table-3 style codes on
:class:`~repro.core.parameters.ClusterConfig`):

* ``hash`` — Fibonacci hashing over the page id scatters pages
  uniformly; contiguous pages land on different nodes, so per-node
  sequential I/O mostly disappears (the classic hash-sharding trade);
* ``range`` — contiguous page runs stay on one node, preserving the
  Figure 5 contiguity shortcut per node at the cost of skew exposure.

``replication`` stores every page on that many consecutive nodes:
reads balance round-robin across the replica set, writes apply at the
primary and propagate the page image to the other replicas across the
**inter-server network** — a dedicated :class:`~repro.core.network.Network`
medium whose throughput (``interconnect_mbps``) contends exactly like
the client network.  The object-server organization additionally
assembles multi-node objects at the object's *home* node, paying an
interconnect round trip per remotely owned page.

Locking shards with the data: :class:`ClusterLockManager` routes each
object lock to the lock table of the object's home node, acquiring node
partitions in node order — a total order over ``(home node, oid)``, so
the conservative-2PL deadlock-freedom argument of
:mod:`repro.core.locks` carries over unchanged.  Transactions are
global, so the one MULTILVL scheduler is the Transaction Manager's, as
on a single server.

The model's counter table reads a cluster through one summing view,
:class:`NodeSum`: ``cluster.io``, ``cluster.memory`` and
``cluster.failures`` (and the lock manager's counters) return the sum
of each counter over the nodes, so the nodes pass for one server.

**One page-service pipeline.**  Every page access, whatever the
replication mode and fault plan, runs :meth:`Cluster.serve_page`, whose
stages are composed rather than forked per mode:

1. *route* — the router names the replica set; a write goes to the
   page's (elected) primary, a read balances round-robin across the
   replicas or stays at the object's coordinator when it holds one;
2. *failover* — a read routed to a crashed node moves on around the
   replica ring, or waits out the earliest recovery when the whole set
   is down; a write whose primary is down waits out its recovery, or,
   under the fault layer, triggers a re-election;
3. *consistency target* — async reads consult ``read_quorum`` replicas
   and serve the freshest, falling back to the primary when a session
   guarantee demands it;
4. *serve* — the node's crash and gray probes, the coordinator's
   forwarding round trip, and the buffer access with its miss I/O
   (stretched at a gray node);
5. *propagate or apply* — a sync write installs the image at every
   live replica; an async write bumps the page version and enqueues the
   image on each follower's apply queue.

The result keeps the nowait contract: ``None`` when the access took no
simulated time, otherwise one generator.  Two ordering rules fix the
interleavings:

* on a throttled interconnect, a forwarded (object-server) access
  touches the owner's buffer only once its request message has crossed;
* on a free interconnect, sync replica installs happen at call time,
  so only the write-backs of the victims they evict pass through the
  event loop.

Modes differ in state, not in code.  A node without hazards is never
down, and the fault-layer state starts inactive: no partition, no gray
episode, no elected primaries, no repair cadence.  ``faults_on`` only
switches behaviour where the fault layer really does something else:
the retry ladder instead of skipping a down peer, an election instead
of waiting out a crashed primary, read-repair, the applier's ship
contract, and the final repair drain.

The **consistency spectrum**
(:class:`~repro.core.parameters.ReplicationConfig`) selects how replica
writes propagate: the default ``sync`` mode pays the fan-out inside the
transaction, while ``async`` mode commits at the primary and enqueues
the page image on every successor's FIFO apply queue, drained by a
per-node *applier* process (interconnect ship + optional replay delay)
— producing ``replica_lag_ms``/``stale_reads``/``apply_queue_peak``.
Quorum writes wait for ``write_quorum − 1`` applier acks.  Failure
injection composes per node (independent hazard streams).

The **fault-tolerance layer**
(:class:`~repro.core.failures.FaultConfig` /
:class:`~repro.core.failures.RetryConfig`) adds the degraded-mode
fault kinds and the recovery machinery on top:

* *network partitions* cut the interconnect links between node groups
  for a heal time (sampled by thinning on a dedicated ``partitions``
  stream);
* *gray failures* put a node into a degraded mode that multiplies its
  disk and interconnect service times (per-node ``gray-{i}`` streams);
* every remote operation — quorum-read consultations, replica ships,
  coordinator fetches — honours the **timeout/retry/backoff contract**
  and abandons unresponsive peers instead of blocking
  (``remote_timeouts``/``remote_retries``/``abandoned_reads``);
* when a page's primary crashes or is partitioned away from the
  majority of its replica set, the freshest reachable replica is
  **promoted** after an election delay and writes redirect to it
  (replacing the write-blocking recovery wait); the old primary
  catches up through the version-guarded apply path;
* a periodic **anti-entropy** process Merkle-style compares page
  versions with reachable peers and back-fills stale copies over the
  interconnect, and quorum reads **read-repair** divergent replicas
  they observe.

Each fault-layer rule is written once: a hazard draw is a
:class:`~repro.core.failures.HazardClock` probe (the cluster's
partition clock, each node's gray clock); whether a peer answers is
:meth:`Cluster._next_responsive`; a shipped page image enters a
replica's buffer only through :meth:`Cluster._install` and its version
only through :meth:`Cluster._apply`; and the timed remainder of a page
service is :meth:`Cluster._timed_tail`.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Set, Tuple

from repro.despy.process import Hold, WaitFor
from repro.despy.resource import Gate
from repro.despy.timebase import ms_to_ticks
from repro.core.buffering import BufferManager
from repro.core.failures import (
    FailureInjector,
    HazardClock,
    NoFailures,
    RetryPolicy,
)
from repro.core.io_subsystem import IOSubsystem
from repro.core.locks import LockManager
from repro.core.network import Network
from repro.core.parameters import ALLOWED_PLACEMENTS, VOODBConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation
    from repro.core.object_manager import ObjectManager

#: 64-bit golden-ratio multiplier (Fibonacci hashing): consecutive page
#: ids spread maximally far apart, with no dependence on Python's
#: randomized ``hash()`` — placement must be identical across processes
#: and Python versions for the goldens to reproduce byte-for-byte.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class ShardRouter:
    """Deterministic page -> server placement (hash or range)."""

    def __init__(
        self,
        servers: int,
        placement: str = "hash",
        total_pages: int = 1,
        replication: int = 1,
        seed: int = 0,
    ) -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        if placement not in ALLOWED_PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        if not 1 <= replication <= servers:
            raise ValueError(
                f"replication must be in [1, {servers}], got {replication}"
            )
        if total_pages < 1:
            raise ValueError(f"total_pages must be >= 1, got {total_pages}")
        self.servers = servers
        self.placement = placement
        self.total_pages = total_pages
        self.replication = replication
        self.seed = seed
        #: salt folded into the hash so distinct seeds permute placement
        #: while staying a pure function of the (frozen) config.
        self._salt = (seed * _GOLDEN + 1) & _MASK64
        #: replica sets repeat per page id; memoized (pages are dense).
        self._replica_cache: Dict[int, Tuple[int, ...]] = {}

    def primary(self, page: int) -> int:
        """The node owning the authoritative copy of ``page``."""
        if page < 0:
            raise ValueError(f"page ids are non-negative, got {page}")
        if self.placement == "hash":
            return (((page + 1) * _GOLDEN ^ self._salt) & _MASK64) % self.servers
        if page >= self.total_pages:
            # Pages appended past the initial extent (OCB inserts) land
            # on the last range shard — heap-append semantics.
            return self.servers - 1
        return min(page * self.servers // self.total_pages, self.servers - 1)

    def replicas(self, page: int) -> Tuple[int, ...]:
        """The replica set of ``page``: primary first, then successors."""
        cached = self._replica_cache.get(page)
        if cached is not None:
            return cached
        first = self.primary(page)
        replicas = tuple(
            (first + offset) % self.servers for offset in range(self.replication)
        )
        self._replica_cache[page] = replicas
        return replicas

    def for_servers(
        self, servers: int, total_pages: Optional[int] = None
    ) -> "ShardRouter":
        """A re-sharded router for a new cluster size (same strategy)."""
        return ShardRouter(
            servers,
            self.placement,
            self.total_pages if total_pages is None else total_pages,
            min(self.replication, servers),
            self.seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardRouter {self.placement} servers={self.servers} "
            f"replication={self.replication}>"
        )


class ClusterNode:
    """One server of the cluster: its own buffer, disk and lock table."""

    def __init__(self, sim: "Simulation", config: VOODBConfig, index: int) -> None:
        self.index = index
        self.memory = BufferManager(config, sim.stream(f"memory-{index}"))
        self.io = IOSubsystem(sim, config)
        #: this node's object-lock table.
        self.locks = LockManager(sim, config)
        #: page/object service operations this node performed.
        self.accesses = 0
        # --- extended-mode state (async replication / per-node hazards);
        # inert unless the Cluster wires the corresponding feature on.
        #: this node's hazard injector (node-indexed stream when enabled).
        self.failures = NoFailures()
        #: tick until which this node is crash-recovering (0 = healthy).
        self.down_until = 0
        #: highest page version applied locally (async replication);
        #: written only by :meth:`Cluster._apply`.
        self.applied: Dict[int, int] = {}
        #: pages this node replicates that another owner holds at a
        #: newer version — kept only while anti-entropy runs, as the
        #: repair sweep is its only reader.
        self.behind: Set[int] = set()
        #: shipped page images awaiting local apply:
        #: ``(page, version, enqueued_tick, ack)`` entries, FIFO.
        self.apply_queue: deque = deque()
        #: wakes this node's applier process when the queue refills.
        self.apply_gate: Optional[Gate] = None
        #: deepest the apply queue ever got (backlog indicator).
        self.queue_peak = 0
        # --- fault-layer state (FaultConfig); inert unless wired on.
        #: tick until which this node is gray (degraded mode; 0 = crisp).
        self.gray_until = 0
        #: this node's gray-episode hazard (``gray-{i}`` stream when on).
        self.gray = HazardClock(0, None)
        #: this node's retry-jitter stream (``retry-{i}`` when enabled).
        self.retry_stream = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClusterNode {self.index} accesses={self.accesses}>"


class NodeSum:
    """Counters summed over parts: reading ``x`` returns the sum of
    ``part.x`` over the parts (the nodes' buffers, disks, lock tables or
    hazard injectors), so N nodes pass for one server in the counter
    table.  It answers counters only: a method summed over the nodes is
    not a method.
    """

    def __init__(self, parts: list) -> None:
        self.parts = parts

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return sum(getattr(part, name) for part in self.parts)


class ClusterLockManager(NodeSum):
    """Per-node sharded object lock tables.

    Implements the Transaction Manager's locking interface (the
    ``acquire_all_nowait``/``release_all_nowait`` pair) by partitioning
    the lock set by each object's home node and delegating to the
    node-local :class:`~repro.core.locks.LockManager` tables **strictly
    in node order** — the next partition is not touched until the
    previous one is fully granted, preserving the global acquisition
    order that makes conservative 2PL deadlock-free.  Its counters
    (``waits``, ``wait_ticks``, ...) sum the node tables'.
    """

    def __init__(self, nodes: List[ClusterNode], home_of) -> None:
        super().__init__([node.locks for node in nodes])
        self._home_of = home_of
        #: each executing transaction's partition, from its acquire
        #: sweep to its release sweep.  The page map cannot change in
        #: between: clustering policies are rejected on clusters, and an
        #: insert only appends its own object.
        self._parts_of: Dict[int, List[Tuple[int, List[int]]]] = {}

    # ------------------------------------------------------------------
    # Transaction-side protocol
    # ------------------------------------------------------------------
    def _partition(self, distinct: Collection[int]) -> List[Tuple[int, List[int]]]:
        """Split the lock set by home node, in ascending node order.

        A part keeps the lock set's own order; each node table sorts it
        where order can be observed (a per-oid sweep, which can wait,
        and a per-oid release, which can open gates), so the acquisition
        order is one total order over ``(home node, oid)``.
        """
        home_of = self._home_of
        parts: Dict[int, List[int]] = {}
        for oid in distinct:
            parts.setdefault(home_of(oid), []).append(oid)
        return sorted(parts.items())

    def acquire_all_nowait(self, txn_id: int, distinct: Collection[int], writes: set):
        parts = self._parts_of[txn_id] = self._partition(distinct)
        for position, (node, part) in enumerate(parts):
            step = self.parts[node].acquire_all_nowait(txn_id, part, writes)
            if step is not None:
                return self._acquire_tail(step, txn_id, parts[position + 1 :], writes)
        return None

    def _acquire_tail(self, step, txn_id, rest, writes):
        yield from step
        for node, part in rest:
            step = self.parts[node].acquire_all_nowait(txn_id, part, writes)
            if step is not None:
                yield from step

    def release_all_nowait(self, txn_id: int, distinct: Collection[int]):
        """Release the lock set ``txn_id`` acquired, by the partition its
        acquire sweep made (``distinct`` is that same lock set)."""
        steps = []
        for node, part in self._parts_of.pop(txn_id):
            step = self.parts[node].release_all_nowait(txn_id, part)
            if step is not None:
                steps.append(step)
        return _join(steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusterLockManager nodes={len(self.parts)} "
            f"locked={self.locked_objects}>"
        )


def _chain(steps):
    for step in steps:
        yield from step


def _join(steps: list):
    """One nowait step running ``steps`` in order (``None`` if empty)."""
    if not steps:
        return None
    if len(steps) == 1:
        return steps[0]
    return _chain(steps)


class Cluster:
    """The sharded server side: nodes, router, interconnect, counters."""

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        object_manager: "ObjectManager",
    ) -> None:
        topology = config.cluster
        if not topology.enabled:
            raise ValueError("ClusterConfig.servers must be >= 1 for a Cluster")
        self.sim = sim
        self.config = config
        self.object_manager = object_manager
        self.router = ShardRouter(
            topology.servers,
            topology.placement,
            max(1, object_manager.total_pages),
            topology.replication,
            topology.placement_seed,
        )
        self.nodes = [
            ClusterNode(sim, config, index) for index in range(topology.servers)
        ]
        #: the inter-server medium: same half-duplex contention model as
        #: the client network, throttled by ``interconnect_mbps``.
        self.interconnect = Network(
            sim, config.with_changes(netthru=topology.interconnect_mbps)
        )
        self.io = NodeSum([node.io for node in self.nodes])
        self.memory = NodeSum([node.memory for node in self.nodes])
        self.locks = ClusterLockManager(self.nodes, self.home_of)
        self._page_bytes = config.pgsize
        self._message_bytes = config.message_bytes
        self._rr = 0
        self._coordinator_rr = 0
        # Counters
        self.remote_fetches = 0
        self.replica_reads = 0
        self.replica_writes = 0
        # --- consistency spectrum (ReplicationConfig) -----------------
        self.replication_config = config.replication
        #: async mode ships page images through per-node apply queues
        #: instead of the synchronous fan-out.
        self.async_mode = self.replication_config.is_async
        self._apply_delay = ms_to_ticks(self.replication_config.apply_delay_ms)
        #: public gate for the fault-tolerance layer (partitions, gray
        #: failures, retry contract, elections, anti-entropy).
        self.faults_on = config.faults.enabled
        #: latest version enqueued per page (bumped at the primary write).
        self._version: Dict[int, int] = {}
        #: latest version with a full write-quorum of acks per page.
        self._committed: Dict[int, int] = {}
        #: highest version ever served per page (monotonic-reads floor).
        self._served: Dict[int, int] = {}
        # Extended counters
        self.stale_reads = 0
        self.replica_applies = 0
        self.replica_lag_ticks = 0
        self.read_failovers = 0
        self.write_recovery_waits = 0
        #: page reads served (the stale-rate denominator).
        self.reads_served = 0
        # Fault-layer counters (all stay 0 when the layer is off)
        self.partitions = 0
        self.partition_ticks = 0
        self.gray_episodes = 0
        self.degraded_reads = 0
        self.remote_timeouts = 0
        self.remote_retries = 0
        self.abandoned_reads = 0
        self.elections = 0
        self.promotions = 0
        self.repair_pages = 0
        self.read_repairs = 0
        # Fault-layer state.  With the layer off every rate below is 0,
        # so the state stays inactive: never partitioned, never gray,
        # no elected primaries, no repair cadence.
        fault = config.faults
        self.retry_policy = RetryPolicy(config.retry)
        self._partitions = HazardClock(
            ms_to_ticks(fault.partition_mtbf_ms),
            sim.stream("partitions") if self.faults_on else None,
        )
        self._partition_heal = ms_to_ticks(fault.partition_heal_ms)
        self._gray_heal = ms_to_ticks(fault.gray_heal_ms)
        #: the extra share of each disk operation a gray node pays.
        self._gray_scale = fault.gray_slowdown - 1.0
        self._election_delay = ms_to_ticks(fault.election_delay_ms)
        self._repair_interval = ms_to_ticks(fault.repair_interval_ms)
        #: tick until which the current partition holds (0 = whole).
        self._partition_until = 0
        self._group_of = self._resolve_group_of(fault, topology.servers)
        #: per-page elected primary (absent = the placement primary).
        self._leader: Dict[int, int] = {}
        #: per-page election-in-progress completion tick.
        self._electing: Dict[int, int] = {}
        self._repair_last = 0
        # Gray interconnect drag: the extra ticks one page ship to/from
        # a gray node costs, and whether that slowed ship blows the
        # retry timeout (making gray peers abandonable).
        if math.isinf(topology.interconnect_mbps):
            base_ship = 0
        else:
            ship_ms = self._page_bytes * 1000.0 / (
                topology.interconnect_mbps * (2**20)
            )
            base_ship = ms_to_ticks(ship_ms)
        self._gray_ship_extra = int(base_ship * self._gray_scale)
        self._gray_timeout_prone = (
            base_ship > 0
            and int(base_ship * fault.gray_slowdown) >= self.retry_policy.timeout
        )
        if self.faults_on:
            gray_mtbf = ms_to_ticks(fault.gray_mtbf_ms)
            for node in self.nodes:
                node.gray = HazardClock(gray_mtbf, sim.stream(f"gray-{node.index}"))
                node.retry_stream = sim.stream(f"retry-{node.index}")
        if config.failures.enabled:
            for node in self.nodes:
                node.failures = FailureInjector(
                    sim,
                    config.failures,
                    node.memory,
                    stream_label=f"failures-{node.index}",
                )
                node.io.failures = node.failures
        self.failures = NodeSum([node.failures for node in self.nodes])
        #: the async appliers, which loop forever:
        #: ``VOODBSimulation.close`` closes them once its run is over.
        self.appliers = []
        if self.async_mode:
            for node in self.nodes:
                node.apply_gate = Gate(sim, f"apply-{node.index}")
                applier = self._applier(node)
                self.appliers.append(applier)
                sim.process(applier, name=f"applier-{node.index}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def home_of(self, oid: int) -> int:
        """The node owning an object's first page (its home shard)."""
        return self.router.primary(self.object_manager.page_of(oid))

    def next_coordinator(self) -> int:
        """Round-robin coordinator choice (front-end load balancer).

        The object-server organization hands each object request to a
        coordinator node this way; the counter makes the rotation a
        pure function of the access sequence, so replications replay
        exactly.
        """
        index = self._coordinator_rr % len(self.nodes)
        self._coordinator_rr += 1
        return index

    # ------------------------------------------------------------------
    # Page service
    # ------------------------------------------------------------------
    def serve_page(self, page: int, write: bool, home: Optional[int] = None):
        """Serve one page access; ``None`` when no simulated time passes.

        The single entry point of the page-service pipeline (see the
        module docstring): otherwise the timed remainder — disk misses,
        throttled transfers, crash downtime, elections, quorum waits —
        comes back as one generator.  ``home`` is the assembling node
        (object-server forwarding); ``None`` means the client routed the
        request straight to the serving node (page-server smart driver).
        """
        owners = self.router.replicas(page)
        self._fault_probe()
        if not write:
            return self._read_core(page, owners, home)
        leader = self._leader.get(page, owners[0])
        if self.faults_on:
            if self._leader_impaired(leader, owners, self.sim.now):
                # The primary crashed or lost its majority: elect the
                # freshest reachable replica and write there (no
                # write-blocking recovery wait).
                return self._election_then_write(page, owners, home)
        elif self.nodes[leader].down_until > self.sim.now:
            # Writes queue behind the crashed primary's recovery.
            self.write_recovery_waits += 1
            return self._resume(self.nodes[leader].down_until, page, True, home)
        return self._write_core(page, owners, home, leader)

    # -- Fault-layer state machinery (partitions / gray / retry) -------
    @staticmethod
    def _resolve_group_of(fault, servers: int) -> Dict[int, int]:
        """Node -> partition-side map; () bisects the cluster."""
        groups = fault.partition_groups
        if not groups and fault.partition_mtbf_ms > 0:
            half = (servers + 1) // 2
            groups = (
                tuple(range(half)),
                tuple(range(half, servers)),
            )
        group_of: Dict[int, int] = {}
        for side, members in enumerate(groups):
            for member in members:
                group_of[member] = side
        return group_of

    def _reachable_at(self, src: int, dst: int, when: int) -> bool:
        """Is the src -> dst interconnect link up at tick ``when``?"""
        if src == dst or self._partition_until <= when:
            return True
        return self._group_of.get(src) == self._group_of.get(dst)

    def _next_responsive(self, src: int, dst: int, when: int) -> int:
        """Earliest tick >= ``when`` at which ``dst`` answers ``src``.

        The one outage rule: a peer does not answer within one timeout
        while either end is crashed, while a partition cuts their link,
        or (when its slowed ship time exceeds the timeout) while it is
        gray.  It answers at ``when`` exactly when the result is
        ``when``.
        """
        node = self.nodes[dst]
        resume = when
        if node.down_until > resume:
            resume = node.down_until
        if self.nodes[src].down_until > resume:
            resume = self.nodes[src].down_until
        if self._partition_until > resume and not self._reachable_at(
            src, dst, resume
        ):
            resume = self._partition_until
        if self._gray_timeout_prone and node.gray_until > resume:
            resume = node.gray_until
        return resume

    def _fault_probe(self) -> None:
        """Advance the global fault state at one observation instant.

        Partitions are drawn on the cluster's :class:`HazardClock`
        (outage time is not exposure — the clock skips past the heal),
        and the anti-entropy cadence fires a repair sweep when its
        interval has elapsed.  No standing timer events, so workload
        phases still drain naturally.
        """
        now = self.sim.now
        if self._partitions.fires(now):
            self.partitions += 1
            self._partition_until = now + self._partition_heal
            self.partition_ticks += self._partition_heal
            self._partitions.skip_to(self._partition_until)
        if (
            self._repair_interval
            and now - self._repair_last >= self._repair_interval
        ):
            self._repair_last = now
            self.sim.process(self._repair_sweep(), name="anti-entropy")

    def _gray_probe(self, node: ClusterNode) -> None:
        """Per-node gray-hazard probe; exposure resumes at the heal."""
        now = self.sim.now
        if node.gray.fires(now):
            self.gray_episodes += 1
            node.gray_until = now + self._gray_heal
            node.gray.skip_to(node.gray_until)

    def _retry_outcome(self, src: int, dst: int, rng, start: int):
        """Project the timeout/retry/backoff ladder for src -> dst.

        Returns ``(responded, penalty_ticks)``.  Attempts are projected
        against the known outage schedule (``down_until``, the
        partition heal, gray episodes), so a retry landing after a heal
        succeeds: the storm is exactly as long as the outage forces it
        to be, and the whole ladder is a pure function of the seed
        (jitter comes from the initiating node's retry stream).
        """
        policy = self.retry_policy
        penalty = 0
        attempt = 0
        while self._next_responsive(src, dst, start + penalty) > start + penalty:
            penalty += policy.timeout
            self.remote_timeouts += 1
            if attempt >= policy.max_retries:
                return False, penalty
            penalty += policy.backoff_ticks(attempt, rng)
            self.remote_retries += 1
            attempt += 1
        return True, penalty

    # -- Primary re-election -------------------------------------------
    def _leader_impaired(
        self, leader: int, owners: Tuple[int, ...], now: int
    ) -> bool:
        """Is the current primary unfit to take this write?

        Unfit means crashed, or cut off from a strict majority of its
        replica set by an active partition (writes at a minority-side
        primary would silently diverge).
        """
        if self.nodes[leader].down_until > now:
            return True
        if self._partition_until <= now or len(owners) == 1:
            return False
        reachable = sum(
            1 for owner in owners if self._reachable_at(leader, owner, now)
        )
        return reachable < len(owners) // 2 + 1

    def _elect(self, page: int, owners: Tuple[int, ...], now: int):
        """Choose the replica to promote (``None`` = all replicas down).

        Eligible nodes are alive replicas that reach a strict majority
        of the replica set; when no side holds a majority, any alive
        replica qualifies (the minority keeps limping rather than
        blocking).  Among the eligible, the highest locally applied
        version of the page wins — re-election never promotes a stale
        replica over a fresher reachable one — with ties resolving in
        replica-set order.
        """
        nodes = self.nodes
        alive = [o for o in owners if nodes[o].down_until <= now]
        if not alive:
            return None
        majority = len(owners) // 2 + 1
        eligible = [
            o
            for o in alive
            if sum(
                1
                for peer in owners
                if nodes[peer].down_until <= now
                and self._reachable_at(o, peer, now)
            )
            >= majority
        ] or alive
        best = eligible[0]
        best_version = nodes[best].applied.get(page, 0)
        for candidate in eligible[1:]:
            version = nodes[candidate].applied.get(page, 0)
            if version > best_version:
                best, best_version = candidate, version
        return best

    def _election_then_write(self, page: int, owners: Tuple[int, ...], home):
        """Run (or join) an election for ``page``, then write there."""
        now = self.sim.now
        pending = self._electing.get(page, 0)
        if pending > now:
            # An election for this page is already under way: wait for
            # its verdict rather than holding a second one.
            yield Hold(pending - now)
        else:
            self._electing[page] = now + self._election_delay
            self.elections += 1
            if self._election_delay:
                yield Hold(self._election_delay)
            while True:
                chosen = self._elect(page, owners, self.sim.now)
                if chosen is not None:
                    break
                # Every replica is down: wait out the earliest recovery.
                resume = min(self.nodes[o].down_until for o in owners)
                yield Hold(resume - self.sim.now)
            if chosen != self._leader.get(page, owners[0]):
                self._leader[page] = chosen
                self.promotions += 1
        step = self._write_core(
            page, owners, home, self._leader.get(page, owners[0])
        )
        if step is not None:
            yield from step

    def _read_core(self, page: int, owners: Tuple[int, ...], home):
        now = self.sim.now
        nodes = self.nodes
        # Reads prefer the home node when it holds a replica (object-
        # server locality), otherwise balance round-robin.
        if len(owners) == 1:
            target = owners[0]
        elif home is not None and home in owners:
            target = home
        else:
            target = owners[self._rr % len(owners)]
            self._rr += 1
        if nodes[target].down_until > now:
            start = owners.index(target)
            for offset in range(1, len(owners)):
                candidate = owners[(start + offset) % len(owners)]
                if nodes[candidate].down_until <= now:
                    # Route the read around the crashed node.
                    self.read_failovers += 1
                    target = candidate
                    break
            else:
                # The whole replica set is down: wait out the earliest
                # recovery, then retry the access from scratch.
                self.read_failovers += 1
                resume = min(nodes[index].down_until for index in owners)
                return self._resume(resume, page, False, home)
        probes = 0
        penalty = 0
        repair = None
        if self.async_mode:
            target, probes, penalty, repair = self._consistent_read_target(
                page, owners, target, now
            )
            if target is None:
                # A session guarantee needs the (down) primary.
                primary = self._leader.get(page, owners[0])
                return self._resume(nodes[primary].down_until, page, False, home)
            applied = nodes[target].applied.get(page, 0)
            if applied < self._committed.get(page, 0):
                self.stale_reads += 1
            if applied > self._served.get(page, 0):
                self._served[page] = applied
        node = nodes[target]
        node.accesses += 1
        self.reads_served += 1
        if target != owners[0]:
            self.replica_reads += 1
        # Per-service crash probe at the serving node: a crashed node's
        # buffer is already cold (the injector invalidated it) and the
        # in-flight request rides out the recovery, while later requests
        # route around the node via ``down_until`` until it resumes.
        downtime = node.failures.crash_check()
        if downtime:
            node.down_until = now + downtime
        self._gray_probe(node)
        degraded = node.gray_until > now
        if degraded:
            self.degraded_reads += 1
        forwarded = home is not None and target != home
        if forwarded:
            self.remote_fetches += 1
            if self.faults_on:
                # Coordinator fetch under the retry contract: the home
                # node keeps the request and completes it once the peer
                # answers — an abandoned ladder waits the outage out.
                ok, cost = self._retry_outcome(
                    home, target, nodes[home].retry_stream, now
                )
                if ok:
                    penalty += cost
                else:
                    self.abandoned_reads += 1
                    penalty += (
                        self._next_responsive(home, target, now + cost) - now
                    )
                if degraded:
                    penalty += self._gray_ship_extra
        step = self._assemble(
            node, page, False, degraded, downtime + penalty, forwarded, probes
        )
        if repair is not None:
            step = repair if step is None else _chain((step, repair))
        return step

    def _consistent_read_target(
        self, page: int, owners: Tuple[int, ...], target: int, now: int
    ):
        """Apply quorum consultation and session guarantees to a read.

        Consults ``read_quorum`` replicas in ring order from the routed
        node and serves from the freshest; each extra consultation is a
        version-probe round trip on the interconnect.  Without the fault
        layer a down peer is simply skipped; with it, a peer that does
        not answer within the timeout/backoff ladder is **abandoned**
        (``abandoned_reads``), the ladder's cost lands on the read's
        response time, and consulted replicas behind the freshest
        version are **read-repaired** over the interconnect.

        Returns ``(target, probe_messages, penalty_ticks, repair_step)``;
        ``target`` is ``None`` when a session guarantee can only be met
        by the primary and the primary is down (the caller waits out its
        recovery).
        """
        rep = self.replication_config
        nodes = self.nodes
        probes = 0
        penalty = 0
        repair = None
        if rep.read_quorum > 1 and len(owners) > 1:
            consulted = [target]
            start = owners.index(target)
            for offset in range(1, len(owners)):
                if len(consulted) >= rep.read_quorum:
                    break
                candidate = owners[(start + offset) % len(owners)]
                if not self.faults_on:
                    if nodes[candidate].down_until <= now:
                        consulted.append(candidate)
                    continue
                self._gray_probe(nodes[candidate])
                ok, cost = self._retry_outcome(
                    target, candidate, nodes[target].retry_stream, now + penalty
                )
                penalty += cost
                if ok:
                    consulted.append(candidate)
                else:
                    self.abandoned_reads += 1
            probes = 2 * (len(consulted) - 1)
            best = consulted[0]
            best_version = nodes[best].applied.get(page, 0)
            for candidate in consulted[1:]:
                version = nodes[candidate].applied.get(page, 0)
                if version > best_version:
                    best, best_version = candidate, version
            if self.faults_on:
                stale = [
                    c
                    for c in consulted
                    if nodes[c].applied.get(page, 0) < best_version
                ]
                if stale:
                    self.read_repairs += len(stale)
                    repair = self._read_repair(page, best_version, stale)
            target = best
        required = 0
        if rep.read_your_writes:
            required = self._version.get(page, 0)
        if rep.monotonic_reads:
            floor = self._served.get(page, 0)
            if floor > required:
                required = floor
        if required and nodes[target].applied.get(page, 0) < required:
            # Too stale for the session guarantee: fall back to the
            # (elected) primary, which holds the newest version when up.
            primary = self._leader.get(page, owners[0])
            if nodes[primary].down_until > now:
                return None, probes, penalty, repair
            target = primary
        return target, probes, penalty, repair

    def _read_repair(self, page: int, version: int, stale: List[int]):
        """Back-fill the divergent replicas a quorum read observed."""
        interconnect = self.interconnect
        for index in stale:
            node = self.nodes[index]
            step = interconnect.transfer_nowait(self._page_bytes)
            if step is not None:
                yield from step
            if version > node.applied.get(page, 0):
                self._apply(node, page, version)
                write_back = self._install(node, page)
                if write_back is not None:
                    yield from write_back

    def _resume(self, resume: int, page: int, write: bool, home):
        """Wait until tick ``resume``, then serve the access afresh."""
        yield Hold(resume - self.sim.now)
        step = self.serve_page(page, write, home)
        if step is not None:
            yield from step

    def _write_core(
        self, page: int, owners: Tuple[int, ...], home, leader: int
    ):
        now = self.sim.now
        node = self.nodes[leader]
        node.accesses += 1
        downtime = node.failures.crash_check()  # as in _read_core
        if downtime:
            node.down_until = now + downtime
        self._gray_probe(node)
        forwarded = home is not None and leader != home
        if forwarded:
            self.remote_fetches += 1
        step = self._assemble(
            node, page, True, node.gray_until > now, downtime, forwarded, 0
        )
        if leader == owners[0]:
            followers = owners[1:]
        else:
            followers = tuple(o for o in owners if o != leader)
        if not self.async_mode:
            if not followers:
                return step
            return self._sync_propagate(step, page, followers)
        version = self._version.get(page, 0) + 1
        self._version[page] = version
        self._apply(node, page, version)
        ack = None
        if followers:
            quorum = self.replication_config.write_quorum
            if quorum > 1:
                # The ack cell: [outstanding count, gate the last
                # acking applier opens].
                ack = [quorum - 1, Gate(self.sim, "write-ack")]
            for position, replica in enumerate(followers):
                self.replica_writes += 1
                peer = self.nodes[replica]
                peer.apply_queue.append(
                    (
                        page,
                        version,
                        now,
                        ack if position < quorum - 1 else None,
                    )
                )
                depth = len(peer.apply_queue)
                if depth > peer.queue_peak:
                    peer.queue_peak = depth
                peer.apply_gate.open()
        if ack is None:
            # W=1 (or no replicas): the primary apply is the commit.
            if version > self._committed.get(page, 0):
                self._committed[page] = version
            return step
        return self._await_write_quorum(step, ack, page, version)

    def _await_write_quorum(self, step, ack, page: int, version: int):
        if step is not None:
            yield from step
        gate = ack[1]
        while ack[0] > 0:
            gate.close()
            yield WaitFor(gate)
        if version > self._committed.get(page, 0):
            self._committed[page] = version

    def _sync_propagate(self, step, page: int, followers: Tuple[int, ...]):
        """Synchronous fan-out after ``step``, skipping replicas that are down.

        A crashed replica misses the propagation, but its crash already
        invalidated its buffer — on recovery the stale image cannot be
        served from memory, so the skip is consistency-safe.  Replicas
        install the received image straight into their buffers (no disk
        read).  On a free interconnect they install at call time and
        only the write-backs of the victims they evict are returned.
        """
        if not self.interconnect.infinite:
            return self._timed_propagate(step, page, followers)
        now = self.sim.now
        steps = [] if step is None else [step]
        for replica in followers:
            peer = self.nodes[replica]
            if peer.down_until > now:
                continue
            self.replica_writes += 1
            self.interconnect.transfer_nowait(self._page_bytes)
            write_back = self._install(peer, page)
            if write_back is not None:
                steps.append(write_back)
        return _join(steps)

    def _timed_propagate(self, step, page: int, followers: Tuple[int, ...]):
        if step is not None:
            yield from step
        interconnect = self.interconnect
        for replica in followers:
            peer = self.nodes[replica]
            if peer.down_until > self.sim.now:
                continue
            self.replica_writes += 1
            yield from interconnect.transfer_nowait(self._page_bytes)
            write_back = self._install(peer, page)
            if write_back is not None:
                yield from write_back

    def _assemble(
        self,
        node: ClusterNode,
        page: int,
        write: bool,
        degraded: bool,
        delay: int,
        forwarded: bool,
        probes: int,
    ):
        """Fold one page service's buffer access and timed parts into a
        nowait step: ``delay`` ticks of downtime or retry penalty, the
        forwarding round trip, ``probes`` version-probe messages, and the
        miss I/O at ``node`` (stretched when the node is ``degraded``)."""
        scale = self._gray_scale if degraded else 0.0
        interconnect = self.interconnect
        if interconnect.infinite:
            # Free messages cross at call time: the tail only holds.
            if forwarded:
                interconnect.transfer_nowait(self._message_bytes)
                interconnect.transfer_nowait(self._page_bytes)
            for _ in range(probes):
                interconnect.transfer_nowait(self._message_bytes)
            probes = 0
        elif forwarded:
            # The owner touches its buffer once the request has crossed.
            return self._timed_tail(delay, probes, None, (node, page, write, scale))
        outcome = node.memory.access(page, write)
        miss = None if outcome.hit else node.io.serve_miss(outcome, scale)
        if delay == 0 and probes == 0:
            return miss
        return self._timed_tail(delay, probes, miss, None)

    def _timed_tail(self, delay: int, probes: int, miss, forwarded):
        """The timed remainder of one page service: ``delay`` ticks, then
        the ``probes`` messages and the miss.

        ``forwarded`` is ``None``, or the ``(node, page, write, scale)``
        buffer access of a forwarded request, made once its request
        message has crossed; the page then ships back to the home node.
        """
        if delay:
            yield Hold(delay)
        interconnect = self.interconnect
        if forwarded is not None:
            yield from interconnect.transfer_nowait(self._message_bytes)
        for _ in range(probes):
            yield from interconnect.transfer_nowait(self._message_bytes)
        if forwarded is not None:
            node, page, write, scale = forwarded
            outcome = node.memory.access(page, write)
            if not outcome.hit:
                miss = node.io.serve_miss(outcome, scale)
        if miss is not None:
            yield from miss
        if forwarded is not None:
            yield from interconnect.transfer_nowait(self._page_bytes)

    def _applier(self, node: ClusterNode):
        """The per-node replication applier (async mode).

        One despy process per node: drains ``(page, version, enqueued,
        ack)`` entries FIFO, paying the interconnect ship, the
        configured apply delay and any crash downtime before installing
        the image and signalling the write-quorum ack.  Replication lag
        is measured enqueue-to-apply, so queueing, shipping, delay and
        downtime all count.
        """
        sim = self.sim
        queue = node.apply_queue
        gate = node.apply_gate
        interconnect = self.interconnect
        delay = self._apply_delay
        applied = node.applied
        while True:
            if not queue:
                gate.close()
                yield WaitFor(gate)
                continue
            page, version, enqueued, ack = queue.popleft()
            ok = True
            if self.faults_on:
                # The ship honours the retry contract against the
                # page's current primary: an abandoned ship negative-
                # acks (so writers never block on a dead link) and the
                # replica stays stale until anti-entropy or read-repair
                # back-fills it.
                source = self._leader.get(
                    page, self.router.replicas(page)[0]
                )
                self._gray_probe(node)
                ok, cost = self._retry_outcome(
                    source, node.index, node.retry_stream, sim.now
                )
                if cost:
                    yield Hold(cost)
                if ok and node.gray_until > sim.now and self._gray_ship_extra:
                    yield Hold(self._gray_ship_extra)
            if ok:
                step = interconnect.transfer_nowait(self._page_bytes)
                if step is not None:
                    yield from step
                if delay:
                    yield Hold(delay)
                down = node.down_until - sim.now
                if down > 0:
                    yield Hold(down)
                if version > applied.get(page, 0):
                    self._apply(node, page, version)
                    write_back = self._install(node, page)
                    if write_back is not None:
                        yield from write_back
                self.replica_applies += 1
                self.replica_lag_ticks += sim.now - enqueued
            if ack is not None:
                ack[0] -= 1
                if ack[0] <= 0:
                    ack[1].open()

    def _install(self, node: ClusterNode, page: int):
        """Install a shipped image of ``page`` in ``node``'s buffer.

        The one replica install: read-repair, both sync fan-outs, the
        applier and the repair sweep touch the buffer with a write (no
        disk read) here.  Returns the evicted victim's write-back step,
        or ``None``.
        """
        outcome = node.memory.access(page, True)
        if not outcome.hit and outcome.writeback_pages:
            return node.io.write_back(outcome.writeback_pages)
        return None

    # -- Anti-entropy repair -------------------------------------------
    def _apply(self, node: ClusterNode, page: int, version: int) -> None:
        """Install ``version`` of ``page`` at ``node``, unguarded.

        The only writer of ``applied``.  Callers keep their own version
        guards, so a copy never goes back; while anti-entropy runs, an
        install therefore only puts the page in the ``behind`` set of
        each owner it now leads, and takes it out of ``node``'s once
        ``node`` holds the newest copy.
        """
        node.applied[page] = version
        if self._repair_interval:
            nodes = self.nodes
            newest = version
            for owner in self.router.replicas(page):
                have = nodes[owner].applied.get(page, 0)
                if have < version:
                    nodes[owner].behind.add(page)
                elif have > newest:
                    newest = have
            if newest == version:
                node.behind.discard(page)

    def _repair_sweep(self):
        """One anti-entropy round over the whole cluster.

        Every live node exchanges a Merkle-style version summary (one
        control message per reachable peer), then walks its ``behind``
        set in page order, so a pass costs O(behind pages), not O(pages
        ever written).  A visited page whose freshest live, reachable
        copy is newer than the node's own is back-filled at one page
        ship.  Pages first written after the summary wait for the next
        sweep.  A ship or write-back yields, and versions, partitions
        and crashes may change meanwhile, so after one the rest of the
        walk is re-read from ``behind``, past the current page.
        Versions only move forward: a page that got a newer version
        during its ship keeps it, and the ship is not counted as a
        repair.
        """
        sim = self.sim
        nodes = self.nodes
        interconnect = self.interconnect
        router = self.router
        written = self._version
        for node in nodes:
            if node.down_until > sim.now:
                continue
            peers = [
                other
                for other in nodes
                if other.index != node.index
                and other.down_until <= sim.now
                and self._reachable_at(node.index, other.index, sim.now)
            ]
            if not peers:
                continue
            for _ in peers:
                step = interconnect.transfer_nowait(self._message_bytes)
                if step is not None:
                    yield from step
            born = len(written)
            walk = sorted(node.behind, reverse=True)
            while walk:
                page = walk.pop()
                owners = router.replicas(page)
                have = node.applied.get(page, 0)
                best = have
                source = None
                for owner in owners:
                    if owner == node.index:
                        continue
                    peer = nodes[owner]
                    if peer.down_until > sim.now:
                        continue
                    if not self._reachable_at(node.index, owner, sim.now):
                        continue
                    version = peer.applied.get(page, 0)
                    if version > best:
                        best = version
                        source = owner
                if source is None:
                    continue
                step = interconnect.transfer_nowait(self._page_bytes)
                if step is not None:
                    yield from step
                if node.applied.get(page, 0) <= best:
                    self._apply(node, page, best)
                    write_back = self._install(node, page)
                    if write_back is not None:
                        step = write_back
                        yield from step
                    self.repair_pages += 1
                if step is not None:
                    # Pages first written since the summary are the newest
                    # keys of the insertion-ordered version map.
                    newborn = set(islice(reversed(written), len(written) - born))
                    walk = sorted(
                        (p for p in node.behind if p > page and p not in newborn),
                        reverse=True,
                    )

    def drain_repairs(self) -> bool:
        """Schedule the final anti-entropy round of a drained phase.

        The model calls this after the workload drains: the round waits
        for active partitions to heal and crashed nodes to recover
        (convergence is only promised for *healed* faults), then runs
        one sweep, bringing every replica up to the commit point.
        Returns ``False`` when the fault layer or repair is off.
        """
        if not self.faults_on or not self._repair_interval:
            return False
        self.sim.process(self._final_repair(), name="anti-entropy-drain")
        return True

    def _final_repair(self):
        sim = self.sim
        resume = self._partition_until
        for node in self.nodes:
            if node.down_until > resume:
                resume = node.down_until
        if resume > sim.now:
            yield Hold(resume - sim.now)
        yield from self._repair_sweep()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster servers={len(self.nodes)} "
            f"placement={self.router.placement!r} "
            f"replication={self.router.replication}>"
        )
