"""VOODB: assembly of the generic evaluation model.

This module instantiates Figure 4 — Users, Transaction Manager,
Clustering Manager, Object Manager, Buffering Manager (or the Texas
virtual-memory model), I/O Subsystem — over one despy simulation, wires
the passive resources of Table 1 (scheduler, disk, network medium), and
runs replications.

Passive resources (Table 1) in this assembly:

* server processor and main memory — the memory model (BUFFSIZE frames);
* server disk controller and secondary storage — the IOSubsystem's
  capacity-1 disk resource;
* database scheduler — the LockManager's MULTILVL admission resource
  plus the object lock table.

Phase metrics come from one counter table, the
:class:`~repro.core.results.PhaseResults` fields declared with a model
source (:data:`~repro.core.results.COUNTERS`): ``_snapshot`` reads
every row whose gate is open for this run before and after a phase,
and ``_collect`` stores the deltas.  On clusters the model's ``io``,
``memory``, ``locks`` and ``failures`` are
:class:`~repro.core.cluster.NodeSum` views, so the same rows read the
sums over the nodes.

Public entry points:

* :class:`VOODBSimulation` — one replication, with the multi-phase API
  the DSTC experiments need (``run_phase`` / ``demand_clustering``);
* :func:`run_replication` — the standard COLDN-warm-up + HOTN-measured
  run of §4.3, returning :class:`SimulationResults`;
* :func:`build_database` — cached OCB base construction (the base is a
  pure function of the OCB config, so experiment sweeps share it).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Optional

from repro.despy.engine import Simulation
from repro.despy.randomstream import RandomStream
from repro.despy.timebase import MS_PER_TICK
from repro.clustering.base import make_clustering_policy
from repro.clustering.placement import make_placement
from repro.core.architectures import make_architecture
from repro.core.buffering import BufferManager
from repro.core.cluster import Cluster
from repro.core.clustering_manager import ClusteringManager
from repro.core.failures import FailureInjector, NoFailures
from repro.core.io_subsystem import IOSubsystem
from repro.core.locks import LockManager
from repro.core.network import Network
from repro.core.object_manager import ObjectManager
from repro.core.parameters import ArrivalConfig, MemoryModel, VOODBConfig
from repro.core.prefetch import make_prefetch_policy
from repro.core.results import (
    ALWAYS,
    AUDITED,
    CLUSTER,
    COUNTERS,
    FAULTS,
    MS,
    ClusteringReport,
    PhaseResults,
    SimulationResults,
)
from repro.core.transaction_manager import TransactionManager
from repro.core.users import Users
from repro.core.virtual_memory import VirtualMemoryManager
from repro.ocb.database import Database
from repro.ocb.parameters import OCBConfig
from repro.ocb.schema import Schema

# ----------------------------------------------------------------------
# Database cache
# ----------------------------------------------------------------------
_DATABASE_CACHE: Dict[OCBConfig, Database] = {}


def build_database(ocb: OCBConfig) -> Database:
    """Generate (or reuse) the OCB base for a config.

    The base is deterministic in ``ocb`` (including ``rseed``), so
    experiment sweeps that vary only VOODB parameters or replication
    seeds share one graph — exactly how §4.4 "reused the object base".
    """
    db = _DATABASE_CACHE.get(ocb)
    if db is None:
        rng = RandomStream(ocb.rseed, "ocb-generation")
        db = Database.generate(Schema.generate(ocb, rng), rng)
        _DATABASE_CACHE[ocb] = db
    return db


def clear_database_cache() -> None:
    """Drop cached bases (tests and memory-conscious sweeps)."""
    _DATABASE_CACHE.clear()
    _PLACEMENT_CACHE.clear()


# ----------------------------------------------------------------------
# Placement cache
# ----------------------------------------------------------------------
#: (ocb config, initpl, usable_page_bytes) -> (PageMap, swizzle-cascade
#: cache).  An initial placement is a pure function of the (unmutated)
#: cached base and those two knobs, and replications never write to it
#: on static workloads (dynamic workloads clone the base and take the
#: uncached path; clustering installs a *new* map that shares the cached
#: map's untouched page lists but never writes to them) — so sweeps skip
#: rebuilding the page map, and the VM model's pointer-swizzle cascades,
#: per replication.
_PLACEMENT_CACHE: Dict[tuple, tuple] = {}


def _build_placement(config: VOODBConfig, db: Database, shared_db: bool):
    """The page map plus adoptable swizzle cache for one replication."""
    if not shared_db or db.mutations != 0:
        return make_placement(db, config.initpl, config.usable_page_bytes), None
    key = (config.ocb, config.initpl, config.usable_page_bytes)
    cached = _PLACEMENT_CACHE.get(key)
    if cached is None:
        cached = _PLACEMENT_CACHE[key] = (
            make_placement(db, config.initpl, config.usable_page_bytes),
            {},
        )
    return cached


class VOODBSimulation:
    """One replication of the VOODB evaluation model."""

    def __init__(
        self,
        config: VOODBConfig,
        seed: int = 0,
        database: Optional[Database] = None,
        clustering_kwargs: Optional[dict] = None,
        clone_database: Optional[bool] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.db = database if database is not None else build_database(config.ocb)
        if len(self.db) != config.ocb.no:
            raise ValueError(
                "database/config mismatch: "
                f"db has {len(self.db)} objects, config.ocb.no={config.ocb.no}"
            )
        if clone_database is None:
            clone_database = config.ocb.pinsert + config.ocb.pdelete > 0
        if clone_database:
            # Dynamic workloads mutate the graph: give this replication
            # its own copy so the shared cache stays pristine.  Callers
            # planning a dynamic ``ocb_override`` phase must pass
            # ``clone_database=True`` themselves.
            self.db = self.db.clone()
        self.sim = Simulation(seed=seed)

        # Figure 4 active resources, bottom-up.
        placement, shared_refs = _build_placement(
            config, self.db, not clone_database and database is None
        )
        self.object_manager = ObjectManager(
            self.db, placement, shared_page_refs_cache=shared_refs
        )
        self.network = Network(self.sim, config)
        if config.cluster.enabled:
            # Sharded multi-server topology: every node carries its own
            # buffer/disk/lock table; the model-facing ``io``/``memory``/
            # ``locks``/``failures`` attributes sum the nodes' counters
            # (:class:`~repro.core.cluster.NodeSum`).  Unsupported
            # combinations (VM, clustering policies, prefetch) were
            # rejected at config construction.  Hazards live at the
            # nodes (node-indexed injectors with replica failover), so
            # the TM gets no crash probe on clusters.
            self.cluster = Cluster(self.sim, config, self.object_manager)
            self.io = self.cluster.io
            self.memory = self.cluster.memory
            self.locks = self.cluster.locks
            self.failures = self.cluster.failures
            clustering_memory = self.cluster.nodes[0].memory
            clustering_io = self.cluster.nodes[0].io
        else:
            self.cluster = None
            self.io = IOSubsystem(self.sim, config)
            self.locks = LockManager(self.sim, config)
            if config.memory_model is MemoryModel.VIRTUAL_MEMORY:
                self.memory = VirtualMemoryManager(
                    config,
                    self.sim.stream("memory"),
                    pages_referenced_by_page=(
                        self.object_manager.pages_referenced_by_page
                    ),
                )
            else:
                self.memory = BufferManager(config, self.sim.stream("memory"))
            if config.failures.enabled:
                self.failures = FailureInjector(
                    self.sim, config.failures, self.memory
                )
                self.io.failures = self.failures
            else:
                self.failures = NoFailures()
            clustering_memory = self.memory
            clustering_io = self.io
        policy = make_clustering_policy(config.clustp, **(clustering_kwargs or {}))
        self.clustering = ClusteringManager(
            config,
            self.db,
            self.object_manager,
            clustering_memory,
            clustering_io,
            policy,
        )
        prefetcher = make_prefetch_policy(config.prefetch)
        self.architecture = make_architecture(
            self.sim,
            config,
            self.db,
            self.object_manager,
            self.memory,
            self.io,
            self.network,
            prefetcher,
            cluster=self.cluster,
        )
        self.tm = TransactionManager(
            self.sim,
            config,
            self.architecture,
            self.locks,
            self.clustering,
            failures=self.failures if self.cluster is None else None,
        )
        self.clustering.on_reorganized = self.architecture.notify_reorganized
        self.users = Users(self.sim, config, self.db, self.tm)
        self._phase_counter = 0
        # Calibration of the phase being collected (aggregated tier
        # only); stashed by run_phase, consumed by _collect.
        self._phase_calibration = None
        # The counter rows this run reads; a row whose gate is shut
        # keeps its PhaseResults default.
        gates = {ALWAYS}
        cluster = self.cluster
        if cluster is not None:
            gates.add(CLUSTER)
            # Served reads, the stale-rate base, are audited only where
            # replicas can lag or fail over.
            if cluster.async_mode or cluster.faults_on or config.failures.enabled:
                gates.add(AUDITED)
            if cluster.faults_on:
                gates.add(FAULTS)
        self._counters = [row for row in COUNTERS if row.metadata["gate"] in gates]

    # ------------------------------------------------------------------
    # Phase API
    # ------------------------------------------------------------------
    def run_phase(
        self,
        transactions: Optional[int] = None,
        workload: str = "mix",
        stream_label: Optional[str] = None,
        hierarchy_type: int = 0,
        hierarchy_depth: Optional[int] = None,
        ocb_override: Optional[OCBConfig] = None,
        arrivals: Optional[ArrivalConfig] = None,
        thinktime: Optional[float] = None,
        nusers: Optional[int] = None,
    ) -> PhaseResults:
        """Run one batch of transactions and return its metrics.

        Usage I/Os are separated from clustering overhead: reorganization
        reads/writes performed inside the phase (automatic triggering)
        are reported in the clustering report, not in the phase's I/Os.
        ``ocb_override`` swaps the workload definition for this phase
        only (churn phases, workload-drift studies).

        ``arrivals`` selects the arrival process for this phase: by
        default the config's (closed NUSERS loop unless the scenario
        configured an open source).  ``thinktime`` and ``nusers``
        override the closed loop's think time / user population for this
        phase only (ignored in open modes).
        """
        if transactions is None:
            transactions = self.config.ocb.hotn
        if stream_label is None:
            stream_label = f"phase-{self._phase_counter}"
        self._phase_counter += 1
        snapshot = self._snapshot()
        self.tm.begin_phase()
        if arrivals is None:
            arrivals = self.config.arrivals
        aggregation = self.config.aggregation
        if aggregation.enabled and not arrivals.open:
            # Flow-aggregated tier: the closed population collapsed to a
            # calibrated open stream plus the probe cohort.  Calibration
            # is memoized per config, so replications share one solve.
            from repro.core.aggregation import calibrate_aggregate_rate

            calibration = calibrate_aggregate_rate(self.config)
            self._phase_calibration = calibration
            self.users.launch_aggregated(
                transactions,
                calibration.rate_tps,
                aggregation,
                workload=workload,
                stream_label=stream_label,
                hierarchy_type=hierarchy_type,
                hierarchy_depth=hierarchy_depth,
                ocb_override=ocb_override,
            )
        elif arrivals.open:
            self.users.launch_open(
                transactions,
                arrivals,
                workload=workload,
                stream_label=stream_label,
                hierarchy_type=hierarchy_type,
                hierarchy_depth=hierarchy_depth,
                ocb_override=ocb_override,
            )
        else:
            self.users.launch(
                transactions,
                workload=workload,
                stream_label=stream_label,
                hierarchy_type=hierarchy_type,
                hierarchy_depth=hierarchy_depth,
                ocb_override=ocb_override,
                thinktime=thinktime,
                nusers=nusers,
            )
        self.sim.run()
        if self.cluster is not None and self.cluster.drain_repairs():
            # Fault layer with anti-entropy: run the staleness out of
            # the drained phase (waits for heals, then one sweep) so
            # every replica converges to the commit point.
            self.sim.run()
        return self._collect(snapshot)

    def demand_clustering(self) -> ClusteringReport:
        """Figure 4's external clustering demand, run to completion.

        Returns a report of the *delta* caused by this demand (overhead
        I/Os, clusters installed), leaving cumulative accounting in
        ``self.clustering.report``.
        """
        if self.cluster is not None:
            raise ValueError(
                "clustering reorganization is not supported on cluster "
                "topologies yet (see ROADMAP open items)"
            )
        before_reads = self.clustering.report.overhead_reads
        before_writes = self.clustering.report.overhead_writes
        before_reorgs = self.clustering.report.reorganizations
        self.sim.process(
            self.clustering.demand_clustering(), name="clustering-demand"
        )
        self.sim.run()
        report = self.clustering.report
        return ClusteringReport(
            policy=report.policy,
            reorganizations=report.reorganizations - before_reorgs,
            overhead_reads=report.overhead_reads - before_reads,
            overhead_writes=report.overhead_writes - before_writes,
            clusters=report.clusters,
            clustered_objects=report.clustered_objects,
            moved_objects=report.clustered_objects,
        )

    # ------------------------------------------------------------------
    # Standard run (§4.3): COLDN warm-up + HOTN measured
    # ------------------------------------------------------------------
    def run(self) -> SimulationResults:
        ocb = self.config.ocb
        if ocb.coldn > 0:
            self.run_phase(ocb.coldn, stream_label="cold")
        phase = self.run_phase(ocb.hotn, stream_label="hot")
        sim = self.sim
        kernel = {
            "events_wheel_pushed": float(sim.events_wheel_pushed),
            "events_pooled_reused": float(sim.events_pooled_reused),
            "ticks_overflowed": float(sim.events_ticks_overflowed),
            "wheel_recalibrations": float(sim.events_wheel_recalibrations),
            "holds_warped": float(sim.events_holds_warped),
        }
        return SimulationResults(
            phase=phase,
            clustering=self.clustering.report,
            seed=self.seed,
            kernel=kernel,
        )

    # ------------------------------------------------------------------
    # Counter snapshots
    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, object]:
        """The source value of every counter row this run reads.

        A ``node.`` row reads a tuple over the cluster nodes.  The
        clustering report's overhead I/Os ride along, for the usage
        reads and writes to exclude.
        """
        nodes = self.cluster.nodes if self.cluster is not None else ()
        snapshot: Dict[str, object] = {}
        for row in self._counters:
            source = row.metadata["source"]
            if source.startswith("node."):
                read = attrgetter(source[len("node.") :])
                snapshot[row.name] = tuple(read(node) for node in nodes)
            else:
                snapshot[row.name] = attrgetter(source)(self)
        report = self.clustering.report
        snapshot["overhead"] = (report.overhead_reads, report.overhead_writes)
        return snapshot

    def _collect(self, snapshot: Dict[str, object]) -> PhaseResults:
        """Phase metrics: each counter row's delta, plus what is not one.

        This is the tick→ms boundary for phase counters: a row in
        :data:`~repro.core.results.MS` units reads integer ticks, and
        ``_delta`` is the only place its phase value becomes float
        milliseconds.
        """
        current = self._snapshot()
        values: Dict[str, object] = {}
        for row in self._counters:
            ms = row.metadata["unit"] == MS
            before, after = snapshot[row.name], current[row.name]
            if isinstance(after, tuple):
                values[row.name] = tuple(
                    _delta(b, a, ms) for b, a in zip(before, after)
                )
            else:
                values[row.name] = _delta(before, after, ms)
        # Reorganizations inside the phase billed I/Os on the shared
        # disk; pull them out of the usage figures.
        reads_before, writes_before = snapshot["overhead"]
        reads_after, writes_after = current["overhead"]
        values["reads"] -= reads_after - reads_before
        values["writes"] -= writes_after - writes_before
        calibration = self._phase_calibration
        if calibration is not None:
            self._phase_calibration = None
            users = self.users
            values.update(
                aggregation_population=calibration.population,
                aggregate_transactions=users.aggregate_completions,
                probe_transactions=len(users.probe_response_ticks),
                probe_response_times_ms=tuple(
                    ticks * MS_PER_TICK for ticks in users.probe_response_ticks
                ),
                calibrated_rate_tps=calibration.rate_tps,
                calibration_iterations=calibration.iterations,
                calibration_converged=calibration.converged,
                calibration_trace=calibration.trace,
            )
        cluster = self.cluster
        if cluster is not None:
            values["fault_layer"] = cluster.faults_on
            if cluster.async_mode:
                # Run-to-date high-water marks (not phase deltas): the
                # deepest each node's apply queue has ever been.
                values["apply_queue_peak"] = tuple(
                    node.queue_peak for node in cluster.nodes
                )
        response = self.tm.phase_response
        return PhaseResults(
            response_time_sum_ms=response.total * MS_PER_TICK,
            response_time_max_ms=max(response.maximum, 0) * MS_PER_TICK,
            response_times_ms=tuple(
                ticks * MS_PER_TICK for ticks in self.tm.phase_response_series
            ),
            transactions_by_kind=dict(self.tm.phase_kind_counts),
            **values,
        )


def _delta(before, after, ms: bool):
    """One counter's phase value: a count, or its ticks in ms."""
    return (after - before) * MS_PER_TICK if ms else int(after - before)


def run_replication(
    config: VOODBConfig,
    seed: int = 0,
    database: Optional[Database] = None,
    clustering_kwargs: Optional[dict] = None,
) -> SimulationResults:
    """Run one standard replication (§4.3 protocol) and return results.

    The population knobs are validated eagerly (not just at config
    construction) so a config mutated past ``__post_init__`` — e.g. via
    ``object.__setattr__`` in exploratory code — fails here with a clear
    message instead of a ``ZeroDivisionError`` deep inside Users.
    """
    if config.nusers < 1:
        raise ValueError(f"nusers must be >= 1, got {config.nusers}")
    if config.multilvl < 1:
        raise ValueError(
            f"multilvl must be >= 1, got {config.multilvl}: the scheduler "
            "needs at least one multiprogramming slot"
        )
    model = VOODBSimulation(
        config, seed=seed, database=database, clustering_kwargs=clustering_kwargs
    )
    return model.run()
