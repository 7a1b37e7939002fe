"""Result containers for VOODB runs.

The paper's headline metric is the **mean number of I/Os necessary to
perform the transactions** (Figures 6-11); the DSTC experiments add
clustering overhead I/Os and cluster statistics (Tables 6-8).  This
module also reports the standard simulation outputs (response times,
throughput, hit rates, utilizations) that VOODB's genericity claims
cover.

:class:`PhaseResults` holds the metrics of one workload phase of one
replication; :class:`SimulationResults` extends it with clustering info
for a complete replication.  Both flatten to ``dict`` for the
:class:`~repro.despy.stats.ReplicationAnalyzer`.

The :class:`PhaseResults` field list is also the model's counter table
(:data:`COUNTERS`).  Each delta counter is declared once, with its
model source, its unit (a count, or ticks reported as ms), its gate
(:data:`ALWAYS`, :data:`CLUSTER`, :data:`AUDITED`, :data:`FAULTS`) and
whether :meth:`PhaseResults.to_metrics` flattens it; its ``#:`` comment
is its description.  The model's snapshot and phase delta and
``to_metrics`` all loop over these rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

from repro.despy.stats import MIN_STEADY_OBSERVATIONS, steady_state_estimate


#: Counter-row gates: when the model reads a row and
#: :meth:`PhaseResults.to_metrics` flattens it.  A row whose gate is
#: shut keeps its default.  Every run:
ALWAYS = "always"
#: Cluster runs only.
CLUSTER = "cluster"
#: Cluster runs that audit served reads (async copies, the fault layer
#: or per-node failures); flattened when any were counted.
AUDITED = "audited"
#: Cluster runs with the fault layer on.
FAULTS = "faults"
#: The unit of a row that reads integer ticks and reports milliseconds.
MS = "ms"


def _counter(
    source: str, unit: str = "count", gate: str = ALWAYS, metric: bool = True
):
    """One row of the counter table: the phase delta of ``source``.

    ``source`` is an attribute path on the model; a ``node.`` path is
    read on every cluster node into a per-node tuple.  ``unit`` is a
    count, or :data:`MS` for ticks reported as milliseconds.
    ``metric`` says whether :meth:`PhaseResults.to_metrics` flattens the
    row under its own name.
    """
    if source.startswith("node."):
        default = ()
    else:
        default = 0.0 if unit == MS else 0
    metadata = {"source": source, "unit": unit, "gate": gate, "metric": metric}
    return field(default=default, metadata=metadata)


@dataclass
class PhaseResults:
    """Metrics of one workload phase (a batch of transactions).

    The fields declared with :func:`_counter` are the counter table
    (:data:`COUNTERS`); the model fills the others in code.
    """

    transactions: int = _counter("tm.transactions_executed")
    object_accesses: int = _counter("tm.objects_accessed")
    #: Pages read from disk for transaction processing (usage reads).
    reads: int = _counter("io.reads")
    #: Pages written to disk for transaction processing (dirty evictions).
    writes: int = _counter("io.writes")
    #: Swap I/Os (virtual-memory model only): counted apart from reads
    #: and writes, and *added* into total_ios.
    swap_reads: int = _counter("io.swap_reads", metric=False)
    swap_writes: int = _counter("io.swap_writes", metric=False)
    buffer_hits: int = _counter("memory.hits", metric=False)
    buffer_misses: int = _counter("memory.misses", metric=False)
    prefetched_pages: int = _counter("architecture.prefetched_pages", metric=False)
    prefetch_hits: int = _counter("architecture.prefetch_hits", metric=False)
    sequential_reads: int = _counter("io.sequential_accesses")
    network_messages: int = _counter("network.messages")
    network_bytes: int = _counter("network.bytes_sent")
    network_time_ms: float = _counter("network.busy_ticks", MS)
    lock_acquisitions: int = _counter("locks.acquisitions", metric=False)
    lock_waits: int = _counter("locks.waits")
    lock_wait_time_ms: float = _counter("locks.wait_ticks", MS, metric=False)
    response_time_sum_ms: float = 0.0
    response_time_max_ms: float = 0.0
    #: Per-transaction response times (ms) in completion order — the
    #: observation series behind the steady-state estimates.  Kept out
    #: of :meth:`to_metrics` itself (analyzers aggregate scalars); the
    #: MSER-5/batch-means summary derived from it goes in as the
    #: ``steady_*`` metrics.
    response_times_ms: Tuple[float, ...] = ()
    elapsed_ms: float = _counter("sim.now", MS)
    transactions_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Hazards charged during the phase (§5 failures module).
    transient_faults: int = _counter("failures.transient_faults")
    crashes: int = _counter("failures.crashes")
    downtime_ms: float = _counter("failures.downtime_ticks", MS)
    # -- Flow aggregation (0 population = plain closed/open phase) -------
    #: Simulated population the aggregated source tier stood in for.
    aggregation_population: int = 0
    #: Transactions completed via the aggregate arrival stream.
    aggregate_transactions: int = 0
    #: Transactions completed by the probe-cohort user processes.
    probe_transactions: int = 0
    #: Probe-cohort response times (ms) in completion order — the
    #: per-user latency series the aggregate stream cannot observe.
    probe_response_times_ms: Tuple[float, ...] = ()
    #: Fixed-point arrival rate the calibration settled on (tps).
    calibrated_rate_tps: float = 0.0
    #: Pilot iterations the calibration took, and whether it converged
    #: within tolerance before the iteration cap.
    calibration_iterations: int = 0
    calibration_converged: bool = False
    #: Per-iteration ``(rate_tps, pilot_response_ms)`` calibration trace.
    calibration_trace: Tuple[Tuple[float, float], ...] = ()
    # -- Cluster topology (empty tuples = single-server run) -------------
    #: Usage I/Os performed by each server node.
    server_ios: Tuple[int, ...] = _counter(
        "node.io.total_ios", gate=CLUSTER, metric=False
    )
    #: Page/object service operations each server node performed.
    server_accesses: Tuple[int, ...] = _counter(
        "node.accesses", gate=CLUSTER, metric=False
    )
    #: Disk busy time of each server node (ms).
    server_busy_ms: Tuple[float, ...] = _counter(
        "node.io.busy_ticks", MS, CLUSTER, metric=False
    )
    #: Inter-server network traffic (replica propagation + forwarding).
    interconnect_messages: int = _counter("cluster.interconnect.messages", gate=CLUSTER)
    interconnect_bytes: int = _counter("cluster.interconnect.bytes_sent", gate=CLUSTER)
    #: Pages a home node fetched from a remote owner (object server).
    remote_fetches: int = _counter("cluster.remote_fetches", gate=CLUSTER)
    #: Reads served by a non-primary replica (round-robin balancing).
    replica_reads: int = _counter("cluster.replica_reads", gate=CLUSTER)
    #: Page images propagated to non-primary replicas on writes.
    replica_writes: int = _counter("cluster.replica_writes", gate=CLUSTER)
    # -- Consistency spectrum (async replication + failover) --------------
    #: Reads that served a page version older than the last acknowledged
    #: write of that page (async replication lag made visible).
    stale_reads: int = _counter("cluster.stale_reads", gate=CLUSTER)
    #: Shipped page images the per-node appliers installed.
    replica_applies: int = _counter("cluster.replica_applies", gate=CLUSTER)
    #: Total enqueue-to-apply latency over all applies (ms).
    replica_lag_sum_ms: float = _counter(
        "cluster.replica_lag_ticks", MS, CLUSTER, metric=False
    )
    #: Reads rerouted away from a crashed replica.
    read_failovers: int = _counter("cluster.read_failovers", gate=CLUSTER)
    #: Writes that queued behind a crashed primary's recovery.
    write_recovery_waits: int = _counter("cluster.write_recovery_waits", gate=CLUSTER)
    #: Peak apply-queue depth per server node (async mode only).
    apply_queue_peak: Tuple[int, ...] = ()
    # -- Fault-tolerance layer (FaultConfig / RetryConfig) -----------------
    #: Page reads the extended cluster path served (stale-rate base).
    cluster_reads: int = _counter("cluster.reads_served", gate=AUDITED)
    #: Whether the fault layer was active this phase (gates metrics).
    fault_layer: bool = False
    #: Interconnect partitions drawn this phase.
    partitions: int = _counter("cluster.partitions", gate=FAULTS)
    #: Total simulated time some partition was active (ms).
    partition_ms: float = _counter("cluster.partition_ticks", MS, FAULTS)
    #: Gray (degraded-mode) episodes drawn across the nodes.
    gray_episodes: int = _counter("cluster.gray_episodes", gate=FAULTS)
    #: Reads served by a node while it was gray.
    degraded_reads: int = _counter("cluster.degraded_reads", gate=FAULTS)
    #: Remote-operation attempts that hit the timeout.
    remote_timeouts: int = _counter("cluster.remote_timeouts", gate=FAULTS)
    #: Backoff-and-retry rounds taken after a timeout.
    remote_retries: int = _counter("cluster.remote_retries", gate=FAULTS)
    #: Peers abandoned after exhausting the retry budget.
    abandoned_reads: int = _counter("cluster.abandoned_reads", gate=FAULTS)
    #: Primary elections held (crashed or partitioned-away leaders).
    elections: int = _counter("cluster.elections", gate=FAULTS)
    #: Elections that promoted a different replica to primary.
    promotions: int = _counter("cluster.promotions", gate=FAULTS)
    #: Stale page copies anti-entropy back-filled.
    repair_pages: int = _counter("cluster.repair_pages", gate=FAULTS)
    #: Divergent replicas quorum reads repaired in place.
    read_repairs: int = _counter("cluster.read_repairs", gate=FAULTS)

    # ------------------------------------------------------------------
    @property
    def total_ios(self) -> int:
        """Usage I/Os of the phase: reads + writes + swap traffic.

        This is the figure the paper plots ("mean number of I/Os" over
        the HOTN transactions, averaged across replications).
        """
        return self.reads + self.writes + self.swap_ios

    @property
    def swap_ios(self) -> int:
        return self.swap_reads + self.swap_writes

    @property
    def hit_rate(self) -> float:
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    @property
    def mean_response_time_ms(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.response_time_sum_ms / self.transactions

    @property
    def throughput_tps(self) -> float:
        """Transactions per (simulated) second."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.transactions / (self.elapsed_ms / 1000.0)

    # ------------------------------------------------------------------
    # Cluster roll-ups
    # ------------------------------------------------------------------
    @property
    def cluster_imbalance(self) -> float:
        """Max-over-mean per-server I/Os (1.0 = perfectly balanced)."""
        if not self.server_ios:
            return 1.0
        mean = sum(self.server_ios) / len(self.server_ios)
        if mean <= 0:
            return 1.0
        return max(self.server_ios) / mean

    @property
    def cluster_max_utilization(self) -> float:
        """Busiest server's disk utilization over the phase."""
        if not self.server_busy_ms or self.elapsed_ms <= 0:
            return 0.0
        return max(self.server_busy_ms) / self.elapsed_ms

    def server_utilization(self, index: int) -> float:
        """One server's disk utilization over the phase."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.server_busy_ms[index] / self.elapsed_ms

    @property
    def replica_lag_ms(self) -> float:
        """Mean enqueue-to-apply latency of shipped page images (ms)."""
        if self.replica_applies <= 0:
            return 0.0
        return self.replica_lag_sum_ms / self.replica_applies

    @property
    def stale_reads_per_1000_reads(self) -> float:
        """Stale-read *rate*: stale reads per 1000 served page reads.

        The raw counter scales with the workload; the rate is the
        comparable figure across scenarios (0.0 when no served reads
        were counted: plain sync clusters without failures report none).
        """
        if self.cluster_reads <= 0:
            return 0.0
        return self.stale_reads * 1000.0 / self.cluster_reads

    # ------------------------------------------------------------------
    # Aggregated-tier roll-ups
    # ------------------------------------------------------------------
    @property
    def aggregated(self) -> bool:
        """Whether this phase ran the flow-aggregated source tier."""
        return self.aggregation_population > 0

    @property
    def probe_mean_response_time_ms(self) -> float:
        """Mean response time over the probe cohort's transactions."""
        if not self.probe_response_times_ms:
            return 0.0
        return sum(self.probe_response_times_ms) / len(
            self.probe_response_times_ms
        )

    def probe_response_percentile(self, quantile: float) -> float:
        """Probe-cohort latency percentile (nearest-rank, ms).

        The point of the probe cohort: percentiles need per-transaction
        observations, which the aggregate stream's counters alone cannot
        provide.  ``quantile`` is in [0, 1].
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not self.probe_response_times_ms:
            return 0.0
        ordered = sorted(self.probe_response_times_ms)
        # Nearest-rank: the smallest observation with at least a
        # ``quantile`` fraction of the sample at or below it, i.e. order
        # statistic ceil(q*n) (1-based).  ``int(q*n)`` overshoots by one
        # whenever q*n is integral (n=100, q=0.95 must read the 95th
        # order statistic, not the 96th).
        rank = math.ceil(quantile * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, rank))]

    # ------------------------------------------------------------------
    # Steady-state estimates (honest open-system statistics)
    # ------------------------------------------------------------------
    @property
    def has_steady_state(self) -> bool:
        """Whether the phase recorded enough observations to estimate."""
        return len(self.response_times_ms) >= MIN_STEADY_OBSERVATIONS

    def steady_state(self, confidence: float = 0.95):
        """MSER-5 truncated batch-means estimate of the response time.

        The raw :attr:`mean_response_time_ms` averages the initial
        transient in; this deletes it first (see
        :func:`repro.despy.stats.steady_state_estimate`) and reports a
        batch-means CI over what remains.  Raises :class:`ValueError`
        when the phase is too short to estimate (see
        :attr:`has_steady_state`).
        """
        return steady_state_estimate(self.response_times_ms, confidence=confidence)

    def to_metrics(self) -> Dict[str, float]:
        """Flatten to a metric dict for the ReplicationAnalyzer.

        Every counter row marked ``metric`` goes in under its own name
        while its gate is open; the derived figures follow.
        """
        cluster = bool(self.server_ios)
        audited = cluster and bool(self.cluster_reads)
        open_gates = {
            ALWAYS: True,
            CLUSTER: cluster,
            AUDITED: audited,
            FAULTS: cluster and self.fault_layer,
        }
        metrics = {
            row.name: float(getattr(self, row.name))
            for row in COUNTERS
            if row.metadata["metric"] and open_gates[row.metadata["gate"]]
        }
        metrics["total_ios"] = float(self.total_ios)
        metrics["swap_ios"] = float(self.swap_ios)
        metrics["hit_rate"] = self.hit_rate
        metrics["mean_response_time_ms"] = self.mean_response_time_ms
        metrics["throughput_tps"] = self.throughput_tps
        if self.aggregated:
            metrics["aggregation_population"] = float(self.aggregation_population)
            metrics["aggregate_transactions"] = float(self.aggregate_transactions)
            metrics["probe_transactions"] = float(self.probe_transactions)
            metrics["calibrated_rate_tps"] = self.calibrated_rate_tps
            metrics["calibration_iterations"] = float(self.calibration_iterations)
            metrics["calibration_converged"] = float(self.calibration_converged)
            if self.probe_response_times_ms:
                metrics["probe_mean_response_time_ms"] = (
                    self.probe_mean_response_time_ms
                )
                metrics["probe_p95_response_time_ms"] = (
                    self.probe_response_percentile(0.95)
                )
        if self.has_steady_state:
            steady = self.steady_state()
            metrics["steady_response_time_ms"] = steady.point
            metrics["steady_response_ci_ms"] = steady.half_width
            metrics["steady_truncated"] = float(steady.truncated)
            metrics["steady_batches"] = float(steady.batches)
        if cluster:
            metrics["cluster_servers"] = float(len(self.server_ios))
            metrics["cluster_imbalance"] = self.cluster_imbalance
            metrics["cluster_max_utilization"] = self.cluster_max_utilization
            metrics["replica_lag_ms"] = self.replica_lag_ms
            if audited:
                metrics["stale_reads_per_1000_reads"] = self.stale_reads_per_1000_reads
            for index, peak in enumerate(self.apply_queue_peak):
                metrics[f"server{index}_apply_queue_peak"] = float(peak)
            for index, ios in enumerate(self.server_ios):
                metrics[f"server{index}_total_ios"] = float(ios)
                metrics[f"server{index}_accesses"] = float(self.server_accesses[index])
                metrics[f"server{index}_utilization"] = self.server_utilization(index)
        return metrics


#: The counter table: the :class:`PhaseResults` fields declared with
#: :func:`_counter`, in declaration order.
COUNTERS = tuple(row for row in fields(PhaseResults) if "source" in row.metadata)

#: The kernel perf counters of a replication, in report order: each
#: ``kernel`` key with the :class:`~repro.despy.engine.Simulation`
#: property it reads.
KERNEL_COUNTERS = (
    ("events_wheel_pushed", "events_wheel_pushed"),
    ("events_pooled_reused", "events_pooled_reused"),
    ("ticks_overflowed", "events_ticks_overflowed"),
    ("wheel_recalibrations", "events_wheel_recalibrations"),
    ("holds_warped", "events_holds_warped"),
)


@dataclass
class ClusteringReport:
    """Outcome of the Clustering Manager over one replication."""

    policy: str = "none"
    reorganizations: int = 0
    #: I/Os spent reorganizing the base (paper Table 6 "clustering
    #: overhead") — reads of old pages plus writes of new pages.
    overhead_reads: int = 0
    overhead_writes: int = 0
    clusters: int = 0
    clustered_objects: int = 0
    moved_objects: int = 0

    @property
    def overhead_ios(self) -> int:
        return self.overhead_reads + self.overhead_writes

    @property
    def mean_objects_per_cluster(self) -> float:
        """Paper Table 7 "mean number of obj./clust."."""
        if self.clusters == 0:
            return 0.0
        return self.clustered_objects / self.clusters

    def to_metrics(self) -> Dict[str, float]:
        return {
            "clustering_reorganizations": float(self.reorganizations),
            "clustering_overhead_ios": float(self.overhead_ios),
            "clustering_clusters": float(self.clusters),
            "clustering_objects_per_cluster": self.mean_objects_per_cluster,
            "clustering_moved_objects": float(self.moved_objects),
        }


@dataclass
class SimulationResults:
    """Complete results of one VOODB replication."""

    phase: PhaseResults
    clustering: ClusteringReport
    seed: int = 0
    #: Kernel perf counters of the whole replication (event-list fast
    #: paths, :data:`KERNEL_COUNTERS`; see :mod:`repro.despy.events`).
    #: Flattened as ``kernel_*`` metrics so the ``voodb scenario run
    #: --json`` output can report where the events of a scenario went.
    kernel: Dict[str, float] = field(default_factory=dict)

    # Convenience pass-throughs for the headline metrics -----------------
    @property
    def total_ios(self) -> int:
        return self.phase.total_ios

    @property
    def mean_response_time_ms(self) -> float:
        return self.phase.mean_response_time_ms

    @property
    def hit_rate(self) -> float:
        return self.phase.hit_rate

    def to_metrics(self) -> Dict[str, float]:
        metrics = self.phase.to_metrics()
        metrics.update(self.clustering.to_metrics())
        for name, value in self.kernel.items():
            metrics[f"kernel_{name}"] = float(value)
        return metrics
