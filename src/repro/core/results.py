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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.despy.stats import MIN_STEADY_OBSERVATIONS, steady_state_estimate


@dataclass
class PhaseResults:
    """Metrics of one workload phase (a batch of transactions)."""

    transactions: int = 0
    object_accesses: int = 0
    #: Pages read from disk for transaction processing (usage reads).
    reads: int = 0
    #: Pages written to disk for transaction processing (dirty evictions).
    writes: int = 0
    #: Swap I/Os (virtual-memory model only; included in reads+writes? no:
    #: counted separately and *added* into total_ios).
    swap_reads: int = 0
    swap_writes: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    prefetched_pages: int = 0
    prefetch_hits: int = 0
    sequential_reads: int = 0
    network_messages: int = 0
    network_bytes: int = 0
    network_time_ms: float = 0.0
    lock_acquisitions: int = 0
    lock_waits: int = 0
    lock_wait_time_ms: float = 0.0
    response_time_sum_ms: float = 0.0
    response_time_max_ms: float = 0.0
    #: Per-transaction response times (ms) in completion order — the
    #: observation series behind the steady-state estimates.  Kept out
    #: of :meth:`to_metrics` itself (analyzers aggregate scalars); the
    #: MSER-5/batch-means summary derived from it goes in as the
    #: ``steady_*`` metrics.
    response_times_ms: Tuple[float, ...] = ()
    elapsed_ms: float = 0.0
    transactions_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Hazards charged during the phase (§5 failures module).
    transient_faults: int = 0
    crashes: int = 0
    downtime_ms: float = 0.0
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
    server_ios: Tuple[int, ...] = ()
    #: Page/object service operations each server node performed.
    server_accesses: Tuple[int, ...] = ()
    #: Disk busy time of each server node (ms).
    server_busy_ms: Tuple[float, ...] = ()
    #: Inter-server network traffic (replica propagation + forwarding).
    interconnect_messages: int = 0
    interconnect_bytes: int = 0
    #: Pages a home node fetched from a remote owner (object server).
    remote_fetches: int = 0
    #: Reads served by a non-primary replica (round-robin balancing).
    replica_reads: int = 0
    #: Page images propagated to non-primary replicas on writes.
    replica_writes: int = 0
    # -- Consistency spectrum (async replication + failover) --------------
    #: Reads that served a page version older than the last acknowledged
    #: write of that page (async replication lag made visible).
    stale_reads: int = 0
    #: Shipped page images the per-node appliers installed.
    replica_applies: int = 0
    #: Total enqueue-to-apply latency over all applies (ms).
    replica_lag_sum_ms: float = 0.0
    #: Reads rerouted away from a crashed replica.
    read_failovers: int = 0
    #: Writes that queued behind a crashed primary's recovery.
    write_recovery_waits: int = 0
    #: Peak apply-queue depth per server node (async mode only).
    apply_queue_peak: Tuple[int, ...] = ()
    # -- Fault-tolerance layer (FaultConfig / RetryConfig) -----------------
    #: Page reads the extended cluster path served (stale-rate base).
    cluster_reads: int = 0
    #: Whether the fault layer was active this phase (gates metrics).
    fault_layer: bool = False
    #: Interconnect partitions drawn this phase.
    partitions: int = 0
    #: Total simulated time some partition was active (ms).
    partition_ms: float = 0.0
    #: Gray (degraded-mode) episodes drawn across the nodes.
    gray_episodes: int = 0
    #: Reads served by a node while it was gray.
    degraded_reads: int = 0
    #: Remote-operation attempts that hit the timeout.
    remote_timeouts: int = 0
    #: Backoff-and-retry rounds taken after a timeout.
    remote_retries: int = 0
    #: Peers abandoned after exhausting the retry budget.
    abandoned_reads: int = 0
    #: Primary elections held (crashed or partitioned-away leaders).
    elections: int = 0
    #: Elections that promoted a different replica to primary.
    promotions: int = 0
    #: Stale page copies anti-entropy back-filled.
    repair_pages: int = 0
    #: Divergent replicas quorum reads repaired in place.
    read_repairs: int = 0

    # ------------------------------------------------------------------
    @property
    def total_ios(self) -> int:
        """Usage I/Os of the phase: reads + writes + swap traffic.

        This is the figure the paper plots ("mean number of I/Os" over
        the HOTN transactions, averaged across replications).
        """
        return self.reads + self.writes + self.swap_reads + self.swap_writes

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

    def to_metrics(self, prefix: str = "") -> Dict[str, float]:
        """Flatten to a metric dict for the ReplicationAnalyzer."""
        metrics = {
            f"{prefix}transactions": float(self.transactions),
            f"{prefix}object_accesses": float(self.object_accesses),
            f"{prefix}total_ios": float(self.total_ios),
            f"{prefix}reads": float(self.reads),
            f"{prefix}writes": float(self.writes),
            f"{prefix}swap_ios": float(self.swap_reads + self.swap_writes),
            f"{prefix}hit_rate": self.hit_rate,
            f"{prefix}sequential_reads": float(self.sequential_reads),
            f"{prefix}network_messages": float(self.network_messages),
            f"{prefix}network_bytes": float(self.network_bytes),
            f"{prefix}network_time_ms": self.network_time_ms,
            f"{prefix}lock_waits": float(self.lock_waits),
            f"{prefix}mean_response_time_ms": self.mean_response_time_ms,
            f"{prefix}throughput_tps": self.throughput_tps,
            f"{prefix}elapsed_ms": self.elapsed_ms,
            f"{prefix}transient_faults": float(self.transient_faults),
            f"{prefix}crashes": float(self.crashes),
            f"{prefix}downtime_ms": self.downtime_ms,
        }
        if self.aggregated:
            metrics[f"{prefix}aggregation_population"] = float(
                self.aggregation_population
            )
            metrics[f"{prefix}aggregate_transactions"] = float(
                self.aggregate_transactions
            )
            metrics[f"{prefix}probe_transactions"] = float(
                self.probe_transactions
            )
            metrics[f"{prefix}calibrated_rate_tps"] = self.calibrated_rate_tps
            metrics[f"{prefix}calibration_iterations"] = float(
                self.calibration_iterations
            )
            metrics[f"{prefix}calibration_converged"] = float(
                self.calibration_converged
            )
            if self.probe_response_times_ms:
                metrics[f"{prefix}probe_mean_response_time_ms"] = (
                    self.probe_mean_response_time_ms
                )
                metrics[f"{prefix}probe_p95_response_time_ms"] = (
                    self.probe_response_percentile(0.95)
                )
        if self.has_steady_state:
            steady = self.steady_state()
            metrics[f"{prefix}steady_response_time_ms"] = steady.point
            metrics[f"{prefix}steady_response_ci_ms"] = steady.half_width
            metrics[f"{prefix}steady_truncated"] = float(steady.truncated)
            metrics[f"{prefix}steady_batches"] = float(steady.batches)
        if self.server_ios:
            metrics[f"{prefix}cluster_servers"] = float(len(self.server_ios))
            metrics[f"{prefix}cluster_imbalance"] = self.cluster_imbalance
            metrics[f"{prefix}cluster_max_utilization"] = (
                self.cluster_max_utilization
            )
            metrics[f"{prefix}interconnect_messages"] = float(
                self.interconnect_messages
            )
            metrics[f"{prefix}interconnect_bytes"] = float(
                self.interconnect_bytes
            )
            metrics[f"{prefix}remote_fetches"] = float(self.remote_fetches)
            metrics[f"{prefix}replica_reads"] = float(self.replica_reads)
            metrics[f"{prefix}replica_writes"] = float(self.replica_writes)
            metrics[f"{prefix}stale_reads"] = float(self.stale_reads)
            metrics[f"{prefix}replica_applies"] = float(self.replica_applies)
            metrics[f"{prefix}replica_lag_ms"] = self.replica_lag_ms
            metrics[f"{prefix}read_failovers"] = float(self.read_failovers)
            metrics[f"{prefix}write_recovery_waits"] = float(
                self.write_recovery_waits
            )
            if self.cluster_reads:
                metrics[f"{prefix}cluster_reads"] = float(self.cluster_reads)
                metrics[f"{prefix}stale_reads_per_1000_reads"] = (
                    self.stale_reads_per_1000_reads
                )
            if self.fault_layer:
                metrics[f"{prefix}partitions"] = float(self.partitions)
                metrics[f"{prefix}partition_ms"] = self.partition_ms
                metrics[f"{prefix}gray_episodes"] = float(self.gray_episodes)
                metrics[f"{prefix}degraded_reads"] = float(
                    self.degraded_reads
                )
                metrics[f"{prefix}remote_timeouts"] = float(
                    self.remote_timeouts
                )
                metrics[f"{prefix}remote_retries"] = float(
                    self.remote_retries
                )
                metrics[f"{prefix}abandoned_reads"] = float(
                    self.abandoned_reads
                )
                metrics[f"{prefix}elections"] = float(self.elections)
                metrics[f"{prefix}promotions"] = float(self.promotions)
                metrics[f"{prefix}repair_pages"] = float(self.repair_pages)
                metrics[f"{prefix}read_repairs"] = float(self.read_repairs)
            for index, peak in enumerate(self.apply_queue_peak):
                metrics[f"{prefix}server{index}_apply_queue_peak"] = float(
                    peak
                )
            for index, ios in enumerate(self.server_ios):
                metrics[f"{prefix}server{index}_total_ios"] = float(ios)
                metrics[f"{prefix}server{index}_accesses"] = float(
                    self.server_accesses[index]
                )
                metrics[f"{prefix}server{index}_utilization"] = (
                    self.server_utilization(index)
                )
        return metrics


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

    def to_metrics(self, prefix: str = "clustering_") -> Dict[str, float]:
        return {
            f"{prefix}reorganizations": float(self.reorganizations),
            f"{prefix}overhead_ios": float(self.overhead_ios),
            f"{prefix}clusters": float(self.clusters),
            f"{prefix}objects_per_cluster": self.mean_objects_per_cluster,
            f"{prefix}moved_objects": float(self.moved_objects),
        }


@dataclass
class SimulationResults:
    """Complete results of one VOODB replication."""

    phase: PhaseResults
    clustering: ClusteringReport
    seed: int = 0
    #: Results of extra phases keyed by the name given to ``run_phase``.
    extra_phases: Dict[str, PhaseResults] = field(default_factory=dict)
    #: Kernel perf counters of the whole replication (event-list fast
    #: paths; see :mod:`repro.despy.events`).  Flattened as ``kernel_*``
    #: metrics so the ``voodb scenario run --json`` output can report
    #: where the events of a scenario went.
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
        for name, phase in self.extra_phases.items():
            metrics.update(phase.to_metrics(prefix=f"{name}_"))
        for name, value in self.kernel.items():
            metrics[f"kernel_{name}"] = float(value)
        return metrics
