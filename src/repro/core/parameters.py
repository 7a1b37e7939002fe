"""VOODB's parameter set (paper Table 3).

Every active resource of the knowledge model carries parameters; this
module gathers them into one immutable :class:`VOODBConfig`, keyed by the
codes the paper prints (SYSCLASS, NETTHRU, PGSIZE, BUFFSIZE, PGREP,
PREFETCH, CLUSTP, INITPL, DISKSEA, DISKLAT, DISKTRA, MULTILVL, GETLOCK,
RELLOCK, NUSERS).  Defaults are the Table 3 defaults.

Paper Table 4 instantiates this config twice — for O2 and for Texas —
and :mod:`repro.systems` ships those instantiations ready-made.

Time unit: **milliseconds** of simulated time throughout (the disk
parameters are given in ms in Table 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from repro.core.failures import FailureConfig, FaultConfig, RetryConfig
from repro.core.overrides import checked_replace
from repro.ocb.parameters import OCBConfig

#: Page sizes Table 3 allows for PGSIZE.
ALLOWED_PAGE_SIZES = (512, 1024, 2048, 4096)


def _default_failures() -> FailureConfig:
    return FailureConfig()


class SystemClass(str, Enum):
    """Table 3 "System class": the Client-Server organization to model.

    §3.3: VOODB "is especially suitable to page server systems (like
    ObjectStore or O2), but can also be used to model object server
    systems (like ORION or ONTOS), or database server systems, or even
    multiserver hybrid systems (like GemStone)".
    """

    CENTRALIZED = "centralized"
    OBJECT_SERVER = "object_server"
    PAGE_SERVER = "page_server"
    DB_SERVER = "db_server"


class MemoryModel(str, Enum):
    """How main memory holds pages.

    ``BUFFER`` — a classic database buffer of BUFFSIZE page frames
    (O2's server cache).  ``VIRTUAL_MEMORY`` — the OS-paged model Texas
    relies on (§4.3.2): loading a page *reserves* frames for every page
    it references, and memory pressure turns those reservations into
    swap I/Os.
    """

    BUFFER = "buffer"
    VIRTUAL_MEMORY = "virtual_memory"


class ArrivalMode(str, Enum):
    """How transactions enter the system.

    ``CLOSED`` — the Table 3 population model: NUSERS user processes in
    a submit/think cycle (the validation experiments).  ``POISSON`` —
    open system, arrivals at a constant rate with exponential gaps.
    ``MMPP`` — open system, bursty arrivals from a two-state
    Markov-modulated Poisson source (calm rate / burst rate).
    """

    CLOSED = "closed"
    POISSON = "poisson"
    MMPP = "mmpp"


@dataclass(frozen=True)
class ArrivalConfig:
    """Transaction arrival process (closed by default, like the paper).

    Rates are in transactions **per simulated second**; dwell times in
    simulated milliseconds.  The MMPP source starts calm, bursts for an
    exponential ``mean_burst_ms`` at ``burst_rate_tps``, then calms
    again — see :mod:`repro.despy.arrivals`.  A general *k*-phase MMPP
    is configured through ``phase_rates_tps``/``phase_dwell_ms``
    instead; the two-state calm/burst fields are then ignored.

    Every knob is validated **eagerly** at construction: a non-positive
    or non-finite phase rate, a zero-length phase vector, or mismatched
    vector lengths raise :class:`ValueError` here, not deep inside the
    arrival generator mid-replication.
    """

    #: Arrival mode (closed | poisson | mmpp).
    mode: ArrivalMode = ArrivalMode.CLOSED
    #: Mean arrival rate (Poisson), or the calm-state rate (MMPP).
    rate_tps: float = 0.0
    #: Burst-state arrival rate (MMPP only).
    burst_rate_tps: float = 0.0
    #: Mean dwell in the calm state before a burst (MMPP only).
    mean_calm_ms: float = 10_000.0
    #: Mean burst duration (MMPP only).
    mean_burst_ms: float = 1_000.0
    #: General MMPP phase rates (per second), cycled 0 -> 1 -> ... -> 0.
    #: ``None`` (default) = use the two-state calm/burst fields.
    phase_rates_tps: Optional[Tuple[float, ...]] = None
    #: Mean dwell (ms) in each phase; must pair with ``phase_rates_tps``.
    phase_dwell_ms: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ArrivalMode):
            object.__setattr__(self, "mode", ArrivalMode(self.mode))
        for name in ("phase_rates_tps", "phase_dwell_ms"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.mode is ArrivalMode.POISSON:
            self._check_rate("rate_tps", self.rate_tps)
        if self.mode is ArrivalMode.MMPP:
            self._check_mmpp()
        elif self.phase_rates_tps is not None or self.phase_dwell_ms is not None:
            raise ValueError(
                "phase_rates_tps/phase_dwell_ms only apply to mmpp arrivals, "
                f"not mode {self.mode.value!r}"
            )
        if self.rate_tps < 0 or self.burst_rate_tps < 0:
            raise ValueError("arrival rates must be >= 0")

    @staticmethod
    def _check_rate(name: str, value: float) -> None:
        if not (value > 0) or not math.isfinite(value):
            raise ValueError(f"{name} must be finite and > 0, got {value}")

    @staticmethod
    def _check_dwell(name: str, value: float) -> None:
        if not (value > 0) or not math.isfinite(value):
            raise ValueError(
                f"dwell time {name} must be finite and > 0, got {value}"
            )

    def _check_mmpp(self) -> None:
        rates, dwells = self.phase_rates_tps, self.phase_dwell_ms
        if (rates is None) != (dwells is None):
            raise ValueError(
                "mmpp phase vectors come in pairs: give both phase_rates_tps "
                "and phase_dwell_ms, or neither"
            )
        if rates is not None and dwells is not None:
            if not rates or not dwells:
                raise ValueError("mmpp phase vectors must not be zero-length")
            if len(rates) != len(dwells):
                raise ValueError(
                    f"mmpp phase vectors must pair up, got {len(rates)} rates "
                    f"and {len(dwells)} dwell times"
                )
            if len(rates) < 2:
                raise ValueError(
                    f"an mmpp needs at least two phases, got {len(rates)}"
                )
            for index, rate in enumerate(rates):
                self._check_rate(f"phase_rates_tps[{index}]", rate)
            for index, dwell in enumerate(dwells):
                self._check_dwell(f"phase_dwell_ms[{index}]", dwell)
            return
        self._check_rate("rate_tps", self.rate_tps)
        self._check_rate("burst_rate_tps", self.burst_rate_tps)
        self._check_dwell("mean_calm_ms", self.mean_calm_ms)
        self._check_dwell("mean_burst_ms", self.mean_burst_ms)

    @property
    def open(self) -> bool:
        """Whether this is an open-system (source-driven) arrival mode."""
        return self.mode is not ArrivalMode.CLOSED

    def interarrivals(self, stream):
        """Infinite interarrival-gap generator over ``stream`` (ms).

        Only meaningful for open modes; the closed mode has no arrival
        point process (the population is fixed).
        """
        from repro.despy.arrivals import mmpp_interarrivals, poisson_interarrivals

        if self.mode is ArrivalMode.POISSON:
            return poisson_interarrivals(stream, self.rate_tps)
        if self.mode is ArrivalMode.MMPP:
            if self.phase_rates_tps is not None:
                return mmpp_interarrivals(
                    stream, self.phase_rates_tps, self.phase_dwell_ms
                )
            return mmpp_interarrivals(
                stream,
                (self.rate_tps, self.burst_rate_tps),
                (self.mean_calm_ms, self.mean_burst_ms),
            )
        raise ValueError("closed arrivals have no interarrival process")


@dataclass(frozen=True)
class AggregationConfig:
    """Flow aggregation: a large closed population as an open stream.

    A closed population of ``population`` users with think time Z and
    response time R submits, in steady state, at the interactive-law
    rate λ = population / (Z + R(λ)).  When enabled (``population > 0``)
    the model replaces the one-process-per-user closed loop with a
    calibrated open arrival source at that fixed-point rate (solved by
    :mod:`repro.core.aggregation` from short pilot runs), plus a
    ``probe_cohort`` of real closed-loop user processes riding alongside
    the stream so per-user latency percentiles stay observable.  Z is
    the workload's ``ocb.thinktime`` — the same knob the closed loop
    uses, so an aggregated run and its full per-user twin share one
    think-time source of truth.

    Every knob is validated **eagerly** at construction, with
    did-you-mean guidance where a neighbouring knob is the likely fix —
    the λ = N/Z seed rate divides by the think time, so a zero think
    time must fail here, not as a ZeroDivisionError mid-calibration.
    """

    #: Simulated user population (0 = aggregation disabled).
    population: int = 0
    #: Real closed-loop user processes observing per-user latency.
    probe_cohort: int = 20
    #: Relative convergence tolerance of the fixed-point rate solve.
    tolerance: float = 0.05
    #: Calibration iteration cap (each iteration is one pilot run).
    max_iterations: int = 8
    #: Transactions per calibration pilot run (MSER-5 needs >= 10).
    pilot_transactions: int = 150
    #: Seed of the calibration pilot runs — pinned independently of the
    #: replication seeds so the calibrated rate is a pure function of
    #: the config, identical across replications and executors.
    pilot_seed: int = 104729

    def __post_init__(self) -> None:
        if self.population < 0:
            raise ValueError(
                f"population must be >= 0 (0 disables aggregation), "
                f"got {self.population}"
            )
        if self.probe_cohort < 0:
            raise ValueError(
                f"probe_cohort must be >= 0, got {self.probe_cohort}"
            )
        if not self.enabled:
            return
        if self.probe_cohort >= self.population:
            raise ValueError(
                f"probe_cohort {self.probe_cohort} must be smaller than the "
                f"population {self.population} (did you mean a plain closed "
                "run with nusers instead of aggregation?)"
            )
        if not (0.0 < self.tolerance < 1.0) or not math.isfinite(self.tolerance):
            raise ValueError(
                f"tolerance must be in (0, 1), got {self.tolerance}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.pilot_transactions < 10:
            raise ValueError(
                f"pilot_transactions must be >= 10 (the MSER-5 steady-state "
                f"floor), got {self.pilot_transactions}"
            )
        if self.pilot_seed < 0:
            raise ValueError(f"pilot_seed must be >= 0, got {self.pilot_seed}")

    @property
    def enabled(self) -> bool:
        """Whether the aggregated source tier is active."""
        return self.population > 0


def check_aggregation_think_time(thinktime: float) -> None:
    """Eagerly reject a think time the interactive law cannot use.

    The calibration seeds its fixed point at λ0 = population/Z, so a
    zero/negative/non-finite Z must fail at configuration time with a
    message naming the knob to fix — not as a bare ZeroDivisionError
    deep inside the pilot runs (the old ``Users`` launch-time failure
    mode).
    """
    if not (thinktime > 0) or not math.isfinite(thinktime):
        raise ValueError(
            "aggregated arrivals derive their rate from "
            "population / (thinktime + response_time), so the think time "
            f"must be finite and > 0 ms, got {thinktime!r} "
            "(did you mean to set 'thinktime' in the ocb config section?)"
        )


#: Shard-placement strategies a :class:`ClusterConfig` may select.
ALLOWED_PLACEMENTS = ("hash", "range")

#: Replication modes a :class:`ReplicationConfig` may select.
ALLOWED_REPLICATION_MODES = ("sync", "async")


@dataclass(frozen=True)
class ReplicationConfig:
    """The consistency spectrum of a replicated cluster.

    ``mode = "sync"`` (the default) is the original semantics: a write
    installs the page image at every replica inside the transaction, so
    replicas are never stale and none of the other knobs apply (they
    must stay at their defaults).

    ``mode = "async"`` decouples propagation from the write: the primary
    applies immediately and ships the page image to each non-primary
    replica's **apply queue**, drained by a per-node applier process —
    replicas lag, reads can be stale, and the knobs below trade
    consistency back in:

    * ``write_quorum`` W — the writer only returns once the primary plus
      the first W-1 successor replicas have applied the image;
    * ``read_quorum`` R — a read consults R replicas (version probes
      over the interconnect) and serves from the freshest.  With
      R + W > replication a read always sees the last acknowledged
      write;
    * ``read_your_writes`` / ``monotonic_reads`` — session guarantees:
      reads are routed to a replica that has applied, respectively, the
      latest write of the page or at least the freshest version any
      earlier read served (falling back to the primary);
    * ``apply_delay_ms`` — per-image apply cost at the replica (log
      replay, index maintenance), the main source of replication lag.
    """

    #: Replication mode ("sync" | "async").
    mode: str = "sync"
    #: Replicas a read consults before serving (async mode).
    read_quorum: int = 1
    #: Applied copies a write waits for before returning (async mode).
    write_quorum: int = 1
    #: Route reads to a replica that applied the session's own writes.
    read_your_writes: bool = False
    #: Never serve a version older than one already served.
    monotonic_reads: bool = False
    #: Apply cost per shipped page image at a replica (async mode).
    apply_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ALLOWED_REPLICATION_MODES:
            raise ValueError(
                f"replication mode must be one of "
                f"{ALLOWED_REPLICATION_MODES}, got {self.mode!r}"
            )
        if self.read_quorum < 1 or self.write_quorum < 1:
            raise ValueError(
                f"read/write quorums must be >= 1, got "
                f"R={self.read_quorum} W={self.write_quorum}"
            )
        if not (self.apply_delay_ms >= 0) or not math.isfinite(
            self.apply_delay_ms
        ):
            raise ValueError(
                f"apply_delay_ms must be finite and >= 0, "
                f"got {self.apply_delay_ms}"
            )
        if self.mode == "sync" and (
            self.read_quorum != 1
            or self.write_quorum != 1
            or self.read_your_writes
            or self.monotonic_reads
            or self.apply_delay_ms != 0.0
        ):
            raise ValueError(
                "sync replication installs every write at every replica "
                "inside the transaction; quorums, session guarantees and "
                "apply delays only apply to mode 'async' "
                "(did you mean mode: async?)"
            )

    @property
    def is_async(self) -> bool:
        """Whether the asynchronous apply-queue machinery is active."""
        return self.mode == "async"


@dataclass(frozen=True)
class ClusterConfig:
    """Multi-server cluster topology (§3.3's "multiserver hybrid systems").

    ``servers = 0`` (the default) disables the cluster layer entirely —
    the paper's single-server assembly.  ``servers >= 1`` shards the
    object base over that many server nodes, each with its own buffer,
    disk and lock table (see :mod:`repro.core.cluster`); a one-node
    cluster is the scale-out ramp's baseline point.

    ``placement`` picks the shard router: ``"hash"`` scatters pages
    uniformly (Fibonacci hashing over the page id), ``"range"`` keeps
    contiguous page runs on one node.  ``replication`` stores every
    page on that many consecutive nodes — reads balance round-robin
    over the replicas, writes propagate to all of them across the
    inter-server network (synchronously inside the transaction by
    default; :class:`ReplicationConfig` switches the propagation
    discipline).  ``interconnect_mbps`` throttles that network
    (``math.inf`` = free, like Table 4's NETTHRU).
    """

    #: Number of server nodes (0 = no cluster layer).
    servers: int = 0
    #: Shard placement strategy ("hash" | "range").
    placement: str = "hash"
    #: Copies of every page (1 = no replication).
    replication: int = 1
    #: Inter-server network throughput in MB/s (inf = free).
    interconnect_mbps: float = math.inf
    #: Salt for the hash router (placement is still seed-independent
    #: across replications: it is part of the frozen config).
    placement_seed: int = 0

    def __post_init__(self) -> None:
        if self.servers < 0:
            raise ValueError(f"servers must be >= 0, got {self.servers}")
        if self.placement not in ALLOWED_PLACEMENTS:
            raise ValueError(
                f"placement must be one of {ALLOWED_PLACEMENTS}, "
                f"got {self.placement!r}"
            )
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.enabled and self.replication > self.servers:
            raise ValueError(
                f"replication {self.replication} exceeds the "
                f"{self.servers}-server cluster"
            )
        if not (self.interconnect_mbps > 0):
            raise ValueError(
                f"interconnect_mbps must be > 0 (or inf), "
                f"got {self.interconnect_mbps}"
            )

    @property
    def enabled(self) -> bool:
        """Whether the cluster layer is active."""
        return self.servers > 0


@dataclass(frozen=True)
class VOODBConfig:
    """One instance of the generic evaluation model (paper Table 3).

    Field comments carry the Table 3 parameter codes.  Fields marked
    [reconstructed] are knobs the model needs that Table 3 derives "from
    the specification and configuration of the hardware and software
    systems" rather than printing.
    """

    # -- System ---------------------------------------------------------
    #: SYSCLASS — system class (default: page server, like O2).
    sysclass: SystemClass = SystemClass.PAGE_SERVER
    #: NETTHRU — network throughput in MB/s (``math.inf`` = infinitely
    #: fast network, which is how Table 4 configures O2's local setup).
    netthru: float = 1.0

    # -- Buffering Manager ----------------------------------------------
    #: PGSIZE — disk page size in bytes (512 | 1024 | 2048 | 4096).
    pgsize: int = 4096
    #: BUFFSIZE — buffer size in pages.
    buffsize: int = 500
    #: PGREP — buffer page replacement strategy (registry key; Table 3
    #: lists RANDOM | FIFO | LFU | LRU-K | CLOCK | GCLOCK; default LRU-1).
    pgrep: str = "LRU"
    #: PREFETCH — prefetching policy ("none" per Table 3 default; the §5
    #: extension policies are registered under "one_ahead"/"cluster").
    prefetch: str = "none"
    #: [reconstructed] memory model: database buffer vs OS virtual memory.
    memory_model: MemoryModel = MemoryModel.BUFFER

    # -- Clustering Manager ----------------------------------------------
    #: CLUSTP — object clustering policy ("none" | "dstc" | "greedy").
    clustp: str = "none"
    #: INITPL — objects initial placement.
    initpl: str = "optimized_sequential"

    # -- I/O Subsystem ----------------------------------------------------
    #: DISKSEA — disk search (seek) time in ms.
    disksea: float = 7.4
    #: DISKLAT — disk latency time in ms.
    disklat: float = 4.3
    #: DISKTRA — disk transfer time in ms.
    disktra: float = 0.5
    #: [reconstructed] apply the Figure 5 contiguous-page shortcut (skip
    #: search+latency when the requested page follows the previous one).
    #: Always on in the paper; exposed for the ablation benches.
    sequential_optimization: bool = True

    # -- Transaction Manager ----------------------------------------------
    #: MULTILVL — multiprogramming level (max concurrent transactions).
    multilvl: int = 10
    #: GETLOCK — lock acquisition time in ms (per lock).
    getlock: float = 0.5
    #: RELLOCK — lock release time in ms (per lock).
    rellock: float = 0.5

    # -- Users -------------------------------------------------------------
    #: NUSERS — number of users submitting transactions concurrently.
    nusers: int = 1
    #: [extension] how transactions arrive: the closed NUSERS loop
    #: (default, Table 3) or an open-system source (Poisson / MMPP) —
    #: see :class:`ArrivalConfig` and :mod:`repro.despy.arrivals`.
    arrivals: "ArrivalConfig" = field(default_factory=lambda: ArrivalConfig())
    #: [extension] flow aggregation: collapse a large closed population
    #: into a calibrated open stream plus a probe cohort (disabled by
    #: default) — see :class:`AggregationConfig` and
    #: :mod:`repro.core.aggregation`.
    aggregation: "AggregationConfig" = field(
        default_factory=lambda: AggregationConfig()
    )

    # -- Cluster topology (extension) ---------------------------------------
    #: [extension] multi-server cluster layout (disabled by default) —
    #: see :class:`ClusterConfig` and :mod:`repro.core.cluster`.
    cluster: "ClusterConfig" = field(default_factory=lambda: ClusterConfig())
    #: [extension] replica consistency spectrum (sync by default) — see
    #: :class:`ReplicationConfig`; async mode requires a cluster.
    replication: "ReplicationConfig" = field(
        default_factory=lambda: ReplicationConfig()
    )

    # -- Reconstructed system knobs ----------------------------------------
    #: [reconstructed] storage overhead factor: usable bytes per page =
    #: PGSIZE / storage_overhead.  Chosen per system so the stored base
    #: matches the sizes the paper states (§4.3/§4.4: ~28 MB in O2 and
    #: ~21 MB in Texas for the same NC=50/NO=20 000 OCB base).
    storage_overhead: float = 1.0
    #: [reconstructed] CPU time per object operation in ms (response-time
    #: accounting only; the paper validates on I/O counts).
    cpu_per_object: float = 0.005
    #: [reconstructed] client-side cache in pages (page/object servers).
    #: Table 4 models only the server buffer, hence 0.
    client_buffsize: int = 0
    #: [reconstructed] size in bytes of a request/control message.
    message_bytes: int = 128

    # -- Random hazards (§5 extension module) --------------------------------
    #: Failure injection parameters (disabled by default; see
    #: :mod:`repro.core.failures`).
    failures: "FailureConfig" = field(default_factory=lambda: _default_failures())
    #: [extension] fault-tolerance layer: partitions, gray failures and
    #: the election/anti-entropy recovery machinery (disabled by
    #: default; needs a cluster) — see :class:`~repro.core.failures.FaultConfig`.
    faults: "FaultConfig" = field(default_factory=lambda: FaultConfig())
    #: [extension] timeout/retry/backoff contract on remote operations
    #: (only meaningful with the fault layer active) — see
    #: :class:`~repro.core.failures.RetryConfig`.
    retry: "RetryConfig" = field(default_factory=lambda: RetryConfig())

    # -- Workload -----------------------------------------------------------
    #: The embedded OCB benchmark configuration (§3.3).
    ocb: OCBConfig = field(default_factory=OCBConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.sysclass, SystemClass):
            object.__setattr__(self, "sysclass", SystemClass(self.sysclass))
        if not isinstance(self.memory_model, MemoryModel):
            object.__setattr__(self, "memory_model", MemoryModel(self.memory_model))
        if self.pgsize not in ALLOWED_PAGE_SIZES:
            raise ValueError(
                f"pgsize must be one of {ALLOWED_PAGE_SIZES}, got {self.pgsize}"
            )
        if self.buffsize < 1:
            raise ValueError(f"buffsize must be >= 1, got {self.buffsize}")
        if self.netthru <= 0:
            raise ValueError(f"netthru must be > 0 (or inf), got {self.netthru}")
        for name in ("disksea", "disklat", "disktra"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.multilvl < 1:
            raise ValueError(f"multilvl must be >= 1, got {self.multilvl}")
        if self.getlock < 0 or self.rellock < 0:
            raise ValueError("lock times must be >= 0")
        if self.nusers < 1:
            raise ValueError(f"nusers must be >= 1, got {self.nusers}")
        if self.storage_overhead < 1.0:
            raise ValueError(
                f"storage_overhead must be >= 1.0, got {self.storage_overhead}"
            )
        if self.cpu_per_object < 0:
            raise ValueError("cpu_per_object must be >= 0")
        if self.client_buffsize < 0:
            raise ValueError("client_buffsize must be >= 0")
        if self.message_bytes < 0:
            raise ValueError("message_bytes must be >= 0")
        if self.memory_model is MemoryModel.VIRTUAL_MEMORY and self.prefetch != "none":
            raise ValueError(
                "prefetching stages pages into a database buffer; the "
                "virtual-memory model has none, got "
                f"prefetch={self.prefetch!r} (did you mean prefetch 'none'?)"
            )
        if self.cluster.enabled:
            self._check_cluster_combination()
        elif self.replication != ReplicationConfig():
            raise ValueError(
                "replication consistency settings need a cluster topology "
                "(set cluster.servers >= 1 and cluster.replication >= 2)"
            )
        if not self.cluster.enabled:
            if self.faults.enabled:
                raise ValueError(
                    "the fault-tolerance layer (partitions, gray failures, "
                    "anti-entropy) needs a cluster topology "
                    "(set cluster.servers >= 1)"
                )
            if self.retry != RetryConfig():
                raise ValueError(
                    "the retry contract governs remote operations between "
                    "cluster nodes and needs a cluster topology "
                    "(set cluster.servers >= 1)"
                )
        if self.aggregation.enabled:
            self._check_aggregation_combination()

    def _check_aggregation_combination(self) -> None:
        """Reject combinations the aggregated source tier cannot honour.

        Eager, like :meth:`_check_cluster_combination`: the error names
        the knob at configuration time, before any pilot run starts.
        """
        check_aggregation_think_time(self.ocb.thinktime)
        if self.arrivals.open:
            raise ValueError(
                "aggregation replaces the arrival process with its own "
                "calibrated open stream and cannot combine with "
                f"arrivals.mode={self.arrivals.mode.value!r} "
                "(did you mean arrivals mode 'closed', the default?)"
            )

    def _check_cluster_combination(self) -> None:
        """Reject model combinations the cluster layer does not support.

        Failing here (eagerly, at config construction) keeps the error
        close to the knob that caused it; the gated features are the
        post-cluster follow-ups tracked in the ROADMAP.
        """
        if self.sysclass not in (
            SystemClass.PAGE_SERVER,
            SystemClass.OBJECT_SERVER,
        ):
            raise ValueError(
                "cluster topologies support page_server and object_server "
                f"system classes only, got {self.sysclass.value!r}"
            )
        if self.memory_model is not MemoryModel.BUFFER:
            raise ValueError(
                "cluster topologies require the buffer memory model "
                "(per-server virtual memory is not modeled)"
            )
        if self.clustp != "none":
            raise ValueError(
                "cluster topologies do not support clustering policies yet, "
                f"got clustp={self.clustp!r}"
            )
        if self.prefetch != "none":
            raise ValueError(
                "cluster topologies do not support prefetching yet, "
                f"got prefetch={self.prefetch!r}"
            )
        replicas = self.cluster.replication
        if (
            self.replication.read_quorum > replicas
            or self.replication.write_quorum > replicas
        ):
            raise ValueError(
                f"read/write quorums (R={self.replication.read_quorum}, "
                f"W={self.replication.write_quorum}) cannot exceed the "
                f"replication factor {replicas}"
            )
        if self.faults.enabled:
            self._check_fault_combination()
        elif self.retry != RetryConfig():
            raise ValueError(
                "retry/timeout settings are inert without the fault layer "
                "(did you mean to set faults.partition_mtbf_ms, "
                "faults.gray_mtbf_ms or faults.repair_interval_ms?)"
            )

    def _check_fault_combination(self) -> None:
        """Reject fault-layer combinations the recovery machinery cannot
        honour, eagerly and naming the offending knob."""
        if self.cluster.replication > 1 and not self.replication.is_async:
            raise ValueError(
                "the fault-tolerance layer repairs replicas and re-elects "
                "primaries through the asynchronous apply machinery; a "
                "replicated cluster under faults needs replication mode "
                "'async' (did you mean mode: async?)"
            )
        servers = self.cluster.servers
        if self.faults.partition_mtbf_ms > 0 and servers < 2:
            raise ValueError(
                "network partitions need >= 2 servers to cut links "
                f"between, got cluster.servers={servers}"
            )
        groups = self.faults.partition_groups
        if groups:
            members = {m for group in groups for m in group}
            if members != set(range(servers)):
                raise ValueError(
                    f"partition_groups must cover every node of the "
                    f"{servers}-server cluster exactly once, got groups "
                    f"over nodes {sorted(members)} "
                    f"(expected {sorted(range(servers))})"
                )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def usable_page_bytes(self) -> int:
        """Object payload a page holds once storage overhead is paid."""
        return max(1, int(self.pgsize / self.storage_overhead))

    @property
    def random_io_time(self) -> float:
        """Search + latency + transfer: the cost of a non-sequential I/O."""
        return self.disksea + self.disklat + self.disktra

    @property
    def sequential_io_time(self) -> float:
        """Transfer only — the Figure 5 contiguous-page shortcut."""
        return self.disktra

    @property
    def network_ms_per_byte(self) -> float:
        """Milliseconds to push one byte at NETTHRU MB/s (0 if infinite)."""
        if math.isinf(self.netthru):
            return 0.0
        bytes_per_ms = self.netthru * (2**20) / 1000.0
        return 1.0 / bytes_per_ms

    # Tick-domain variants of the timing knobs: the model layer converts
    # each millisecond parameter ONCE (at subsystem init) and runs the
    # whole hot path in integer ticks (see repro.despy.timebase).
    @property
    def random_io_ticks(self) -> int:
        from repro.despy.timebase import ms_to_ticks

        return ms_to_ticks(self.random_io_time)

    @property
    def sequential_io_ticks(self) -> int:
        from repro.despy.timebase import ms_to_ticks

        return ms_to_ticks(self.sequential_io_time)

    @property
    def getlock_ticks(self) -> int:
        from repro.despy.timebase import ms_to_ticks

        return ms_to_ticks(self.getlock)

    @property
    def rellock_ticks(self) -> int:
        from repro.despy.timebase import ms_to_ticks

        return ms_to_ticks(self.rellock)

    @property
    def cpu_per_object_ticks(self) -> int:
        from repro.despy.timebase import ms_to_ticks

        return ms_to_ticks(self.cpu_per_object)

    def buffer_bytes(self) -> int:
        return self.buffsize * self.pgsize

    def with_changes(self, **changes) -> "VOODBConfig":
        """Return a validated copy with the given fields replaced.

        Unknown keys raise :class:`ValueError` naming the key and the
        closest valid field (see :mod:`repro.core.overrides`).
        """
        return checked_replace(self, changes)
