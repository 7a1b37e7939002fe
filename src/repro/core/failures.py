"""Random hazards: benign and serious system failures (paper §5).

"VOODB could also take into account random hazards, like benign or
serious system failures, in order to observe how the studied OODB
behaves and recovers in critical conditions.  Such features could be
included in VOODB as new modules."  This is that module.

Two hazard classes, both Poisson processes in simulated time:

* **benign failures** — transient I/O faults (a bad sector, a
  controller hiccup): the affected disk operation is retried, paying
  ``transient_penalty_ms`` extra;
* **serious failures** — system crashes: every buffer frame is lost
  and the system is down for ``recovery_time_ms`` (log-replay style
  recovery) before the interrupted I/O completes; the workload resumes
  against a cold cache.

Hazards are sampled by *thinning on observation instants* rather than
by standing timer events (so workload phases still drain naturally):
transient faults are probed per disk operation
(:meth:`FailureInjector.io_penalty`), crashes per transaction boundary
(:meth:`FailureInjector.crash_check` — a warm-cache system that never
touches the disk still crashes).  Faults falling in an unobserved
window are folded into the next probe, which is when they would first
be noticed anyway.

Both hazards are disabled by default — the paper's validation
experiments ran on healthy systems; the failure ablation bench and
`examples` turn them on.

PR 10 grows this module into the full fault-model subsystem: beyond
the fail-stop hazards above, :class:`FaultConfig` describes *network
partitions* (interconnect link cuts between node groups, with heal
times) and *gray failures* (a degraded mode multiplying a node's
disk/interconnect service times instead of killing it), plus the
election delay and anti-entropy repair cadence of the recovery
machinery, and :class:`RetryConfig` the timeout/retry/backoff contract
every remote operation honours.  The cluster samples these on the same
thinning-on-observation-instants discipline, from per-node /
per-link seeded streams (``partitions``, ``gray-{i}``, ``retry-{i}``),
so every fault history is a pure function of the master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.despy.randomstream import RandomStream
from repro.despy.timebase import ms_to_ticks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


@dataclass(frozen=True)
class FailureConfig:
    """Hazard parameters (all disabled at their defaults)."""

    #: Mean simulated ms between transient I/O faults (0 = never).
    transient_mtbf_ms: float = 0.0
    #: Extra service time one transient fault costs (retry + repositioning).
    transient_penalty_ms: float = 25.0
    #: Mean simulated ms between system crashes (0 = never).
    crash_mtbf_ms: float = 0.0
    #: Downtime per crash (recovery: log replay, cache rebuild...).
    recovery_time_ms: float = 5_000.0

    def __post_init__(self) -> None:
        _check_rate("transient_mtbf_ms", self.transient_mtbf_ms)
        _check_rate("crash_mtbf_ms", self.crash_mtbf_ms)
        _check_duration("transient_penalty_ms", self.transient_penalty_ms)
        _check_duration("recovery_time_ms", self.recovery_time_ms)

    @property
    def enabled(self) -> bool:
        return self.transient_mtbf_ms > 0 or self.crash_mtbf_ms > 0


def _check_rate(name: str, value: float) -> None:
    """An MTBF/interval knob: 0 disables, otherwise finite and > 0."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(
            f"{name} must be a finite number, got {value!r} "
            f"(0 disables, a positive mean enables)"
        )
    if value < 0:
        raise ValueError(f"{name} must be >= 0 (0 disables), got {value!r}")


def _check_duration(
    name: str, value: float, minimum: float = 0.0
) -> None:
    """A duration knob: finite and >= ``minimum``."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}, got {value!r}")


@dataclass(frozen=True)
class RetryConfig:
    """The timeout/retry/backoff contract on remote operations.

    Every remote operation between cluster nodes — quorum-read
    consultations, replica ships, coordinator fetches — honours this
    contract when the fault layer is active: wait ``timeout_ms`` for
    the peer, back off exponentially (with deterministic jitter drawn
    from the *initiating* node's retry stream), and abandon the peer
    after ``max_retries`` retries instead of blocking forever.
    """

    #: How long one attempt waits before declaring the peer unresponsive.
    timeout_ms: float = 50.0
    #: Retries after the first attempt (total attempts = max_retries + 1).
    max_retries: int = 2
    #: Backoff before the first retry.
    backoff_base_ms: float = 5.0
    #: Multiplier applied to the backoff per further retry.
    backoff_multiplier: float = 2.0
    #: Jitter fraction: each backoff is scaled by 1 + jitter * U[0, 1).
    jitter: float = 0.25

    def __post_init__(self) -> None:
        _check_duration("timeout_ms", self.timeout_ms)
        if self.timeout_ms <= 0:
            raise ValueError(
                f"timeout_ms must be > 0, got {self.timeout_ms!r} "
                f"(a zero timeout would declare every peer dead)"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}"
            )
        _check_duration("backoff_base_ms", self.backoff_base_ms)
        if self.backoff_base_ms <= 0:
            raise ValueError(
                f"backoff_base_ms must be > 0, got {self.backoff_base_ms!r}"
            )
        _check_duration("backoff_multiplier", self.backoff_multiplier, 1.0)
        if (
            not isinstance(self.jitter, (int, float))
            or not math.isfinite(self.jitter)
            or not 0 <= self.jitter < 1
        ):
            raise ValueError(
                f"jitter must be in [0, 1), got {self.jitter!r}"
            )


@dataclass(frozen=True)
class FaultConfig:
    """The degraded-mode fault kinds and recovery machinery (PR 10).

    All disabled at the defaults; any of ``partition_mtbf_ms``,
    ``gray_mtbf_ms`` or ``repair_interval_ms`` > 0 switches the
    cluster onto the fault-tolerant serve path (elections, retry
    contract, anti-entropy) — see :attr:`enabled`.
    """

    #: Mean simulated ms between interconnect partitions (0 = never).
    partition_mtbf_ms: float = 0.0
    #: How long one partition lasts before the links heal.
    partition_heal_ms: float = 500.0
    #: Node groups a partition separates; () = bisect the cluster.
    partition_groups: Tuple[Tuple[int, ...], ...] = ()
    #: Mean simulated ms between gray episodes per node (0 = never).
    gray_mtbf_ms: float = 0.0
    #: How long one gray episode degrades a node.
    gray_heal_ms: float = 1_000.0
    #: Service-time multiplier a gray node suffers (disk + interconnect).
    gray_slowdown: float = 4.0
    #: Time a primary re-election takes before writes redirect.
    election_delay_ms: float = 50.0
    #: Anti-entropy repair cadence per node (0 = never).
    repair_interval_ms: float = 0.0

    def __post_init__(self) -> None:
        # YAML hands nested sequences as lists; normalise to tuples so
        # configs stay hashable and comparable.
        groups = tuple(tuple(group) for group in self.partition_groups)
        object.__setattr__(self, "partition_groups", groups)
        _check_rate("partition_mtbf_ms", self.partition_mtbf_ms)
        _check_rate("gray_mtbf_ms", self.gray_mtbf_ms)
        _check_rate("repair_interval_ms", self.repair_interval_ms)
        _check_duration("partition_heal_ms", self.partition_heal_ms)
        if self.partition_heal_ms <= 0:
            raise ValueError(
                f"partition_heal_ms must be > 0, "
                f"got {self.partition_heal_ms!r}"
            )
        _check_duration("gray_heal_ms", self.gray_heal_ms)
        if self.gray_heal_ms <= 0:
            raise ValueError(
                f"gray_heal_ms must be > 0, got {self.gray_heal_ms!r}"
            )
        _check_duration("gray_slowdown", self.gray_slowdown, 1.0)
        _check_duration("election_delay_ms", self.election_delay_ms)
        if groups:
            if self.partition_mtbf_ms <= 0:
                raise ValueError(
                    "partition_groups without partitions is inert "
                    "(did you mean to set partition_mtbf_ms > 0?)"
                )
            if len(groups) < 2:
                raise ValueError(
                    f"partition_groups needs >= 2 groups to cut links "
                    f"between, got {len(groups)}"
                )
            seen = set()
            for group in groups:
                if not group:
                    raise ValueError(
                        "partition_groups must not contain empty groups"
                    )
                for member in group:
                    if not isinstance(member, int) or member < 0:
                        raise ValueError(
                            f"partition group members must be node "
                            f"indices >= 0, got {member!r}"
                        )
                    if member in seen:
                        raise ValueError(
                            f"partition groups must be disjoint node "
                            f"subsets: node {member} appears twice"
                        )
                    seen.add(member)

    @property
    def enabled(self) -> bool:
        return (
            self.partition_mtbf_ms > 0
            or self.gray_mtbf_ms > 0
            or self.repair_interval_ms > 0
        )


class RetryPolicy:
    """:class:`RetryConfig` converted to ticks once, with the backoff
    ladder drawn deterministically from a caller-supplied stream."""

    __slots__ = ("config", "timeout", "max_retries", "_base", "_mult", "_jitter")

    def __init__(self, config: RetryConfig) -> None:
        self.config = config
        self.timeout = ms_to_ticks(config.timeout_ms)
        self.max_retries = config.max_retries
        self._base = ms_to_ticks(config.backoff_base_ms)
        self._mult = config.backoff_multiplier
        self._jitter = config.jitter

    def backoff_ticks(self, attempt: int, rng: RandomStream) -> int:
        """Backoff before retry ``attempt`` (0-based), >= 1 tick.

        The jitter draw comes from ``rng`` — the initiating node's
        retry stream — so backoff ladders are independent per node but
        a pure function of the master seed.
        """
        raw = self._base * (self._mult ** attempt)
        if self._jitter:
            raw *= 1.0 + self._jitter * rng.random()
        return max(1, int(raw))


class FailureInjector:
    """Draws hazards and charges them to the I/O subsystem.

    ``stream_label`` names the hazard random stream — the single-server
    assembly uses the default ``"failures"``; cluster nodes pass
    node-indexed labels so every node draws an independent (but still
    seed-deterministic) hazard history.
    """

    def __init__(
        self,
        sim: "Simulation",
        config: FailureConfig,
        memory,
        stream_label: str = "failures",
    ) -> None:
        self.sim = sim
        self.config = config
        self.memory = memory
        self._rng: RandomStream = sim.stream(stream_label)
        # Hazard parameters converted to ticks once; the per-operation
        # probes then stay in pure integer arithmetic.
        self._transient_mtbf = ms_to_ticks(config.transient_mtbf_ms)
        self._transient_penalty = ms_to_ticks(config.transient_penalty_ms)
        self._crash_mtbf = ms_to_ticks(config.crash_mtbf_ms)
        self._recovery_time = ms_to_ticks(config.recovery_time_ms)
        self._last_transient_check = 0
        self._last_crash_check = 0
        # Counters
        self.transient_faults = 0
        self.crashes = 0
        self.downtime_ticks = 0

    def io_penalty(self) -> int:
        """Extra service ticks the next disk operation owes to transient
        faults (benign hazards live at the I/O level)."""
        if self._transient_mtbf <= 0:
            return 0
        if self._draws_fault(
            self.sim.now, "_last_transient_check", self._transient_mtbf
        ):
            self.transient_faults += 1
            return self._transient_penalty
        return 0

    def crash_check(self) -> int:
        """Crash probe at a transaction boundary.

        Serious hazards are checked per transaction (they strike whether
        or not the workload happens to be touching the disk — a
        warm-cache system still crashes).  If a crash landed since the
        last check, the buffer is emptied here and the returned recovery
        downtime (ticks) must be held by the caller.
        """
        if self._crash_mtbf <= 0:
            return 0
        if self._draws_fault(
            self.sim.now, "_last_crash_check", self._crash_mtbf
        ):
            self.crashes += 1
            self.memory.invalidate_all()
            self.downtime_ticks += self._recovery_time
            # Recovery downtime is not hazard exposure: push both hazard
            # clocks past the window, so the next probe measures elapsed
            # *up* time only and a second crash cannot be drawn from time
            # the system spent recovering.
            resume = self.sim.now + self._recovery_time
            self._last_crash_check = resume
            if self._last_transient_check < resume:
                self._last_transient_check = resume
            return self._recovery_time
        return 0

    def _draws_fault(self, now: int, marker: str, mtbf: int) -> bool:
        """Poisson thinning: did >= 1 fault land since the last check?

        Multiple faults in one window fold into one (a controller retries
        once; a second crash during recovery is absorbed by it).  The
        marker never moves backwards: probes landing inside a recovery
        window (concurrent transactions run while one holds the
        recovery) see non-positive exposure and draw nothing.
        """
        last = getattr(self, marker)
        if now > last:
            setattr(self, marker, now)
        elapsed = now - last
        if elapsed <= 0:
            return False
        probability = 1.0 - math.exp(-elapsed / mtbf)
        return self._rng.bernoulli(probability)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FailureInjector transients={self.transient_faults} "
            f"crashes={self.crashes}>"
        )


class NoFailures:
    """Null injector used when hazards are disabled (zero overhead)."""

    transient_faults = 0
    crashes = 0
    downtime_ticks = 0

    @staticmethod
    def io_penalty() -> int:
        return 0

    @staticmethod
    def crash_check() -> int:
        return 0
