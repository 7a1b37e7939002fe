"""Replication orchestration: the paper's §4.2.2 protocol.

One :class:`ExperimentRunner` wraps one VOODB configuration.  It is a
thin compatibility facade over the experiment engine
(:mod:`repro.experiments.specs` + :mod:`repro.experiments.executor`):
``run`` expands the configuration into ``(config, seed)`` replication
jobs (seeds ``base_seed + r``), hands them to an executor (serial by
default; process-parallel when constructed with one or when
``VOODB_JOBS`` is set), feeds the metric dictionaries to a
:class:`~repro.despy.stats.ReplicationAnalyzer`, and reports Student-t
confidence intervals.  The pilot-study sizing of the paper ("we first
performed a pilot study with n = 10, then computed the number of
necessary additional replications n*") is available as
:meth:`ExperimentRunner.pilot_study`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.despy.stats import ConfidenceInterval, ReplicationAnalyzer
from repro.core.parameters import VOODBConfig

#: Fallback replication count when ``VOODB_REPLICATIONS`` is unset.
DEFAULT_REPLICATIONS = 5


def default_replications() -> int:
    """Replications per experiment point, from the environment.

    The paper used 100; the default here keeps the full suite
    laptop-sized.  Set ``VOODB_REPLICATIONS=100`` for fidelity runs.
    """
    value = os.environ.get("VOODB_REPLICATIONS", "")
    if not value:
        return DEFAULT_REPLICATIONS
    count = int(value)
    if count < 1:
        raise ValueError(f"VOODB_REPLICATIONS must be >= 1, got {count}")
    return count


class ExperimentRunner:
    """Runs replications of one configuration and aggregates metrics."""

    def __init__(
        self,
        config: VOODBConfig,
        confidence: float = 0.95,
        replication: Optional[Callable[[VOODBConfig, int], Dict[str, float]]] = None,
        executor=None,
    ) -> None:
        from repro.experiments.executor import standard_replication

        self.config = config
        self.confidence = confidence
        self.analyzer = ReplicationAnalyzer(confidence=confidence)
        self._replication = replication or standard_replication
        self._executor = executor

    # ------------------------------------------------------------------
    def run(
        self, replications: Optional[int] = None, base_seed: int = 1
    ) -> ReplicationAnalyzer:
        """Run ``replications`` independent replications (cached base)."""
        from repro.experiments.executor import executor_for
        from repro.experiments.specs import ExperimentSpec

        spec = ExperimentSpec(
            config=self.config,
            replications=replications,
            base_seed=base_seed,
            confidence=self.confidence,
            replication=self._replication,
        )
        if self._executor is not None:
            executor = self._executor
        else:
            executor = executor_for(self._replication)
        self.analyzer.add_all(executor.run(spec.jobs()))
        return self.analyzer

    def interval(self, metric: str) -> ConfidenceInterval:
        return self.analyzer.interval(metric)

    def mean(self, metric: str) -> float:
        return self.analyzer.mean(metric)

    # ------------------------------------------------------------------
    def pilot_study(
        self,
        metric: str = "total_ios",
        pilot_n: int = 10,
        relative_half_width: float = 0.05,
        base_seed: int = 1,
    ) -> int:
        """§4.2.2's sizing: run a pilot, return total replications needed.

        Returns ``pilot_n + n*`` where n* = n·(h/h*)² — the number of
        replications for the half-width to fall below
        ``relative_half_width`` of the mean at the configured confidence.
        With a replication cache attached to the executor, the pilot's
        replications are cache hits inside the subsequent full run.
        """
        self.run(replications=pilot_n, base_seed=base_seed)
        additional = self.analyzer.additional_replications_for(
            metric, relative_half_width
        )
        return pilot_n + additional

