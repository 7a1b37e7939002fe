"""The scenario catalog: named, declarative usage scenarios.

VOODB's point is that *one* generic model evaluates many OODB
configurations and usage patterns; the companion clustering-simulation
study packages whole experiments as reusable, named setups.  A
:class:`Scenario` captures one such setup as data — a workload mix, an
arrival process, a topology and a fault plan, all frozen inside the
:class:`~repro.core.parameters.VOODBConfig` points it carries — plus the
replication protocol that measures it.

Scenarios compile down to the experiment engine's
:class:`~repro.experiments.specs.SweepSpec` (a one-point sweep for
single-configuration scenarios), so they run through the same pluggable
executors and replication cache as the paper's figures, and the same
statistics fall out.

The registry maps scenario names to definitions; the built-in catalog
lives in :mod:`repro.scenarios.builtin`, which registers its names on
import and parses each file on that scenario's first lookup.
``python -m repro scenario list|describe|run`` is the command-line face.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from repro.core.parameters import VOODBConfig
from repro.experiments.executor import Executor
from repro.experiments.specs import SweepResult, SweepSpec, run_sweep

#: Metrics every scenario reports unless it picks its own.
DEFAULT_METRICS: Tuple[str, ...] = (
    "total_ios",
    "throughput_tps",
    "mean_response_time_ms",
)

_NAME_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")


class UnknownScenarioError(ValueError):
    """Raised when a scenario name is not in the registry."""


@dataclass(frozen=True)
class Scenario:
    """One named usage scenario: configuration points + protocol.

    ``points`` is the scenario's x axis — ``(label, config)`` pairs, a
    single pair for non-sweep scenarios.  Everything the knowledge model
    varies (transaction mix, arrival process, Client-Server topology,
    fault plan) is frozen inside the configs; the scenario adds the
    name, the human description, the metrics worth reporting, and the
    pinned replication protocol that makes its golden output
    reproducible byte-for-byte.
    """

    name: str
    title: str
    description: str
    points: Tuple[Tuple[Any, VOODBConfig], ...]
    x_label: str = "point"
    metrics: Tuple[str, ...] = DEFAULT_METRICS
    #: Pinned replication count — deliberately *not* read from
    #: ``VOODB_REPLICATIONS`` so the committed golden outputs are stable.
    replications: int = 3
    base_seed: int = 1

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"scenario name must be kebab-case, got {self.name!r}"
            )
        if not self.points:
            raise ValueError(f"scenario {self.name!r} has no configuration points")
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}"
            )
        if not self.metrics:
            raise ValueError(f"scenario {self.name!r} reports no metrics")

    # ------------------------------------------------------------------
    @property
    def arrival_mode(self) -> str:
        """Arrival mode of the scenario's points.

        A point's mode is ``"aggregated"`` when the flow-aggregated
        source tier is on — the tier replaces the closed loop with a
        calibrated open stream, so open-system reporting (steady-state
        statistics) applies.  Points that mix modes name each distinct
        mode once, in point order, joined with ``+``
        (``"closed+poisson"``).
        """
        modes = dict.fromkeys(
            "aggregated" if config.aggregation.enabled else config.arrivals.mode.value
            for _, config in self.points
        )
        return "+".join(modes)

    @property
    def golden_name(self) -> str:
        """Stem of the committed golden output under ``results/``."""
        return "scenario_" + self.name.replace("-", "_")

    def compile(
        self,
        replications: Optional[int] = None,
        base_seed: Optional[int] = None,
    ) -> SweepSpec:
        """Lower this scenario to an experiment-engine sweep spec."""
        return SweepSpec(
            name=f"scenario/{self.name}",
            points=self.points,
            replications=(
                self.replications if replications is None else replications
            ),
            base_seed=self.base_seed if base_seed is None else base_seed,
        )

    def scaled(self, hotn: int) -> "Scenario":
        """A copy whose every point runs ``hotn`` measured transactions.

        HOTN is set, not only lowered: the round-trip tests drop it to
        stay fast and perfbench raises ``paper-baseline``'s to 5000.  A
        point's COLDN warm-up is capped at ``hotn`` (zero stays zero).
        """
        if hotn < 1:
            raise ValueError(f"hotn must be >= 1, got {hotn}")
        points = []
        for x, config in self.points:
            ocb = config.ocb
            coldn = min(ocb.coldn, hotn) if ocb.coldn else 0
            points.append(
                (x, config.with_changes(ocb=ocb.with_changes(hotn=hotn, coldn=coldn)))
            )
        return replace(self, points=tuple(points))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Name -> scenario, in catalog order.  A name taken by
#: :func:`reserve_scenarios` maps to its loader until its first lookup.
_REGISTRY: Dict[str, Union[Scenario, Callable[[str], Scenario]]] = {}


def _claim(name: str) -> None:
    if name in _REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the catalog (name collisions are errors)."""
    _claim(scenario.name)
    _REGISTRY[scenario.name] = scenario
    return scenario


def reserve_scenarios(names: Iterable[str], load: Callable[[str], Scenario]) -> None:
    """Register ``names`` now and build each one's scenario with
    ``load(name)`` on its first lookup (how the built-in catalog defers
    parsing its files until a run asks for one)."""
    for name in names:
        _claim(name)
        _REGISTRY[name] = load


def scenario_names() -> Tuple[str, ...]:
    """All registered names, in catalog (registration) order."""
    return tuple(_REGISTRY)


def all_scenarios() -> Tuple[Scenario, ...]:
    """All registered scenarios, in catalog order (loads every reserved
    one not looked up yet)."""
    return tuple(get_scenario(name) for name in scenario_names())


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name, loading a reserved one on first lookup."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names()) or "<none>"
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None
    if not isinstance(entry, Scenario):
        entry = _REGISTRY[name] = entry(name)
    return entry


def run_scenario(
    scenario: Union[Scenario, str],
    executor: Optional[Executor] = None,
    replications: Optional[int] = None,
    base_seed: Optional[int] = None,
) -> SweepResult:
    """Compile and execute a scenario through the experiment engine."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    spec = scenario.compile(replications=replications, base_seed=base_seed)
    return run_sweep(spec, executor=executor)
