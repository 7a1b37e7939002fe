"""Flow aggregation: calibrating a closed population to an open rate.

The closed-loop model spawns one despy process per user, which caps
realistic studies at a few hundred users.  Queueing theory's interactive
response time law says a closed population of N users with think time Z
and response time R submits, in steady state, at

    λ = N / (Z + R(λ))

— a fixed point, because R itself depends on the offered load.  This
module solves that fixed point for a :class:`~repro.core.parameters
.VOODBConfig` whose :class:`~repro.core.parameters.AggregationConfig`
is enabled:

* :func:`fixed_point_rate` — the pure solver: a safeguarded fixed-point
  iteration of λ -> N/(Z + R(λ)) over any response function.  Because
  the map is strictly decreasing in λ, each iterate brackets the root
  from the other side; the solver keeps that bracket and falls back to
  its midpoint whenever a plain iterate would leave it, so the bracket
  width never grows and convergence is guaranteed even when the plain
  iteration would oscillate (heavily loaded closed systems).
* :func:`pilot_response_time_ms` — R(λ) measured by a short **pilot
  run**: the same config with a plain open Poisson source at rate λ,
  run for ``pilot_transactions`` transactions on the pinned
  ``pilot_seed``, summarized by the MSER-5 truncated batch-means
  steady-state estimator (falling back to the raw mean only below the
  observation floor).
* :func:`calibrate_aggregate_rate` — the cached front door: solve the
  fixed point for a config, memoized per config.  Calibration is a
  pure function of the (hashable, frozen) config — the pilot seed is
  pinned in :class:`AggregationConfig`, independent of replication
  seeds — so serial, parallel and cache-replay executions of the same
  scenario all see the identical calibrated rate.

The validation walls for all of this live in the tests: aggregated runs
must match full per-user runs at overlapping scales within batch-means
CI half-widths, and the solver must agree with the exact M/M/1 oracle
on analytically solvable response functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.parameters import (
    ArrivalConfig,
    VOODBConfig,
    check_aggregation_think_time,
)
from repro.despy.arrivals import closed_equivalent_rate_tps

#: Stream label of the calibration pilot phases (kept distinct from any
#: scenario phase label so pilot draws never collide with measured ones).
PILOT_STREAM_LABEL = "aggregation-pilot"


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one fixed-point rate calibration.

    ``trace`` records every iteration as ``(rate_tps, response_ms)`` —
    the rate the pilot ran at and the steady-state response it measured
    — so reports can show *how* the rate was reached, not just the
    survivor.  ``converged`` is False when the iteration cap ran out
    first; the last bracket midpoint is still returned as the best
    available rate.
    """

    rate_tps: float
    iterations: int
    converged: bool
    trace: Tuple[Tuple[float, float], ...]
    population: int
    think_time_ms: float

    @property
    def response_time_ms(self) -> float:
        """The last measured pilot response time (ms)."""
        return self.trace[-1][1] if self.trace else 0.0


def fixed_point_rate(
    population: int,
    think_time_ms: float,
    response_time_ms_at: Callable[[float], float],
    tolerance: float = 0.05,
    max_iterations: int = 8,
) -> CalibrationResult:
    """Solve λ = N/(Z + R(λ)) by safeguarded fixed-point iteration.

    ``response_time_ms_at(rate_tps)`` is R in milliseconds — a pilot
    simulation in production, an analytic oracle in the validation
    tests.  The iteration starts from the zero-response seed λ0 = N/Z
    (the largest rate the law admits, since R >= 0) and stops when two
    successive rates agree within ``tolerance`` relatively.

    Convergence is monotone in the bracket sense: g(λ) = N/(Z + R(λ))
    is strictly decreasing for any nondecreasing R, so λ* always lies
    between an iterate and its image, and the maintained [lo, hi]
    bracket never widens.  A plain iterate outside the bracket (the
    oscillating-divergence regime of near-saturated systems) is
    replaced by the bracket midpoint — bisection progress at worst.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    check_aggregation_think_time(think_time_ms)
    if not (0.0 < tolerance < 1.0):
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    lo = 0.0
    hi = closed_equivalent_rate_tps(population, think_time_ms, 0.0)
    rate = hi
    trace = []
    converged = False
    for _ in range(max_iterations):
        response = response_time_ms_at(rate)
        if not (response >= 0):
            raise ValueError(
                f"response_time_ms_at({rate}) returned {response!r}; "
                "the pilot response must be finite and >= 0"
            )
        trace.append((rate, response))
        image = closed_equivalent_rate_tps(
            population, think_time_ms, response
        )
        # g is decreasing, so λ* sits between rate and its image:
        # tighten the bracket from whichever side this iterate was on.
        if image >= rate:
            lo, hi = max(lo, rate), min(hi, image)
        else:
            lo, hi = max(lo, image), min(hi, rate)
        if abs(image - rate) <= tolerance * rate:
            rate = image
            converged = True
            break
        rate = image if lo <= image <= hi else (lo + hi) / 2.0
    return CalibrationResult(
        rate_tps=rate,
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
        population=population,
        think_time_ms=think_time_ms,
    )


def _pilot_config(config: VOODBConfig, rate_tps: float) -> VOODBConfig:
    """The pilot twin of ``config``: same model, plain Poisson source.

    Aggregation is disabled in the twin (the pilot measures R, it does
    not recurse), and the cold warm-up is dropped — MSER-5 deletes the
    pilot's own transient, which is exactly the regime the calibration
    wants to see.
    """
    return config.with_changes(
        arrivals=ArrivalConfig(mode="poisson", rate_tps=rate_tps),
        aggregation=type(config.aggregation)(),
        ocb=config.ocb.with_changes(coldn=0),
    )


def pilot_response_time_ms(config: VOODBConfig, rate_tps: float) -> float:
    """R(λ): steady-state response time of one short pilot run (ms).

    Runs ``config``'s pilot twin at ``rate_tps`` for
    ``aggregation.pilot_transactions`` transactions on the pinned
    ``aggregation.pilot_seed`` and summarizes the response series with
    the MSER-5 truncated batch-means estimator
    (:meth:`~repro.core.results.PhaseResults.steady_state`) — the raw
    mean would drag the empty-system transient into the calibrated
    rate.
    """
    from repro.core.model import VOODBSimulation

    aggregation = config.aggregation
    pilot = VOODBSimulation(
        _pilot_config(config, rate_tps), seed=aggregation.pilot_seed
    )
    phase = pilot.run_phase(
        aggregation.pilot_transactions, stream_label=PILOT_STREAM_LABEL
    )
    pilot.close()
    if phase.has_steady_state:
        return phase.steady_state().point
    return phase.mean_response_time_ms


#: Per-config calibration memo.  Calibration is a pure function of the
#: config (pinned pilot seed), so every replication of a sweep point —
#: serial, parallel worker, or cache replay — shares one solve.
_CALIBRATION_CACHE: Dict[VOODBConfig, CalibrationResult] = {}


def calibrate_aggregate_rate(config: VOODBConfig) -> CalibrationResult:
    """The calibrated open rate for an aggregation-enabled config."""
    aggregation = config.aggregation
    if not aggregation.enabled:
        raise ValueError(
            "calibrate_aggregate_rate needs an aggregation-enabled config "
            "(population > 0)"
        )
    cached = _CALIBRATION_CACHE.get(config)
    if cached is None:
        cached = _CALIBRATION_CACHE[config] = fixed_point_rate(
            aggregation.population,
            config.ocb.thinktime,
            lambda rate: pilot_response_time_ms(config, rate),
            tolerance=aggregation.tolerance,
            max_iterations=aggregation.max_iterations,
        )
    return cached


def clear_calibration_cache() -> None:
    """Drop memoized calibrations (tests)."""
    _CALIBRATION_CACHE.clear()
