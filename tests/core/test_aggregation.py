"""Tests for the flow-aggregated source tier (config, solver, hybrid).

Three walls:

* the fixed-point calibration — hypothesis properties against the exact
  M/M/1 oracle (the solver must converge within tolerance to the true
  root of λ = N/(Z + R(λ)) whenever R is the analytic response curve);
* determinism — the calibrated rate is a pure function of the config,
  and aggregated scenarios replay bit-identically across serial,
  parallel and cache-replay execution;
* stream isolation — the probe cohort and the aggregate source draw
  from disjoint named streams, so resizing the cohort never perturbs
  the aggregate arrival sequence.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    CalibrationResult,
    calibrate_aggregate_rate,
    clear_calibration_cache,
    fixed_point_rate,
)
from repro.core.model import run_replication
from repro.core.parameters import AggregationConfig, ArrivalConfig, VOODBConfig
from repro.despy.arrivals import (
    closed_equivalent_rate_tps,
    poisson_interarrivals,
    probe_rescaled_rate,
)
from repro.despy.randomstream import RandomStream
from repro.systems.o2 import o2_config


def aggregated_config(
    population: int = 10_000,
    probe_cohort: int = 20,
    hotn: int = 120,
    thinktime_per_user_ms: float = 25.0,
    **aggregation_overrides,
) -> VOODBConfig:
    """A small aggregation-enabled O2 config (offered load ~40 tps)."""
    return o2_config(
        nc=20,
        no=2000,
        cache_mb=2.0,
        hotn=hotn,
        thinktime=population * thinktime_per_user_ms,
    ).with_changes(
        aggregation=AggregationConfig(
            population=population,
            probe_cohort=probe_cohort,
            **aggregation_overrides,
        )
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestAggregationConfig:
    def test_disabled_by_default(self):
        assert not AggregationConfig().enabled
        assert not VOODBConfig().aggregation.enabled

    def test_enabled_when_population_positive(self):
        assert AggregationConfig(population=1000).enabled

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="population"):
            AggregationConfig(population=-1)

    def test_rejects_probe_cohort_at_population(self):
        with pytest.raises(ValueError, match="probe_cohort"):
            AggregationConfig(population=100, probe_cohort=100)

    def test_probe_cohort_error_suggests_plain_closed_run(self):
        with pytest.raises(ValueError, match="did you mean a plain closed"):
            AggregationConfig(population=10, probe_cohort=50)

    def test_rejects_bad_tolerance(self):
        for tolerance in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                AggregationConfig(population=100, tolerance=tolerance)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            AggregationConfig(population=100, max_iterations=0)

    def test_rejects_pilot_below_mser_floor(self):
        with pytest.raises(ValueError, match="pilot_transactions"):
            AggregationConfig(population=100, pilot_transactions=9)

    def test_disabled_config_skips_enabled_only_checks(self):
        # population=0 disables the tier; the other knobs are not
        # interpreted then (a template config may carry placeholders).
        assert not AggregationConfig(population=0, probe_cohort=5).enabled

    def test_zero_think_time_rejected_eagerly_with_guidance(self):
        # The old failure mode was a bare error deep inside Users at
        # launch time; now the combination fails at construction, naming
        # the ocb knob to fix.
        with pytest.raises(ValueError, match="did you mean to set 'thinktime'"):
            o2_config(thinktime=0.0).with_changes(
                aggregation=AggregationConfig(population=100)
            )

    def test_aggregation_cannot_combine_with_open_arrivals(self):
        with pytest.raises(ValueError, match="cannot combine"):
            o2_config(thinktime=1000.0).with_changes(
                arrivals=ArrivalConfig(mode="poisson", rate_tps=10.0),
                aggregation=AggregationConfig(population=100),
            )


# ----------------------------------------------------------------------
# Rate helpers
# ----------------------------------------------------------------------
class TestRateHelpers:
    def test_interactive_law(self):
        # 100 users, 900 ms thinking + 100 ms responding = 1 tx/s each.
        assert closed_equivalent_rate_tps(100, 900.0, 100.0) == 100.0

    def test_zero_response_seed_rate(self):
        assert closed_equivalent_rate_tps(50, 500.0, 0.0) == 100.0

    def test_rejects_zero_think_time(self):
        with pytest.raises(ValueError, match="think_time_ms"):
            closed_equivalent_rate_tps(10, 0.0, 5.0)

    def test_probe_rescaling_preserves_total_rate(self):
        # Aggregate share + the cohort's own interactive-law share = λ.
        rate = 80.0
        aggregate = probe_rescaled_rate(rate, 1000, 250)
        assert aggregate == rate * 750 / 1000
        cohort_share = rate * 250 / 1000
        assert aggregate + cohort_share == pytest.approx(rate)

    def test_probe_rescaling_identity_without_cohort(self):
        assert probe_rescaled_rate(40.0, 10_000, 0) == 40.0

    def test_probe_rescaling_rejects_cohort_at_population(self):
        with pytest.raises(ValueError, match="probe_cohort"):
            probe_rescaled_rate(40.0, 100, 100)


# ----------------------------------------------------------------------
# Fixed-point solver vs the exact M/M/1 oracle
# ----------------------------------------------------------------------
def mm1_response_ms(service_rate_per_s: float):
    """The M/M/1 response-time curve R(λ) = 1/(μ-λ) in milliseconds."""

    def response(rate_tps: float) -> float:
        assert rate_tps < service_rate_per_s, (
            "solver iterated past the service rate: the zero-response "
            "seed bounds every iterate, so this must never happen for "
            "configs with N/Z below mu"
        )
        return 1000.0 / (service_rate_per_s - rate_tps)

    return response


def mm1_true_rate(
    population: int, think_ms: float, service_rate_per_s: float
) -> float:
    """The exact root of λ = N/(Z + R_mm1(λ)) by bisection."""

    def residual(rate: float) -> float:
        response = 1000.0 / (service_rate_per_s - rate)
        return closed_equivalent_rate_tps(population, think_ms, response) - rate

    lo, hi = 0.0, closed_equivalent_rate_tps(population, think_ms, 0.0)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestFixedPointSolver:
    @settings(max_examples=60, deadline=None)
    @given(
        population=st.integers(min_value=10, max_value=1_000_000),
        service_rate=st.floats(min_value=5.0, max_value=500.0),
        load=st.floats(min_value=0.1, max_value=0.85),
        tolerance=st.floats(min_value=0.001, max_value=0.1),
    )
    def test_converges_to_mm1_root_within_tolerance(
        self, population, service_rate, load, tolerance
    ):
        # Choose Z so the zero-response seed N/Z sits at `load` x mu —
        # every iterate then stays strictly below the service rate.
        think_ms = population * 1000.0 / (load * service_rate)
        result = fixed_point_rate(
            population,
            think_ms,
            mm1_response_ms(service_rate),
            tolerance=tolerance,
            max_iterations=64,
        )
        assert result.converged
        truth = mm1_true_rate(population, think_ms, service_rate)
        # Successive-iterate agreement within tol implies the same
        # relative neighborhood of the true root (g is a contraction
        # there); allow both tolerances' worth of slack.
        assert result.rate_tps == pytest.approx(truth, rel=2 * tolerance)
        # The solver must honor the law's hard bounds.
        assert 0.0 < result.rate_tps <= closed_equivalent_rate_tps(
            population, think_ms, 0.0
        )
        assert result.rate_tps < service_rate

    @settings(max_examples=60, deadline=None)
    @given(
        population=st.integers(min_value=10, max_value=1_000_000),
        service_rate=st.floats(min_value=5.0, max_value=500.0),
        load=st.floats(min_value=0.1, max_value=0.85),
    )
    def test_fixed_point_residual_within_tolerance(
        self, population, service_rate, load
    ):
        think_ms = population * 1000.0 / (load * service_rate)
        tolerance = 0.05
        result = fixed_point_rate(
            population,
            think_ms,
            mm1_response_ms(service_rate),
            tolerance=tolerance,
            max_iterations=64,
        )
        image = closed_equivalent_rate_tps(
            population,
            think_ms,
            mm1_response_ms(service_rate)(result.rate_tps),
        )
        # |g(λ*) - λ*| <= tol·λ*: the returned rate is a genuine
        # tolerance-certified fixed point, not just the last iterate.
        assert abs(image - result.rate_tps) <= 2 * tolerance * result.rate_tps

    @settings(max_examples=40, deadline=None)
    @given(
        population=st.integers(min_value=10, max_value=100_000),
        service_rate=st.floats(min_value=5.0, max_value=200.0),
        load=st.floats(min_value=0.1, max_value=0.85),
    )
    def test_iterates_descend_monotonically_from_seed(
        self, population, service_rate, load
    ):
        # g is decreasing and the iteration starts at the upper bound
        # N/Z, so the *queried* rates can never exceed the seed and the
        # bracket never widens past it.
        think_ms = population * 1000.0 / (load * service_rate)
        result = fixed_point_rate(
            population,
            think_ms,
            mm1_response_ms(service_rate),
            tolerance=0.01,
            max_iterations=64,
        )
        seed = closed_equivalent_rate_tps(population, think_ms, 0.0)
        rates = [rate for rate, _response in result.trace]
        assert rates[0] == seed
        assert all(rate <= seed for rate in rates)
        assert all(rate > 0 for rate in rates)

    def test_flat_response_converges_in_two_iterations(self):
        # A load-independent R makes g constant after one application.
        result = fixed_point_rate(100, 900.0, lambda _rate: 100.0)
        assert result.converged
        assert result.iterations <= 2
        assert result.rate_tps == pytest.approx(100.0)

    def test_iteration_cap_returns_unconverged_best_guess(self):
        # An adversarial oscillating R can exhaust a 1-iteration budget.
        result = fixed_point_rate(
            100,
            100.0,
            lambda rate: 10_000.0 if rate > 500.0 else 0.0,
            tolerance=0.001,
            max_iterations=1,
        )
        assert not result.converged
        assert result.iterations == 1
        assert result.rate_tps > 0

    def test_rejects_negative_response_function(self):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            fixed_point_rate(100, 900.0, lambda _rate: -1.0)

    def test_rejects_nan_response_function(self):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            fixed_point_rate(100, 900.0, lambda _rate: math.nan)

    def test_trace_records_every_pilot_query(self):
        result = fixed_point_rate(
            1000, 5_000.0, mm1_response_ms(300.0), tolerance=0.01
        )
        assert isinstance(result, CalibrationResult)
        assert len(result.trace) == result.iterations
        assert result.response_time_ms == result.trace[-1][1]


# ----------------------------------------------------------------------
# Pilot-run calibration: purity + caching
# ----------------------------------------------------------------------
class TestCalibration:
    def setup_method(self):
        clear_calibration_cache()

    def test_requires_enabled_aggregation(self):
        with pytest.raises(ValueError, match="aggregation-enabled"):
            calibrate_aggregate_rate(o2_config())

    def test_calibration_is_pure_function_of_config(self):
        config = aggregated_config()
        first = calibrate_aggregate_rate(config)
        clear_calibration_cache()
        second = calibrate_aggregate_rate(config)
        assert first == second

    def test_calibration_is_cached_per_config(self):
        config = aggregated_config()
        assert calibrate_aggregate_rate(config) is calibrate_aggregate_rate(
            config
        )

    def test_calibration_independent_of_probe_cohort(self):
        # The fixed point is a property of (population, Z, the server);
        # the probe cohort only re-splits the calibrated rate.
        small = calibrate_aggregate_rate(aggregated_config(probe_cohort=10))
        large = calibrate_aggregate_rate(aggregated_config(probe_cohort=40))
        assert small.rate_tps == large.rate_tps
        assert small.trace == large.trace

    def test_calibrated_rate_below_zero_response_bound(self):
        config = aggregated_config()
        result = calibrate_aggregate_rate(config)
        bound = closed_equivalent_rate_tps(
            config.aggregation.population, config.ocb.thinktime, 0.0
        )
        assert 0.0 < result.rate_tps <= bound


# ----------------------------------------------------------------------
# Stream isolation: probe cohort vs aggregate source
# ----------------------------------------------------------------------
class TestStreamIsolation:
    def test_probe_draws_never_advance_the_arrivals_stream(self):
        # Named streams are pure functions of (seed, label): draining a
        # probe stream must leave a fresh arrivals stream untouched.
        reference = RandomStream(11, "hot/aggregate-arrivals")
        expected = [reference.exponential(25.0) for _ in range(64)]
        probe = RandomStream(11, "hot/probe-3")
        for _ in range(10_000):
            probe.exponential(25.0)
        fresh = RandomStream(11, "hot/aggregate-arrivals")
        assert [fresh.exponential(25.0) for _ in range(64)] == expected

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        probe_cohort=st.integers(min_value=0, max_value=99),
    )
    def test_aggregate_gaps_invariant_under_cohort_resizing(
        self, seed, probe_cohort
    ):
        # Equal rescaled rates => identical gap sequences, whatever the
        # cohort size: the aggregate stream never sees the probes.
        population = 100
        rate = 40.0 * population / (population - probe_cohort)
        resized = poisson_interarrivals(
            RandomStream(seed, "hot/aggregate-arrivals"),
            probe_rescaled_rate(rate, population, probe_cohort),
        )
        baseline = poisson_interarrivals(
            RandomStream(seed, "hot/aggregate-arrivals"), 40.0
        )
        for _ in range(256):
            assert next(resized) == next(baseline)

    def test_hybrid_phase_splits_transactions_exactly(self):
        config = aggregated_config(probe_cohort=20, hotn=120)
        result = run_replication(config, seed=3)
        phase = result.phase
        assert phase.aggregated
        assert phase.transactions == 120
        assert (
            phase.aggregate_transactions + phase.probe_transactions
            == phase.transactions
        )
        # 120 txns across a 20-user cohort of a 10k population: the
        # at-least-one-each floor gives every probe exactly one.
        assert phase.probe_transactions == 20
        assert len(phase.probe_response_times_ms) == 20
        assert all(ms > 0 for ms in phase.probe_response_times_ms)

    def test_probe_metrics_surface_in_to_metrics(self):
        config = aggregated_config(probe_cohort=20, hotn=120)
        metrics = run_replication(config, seed=3).to_metrics()
        assert metrics["aggregation_population"] == 10_000.0
        assert metrics["probe_transactions"] == 20.0
        assert metrics["calibration_converged"] == 1.0
        assert metrics["calibrated_rate_tps"] > 0
        assert metrics["probe_mean_response_time_ms"] > 0
        assert (
            metrics["probe_p95_response_time_ms"]
            >= metrics["probe_mean_response_time_ms"] * 0.1
        )


# ----------------------------------------------------------------------
# End-to-end determinism of aggregated runs
# ----------------------------------------------------------------------
class TestAggregatedDeterminism:
    def test_replication_replays_exactly(self):
        config = aggregated_config()
        first = run_replication(config, seed=5).to_metrics()
        second = run_replication(config, seed=5).to_metrics()
        assert first == second

    def test_seeds_decorrelate_but_calibration_is_shared(self):
        config = aggregated_config()
        a = run_replication(config, seed=1)
        b = run_replication(config, seed=2)
        assert a.phase.calibrated_rate_tps == b.phase.calibrated_rate_tps
        assert a.phase.calibration_trace == b.phase.calibration_trace
        assert (
            a.phase.probe_response_times_ms != b.phase.probe_response_times_ms
        )

    def test_scale_scenario_serial_parallel_cache_identical(self, tmp_path):
        from repro.experiments.cache import ReplicationCache
        from repro.experiments.executor import ParallelExecutor, SerialExecutor
        from repro.experiments.report import format_scenario
        from repro.scenarios import get_scenario, run_scenario

        fast = get_scenario("scale-10k").scaled(hotn=60)
        serial = run_scenario(fast, executor=SerialExecutor())
        parallel = run_scenario(fast, executor=ParallelExecutor(jobs=2))
        cache = ReplicationCache(str(tmp_path / "cache"))
        cached_first = run_scenario(fast, executor=SerialExecutor(cache=cache))
        replay = run_scenario(fast, executor=SerialExecutor(cache=cache))
        reports = {
            format_scenario(fast, result)
            for result in (serial, parallel, cached_first, replay)
        }
        assert len(reports) == 1
