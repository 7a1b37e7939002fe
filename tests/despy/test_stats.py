"""Unit tests for the [Ban96] replication-statistics workflow."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.despy import (
    ConfidenceInterval,
    ReplicationAnalyzer,
    confidence_interval,
    required_replications,
)
from repro.despy.stats import _T975, _t_upper_quantile, student_t_quantile


class TestConfidenceInterval:
    def test_known_small_sample(self):
        # X = [10, 12, 14]: mean 12, s = 2, t(2, .975) = 4.3027
        ci = confidence_interval([10.0, 12.0, 14.0], confidence=0.95)
        assert ci.mean == pytest.approx(12.0)
        assert ci.half_width == pytest.approx(4.3027 * 2.0 / 3.0**0.5, rel=1e-3)
        assert ci.n == 3

    def test_interval_bounds_and_contains(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.95, n=5)
        assert ci.low == 8.0
        assert ci.high == 12.0
        assert ci.contains(9.0)
        assert not ci.contains(12.5)

    def test_single_observation_degenerate(self):
        ci = confidence_interval([7.0])
        assert ci.mean == 7.0
        assert ci.half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=100.0, half_width=5.0, confidence=0.95, n=10)
        assert ci.relative_half_width == pytest.approx(0.05)

    def test_higher_confidence_widens_interval(self):
        data = [10.0, 11.0, 12.0, 13.0, 14.0]
        narrow = confidence_interval(data, confidence=0.90)
        wide = confidence_interval(data, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_str_formats(self):
        ci = confidence_interval([10.0, 12.0, 14.0])
        text = str(ci)
        assert "12.00" in text
        assert "n=3" in text


#: The probability confidence_interval forms at 95% confidence.
P975 = 1.0 - (1.0 - 0.95) / 2.0

ORACLE_PROBABILITIES = (0.001, 0.05, 0.6, 0.9, 0.95, 0.99, 0.995, 0.999)

degrees = st.integers(min_value=1, max_value=10**6)
upper_half = st.floats(min_value=0.5, max_value=1.0, exclude_max=True)
# Below ~1.8e-309 the Cauchy (ν = 1) quantile overflows to -inf.
probabilities = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)


class TestStudentT:
    def test_matches_table_values(self):
        # Classic table entries
        assert student_t_quantile(9, 0.975) == pytest.approx(2.2622, rel=1e-3)
        assert student_t_quantile(99, 0.975) == pytest.approx(1.9842, rel=1e-3)

    def test_rejects_zero_degrees(self):
        with pytest.raises(ValueError):
            student_t_quantile(0, 0.975)

    def test_rejects_fractional_degrees(self):
        with pytest.raises(TypeError):
            student_t_quantile(2.5, 0.975)

    @pytest.mark.parametrize(
        "probability", [0.0, 1.0, -0.25, 1.5, math.nan, math.inf, -math.inf]
    )
    def test_rejects_probability_outside_open_unit_interval(self, probability):
        # These used to come back as NaN and flow silently into a CI.
        with pytest.raises(ValueError, match="probability"):
            student_t_quantile(5, probability)

    @pytest.mark.parametrize(
        "nu, density_at_0",
        [
            (1, 1.0 / math.pi),
            (2, 1.0 / (2.0 * math.sqrt(2.0))),
            (3, 2.0 / (math.pi * math.sqrt(3.0))),
            (4, 3.0 / 8.0),
        ],
    )
    def test_full_relative_precision_near_the_median(self, nu, density_at_0):
        # t ≈ δ / density(0) up to a relative O(t²), far below an ulp here.
        delta = 2.0**-40
        assert student_t_quantile(nu, 0.5 + delta) == pytest.approx(
            delta / density_at_0, rel=1e-14, abs=0.0
        )

    def test_full_relative_precision_in_the_cauchy_tail(self):
        # ν = 1: q(p) = -1/tan(πp), which is -1/(πp) to an ulp at p = 1e-10.
        assert student_t_quantile(1, 1e-10) == pytest.approx(
            -1e10 / math.pi, rel=1e-15, abs=0.0
        )

    def test_95_percent_path_reads_the_table_bit_for_bit(self):
        assert P975 == 0.975
        for nu, value in enumerate(_T975, start=1):
            assert student_t_quantile(nu, P975) == value
            assert student_t_quantile(nu, 1.0 - P975) == -value

    def test_inversion_reproduces_every_table_entry(self):
        # No scipy needed, so a typo in the table cannot hide behind a
        # skipped oracle test.
        for nu, value in enumerate(_T975, start=1):
            assert _t_upper_quantile(nu, 1.0 - P975) == pytest.approx(value, rel=1e-11)


class TestStudentTOracle:
    """scipy is a test-only dependency: the oracle for the inversion."""

    def test_matches_scipy_up_to_1000_degrees(self):
        stats = pytest.importorskip("scipy.stats")
        nus = range(1, 1001)
        worst = max(
            (abs(student_t_quantile(nu, p) - want) / abs(want), nu, p)
            for p in ORACLE_PROBABILITIES
            for nu, want in zip(nus, map(float, stats.t.ppf(p, nus)))
        )
        assert worst[0] <= 1e-13, worst

    @pytest.mark.parametrize("nu", [10**4, 10**6, 10**12])
    def test_matches_scipy_at_large_degrees(self, nu):
        stats = pytest.importorskip("scipy.stats")
        for p in ORACLE_PROBABILITIES:
            want = float(stats.t.ppf(p, nu))
            assert student_t_quantile(nu, p) == pytest.approx(want, rel=1e-12)


class TestStudentTProperties:
    @settings(max_examples=200, deadline=None)
    @given(degrees, upper_half)
    def test_odd_symmetry(self, nu, p):
        # 1 - p is exact for p >= 1/2, so the two calls mirror each other.
        assert student_t_quantile(nu, 1.0 - p) == -student_t_quantile(nu, p)

    @given(degrees)
    def test_median_is_zero(self, nu):
        assert student_t_quantile(nu, 0.5) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(degrees, probabilities, probabilities)
    def test_strictly_increasing_in_probability(self, nu, p1, p2):
        low, high = sorted((p1, p2))
        assume(high - low > 1e-9)  # far above the last-ulp noise
        assert student_t_quantile(nu, low) < student_t_quantile(nu, high)

    @settings(max_examples=200, deadline=None)
    @given(degrees, upper_half)
    def test_upper_quantiles_shrink_with_degrees(self, nu, p):
        assert student_t_quantile(nu + 1, p) <= student_t_quantile(nu, p)


class TestRequiredReplications:
    def test_paper_formula(self):
        # n* = n (h/h*)^2: 10 pilot replications, halve the width -> 40
        assert required_replications(2.0, 1.0, 10) == 40

    def test_already_precise_needs_none(self):
        assert required_replications(0.5, 1.0, 10) == 0

    def test_rounds_up(self):
        # 10 * (1.5)^2 = 22.5 -> 23
        assert required_replications(1.5, 1.0, 10) == 23

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            required_replications(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            required_replications(1.0, 1.0, 0)


class TestReplicationAnalyzer:
    def test_collects_and_reports(self):
        analyzer = ReplicationAnalyzer()
        for value in [10.0, 12.0, 14.0]:
            analyzer.add({"ios": value, "time": value * 2})
        assert analyzer.replications == 3
        assert set(analyzer.metrics()) == {"ios", "time"}
        assert analyzer.mean("ios") == pytest.approx(12.0)
        assert analyzer.mean("time") == pytest.approx(24.0)

    def test_summary_contains_all_metrics(self):
        analyzer = ReplicationAnalyzer()
        analyzer.add({"a": 1.0, "b": 2.0})
        analyzer.add({"a": 3.0, "b": 4.0})
        summary = analyzer.summary()
        assert summary["a"].mean == pytest.approx(2.0)
        assert summary["b"].n == 2

    def test_unknown_metric_raises(self):
        analyzer = ReplicationAnalyzer()
        analyzer.add({"a": 1.0})
        with pytest.raises(KeyError):
            analyzer.interval("missing")

    def test_observations_returns_copy(self):
        analyzer = ReplicationAnalyzer()
        analyzer.add({"a": 1.0})
        obs = analyzer.observations("a")
        obs.append(99.0)
        assert analyzer.observations("a") == [1.0]

    def test_additional_replications_shrinks_with_precision(self):
        analyzer = ReplicationAnalyzer()
        # High-variance pilot -> needs more replications for 5% than 50%
        for value in [50.0, 150.0, 100.0, 80.0, 120.0]:
            analyzer.add({"m": value})
        tight = analyzer.additional_replications_for("m", 0.05)
        loose = analyzer.additional_replications_for("m", 0.5)
        assert tight > loose

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            ReplicationAnalyzer(confidence=0.0)
