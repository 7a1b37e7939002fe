"""Unit tests for the validation tests' observation collector."""

import math

import pytest

from tests.despy.online_stats import OnlineStats


class TestOnlineStats:
    def test_empty_stats(self):
        stats = OnlineStats()
        assert stats.n == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_mean_and_variance_match_textbook(self):
        stats = OnlineStats()
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for x in data:
            stats.record(x)
        assert stats.mean == pytest.approx(5.0)
        # unbiased sample variance of the classic dataset is 32/7
        assert stats.variance == pytest.approx(32.0 / 7.0)
        assert stats.stdev == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_min_max_total(self):
        stats = OnlineStats()
        for x in [3.0, -1.0, 10.0]:
            stats.record(x)
        assert stats.minimum == -1.0
        assert stats.maximum == 10.0
        assert stats.total == 12.0

    def test_single_observation_variance_zero(self):
        stats = OnlineStats()
        stats.record(5.0)
        assert stats.variance == 0.0

    def test_merge_equivalent_to_combined_stream(self):
        a, b, combined = OnlineStats(), OnlineStats(), OnlineStats()
        left = [1.0, 2.0, 3.0]
        right = [10.0, 20.0]
        for x in left:
            a.record(x)
            combined.record(x)
        for x in right:
            b.record(x)
            combined.record(x)
        merged = a.merge(b)
        assert merged.n == combined.n
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum
        assert merged.total == pytest.approx(combined.total)

    def test_merge_with_empty(self):
        a = OnlineStats()
        a.record(4.0)
        merged = a.merge(OnlineStats())
        assert merged.n == 1
        assert merged.mean == 4.0
