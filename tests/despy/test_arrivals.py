"""Unit tests for the open-system arrival processes."""

import itertools

import pytest

from repro.despy.arrivals import mmpp_interarrivals, poisson_interarrivals
from repro.despy.randomstream import RandomStream
from repro.despy.timebase import MS_PER_TICK


def take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestPoisson:
    def test_gaps_are_positive(self):
        stream = RandomStream(7, "arrivals")
        assert all(gap > 0 for gap in take(poisson_interarrivals(stream, 10.0), 200))

    def test_mean_gap_matches_rate(self):
        stream = RandomStream(7, "arrivals")
        gaps = take(poisson_interarrivals(stream, 20.0), 5000)
        mean = sum(gaps) / len(gaps) * MS_PER_TICK
        # rate 20/s -> mean gap 50 ms; loose statistical bounds.
        assert 45.0 < mean < 55.0

    def test_deterministic_per_seed_and_name(self):
        first = take(poisson_interarrivals(RandomStream(3, "a"), 5.0), 50)
        second = take(poisson_interarrivals(RandomStream(3, "a"), 5.0), 50)
        other = take(poisson_interarrivals(RandomStream(3, "b"), 5.0), 50)
        assert first == second
        assert first != other

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            next(poisson_interarrivals(RandomStream(1, "a"), 0.0))


class TestMMPP:
    def test_gaps_are_positive_and_deterministic(self):
        args = ((10.0, 200.0), (1000.0, 200.0))
        first = take(mmpp_interarrivals(RandomStream(11, "m"), *args), 300)
        second = take(mmpp_interarrivals(RandomStream(11, "m"), *args), 300)
        assert first == second
        assert all(gap > 0 for gap in first)

    def test_overall_rate_between_state_rates(self):
        stream = RandomStream(13, "m")
        gaps = take(
            mmpp_interarrivals(stream, (5.0, 100.0), (1000.0, 1000.0)), 5000
        )
        rate_per_s = 1000.0 / (sum(gaps) / len(gaps) * MS_PER_TICK)
        # Equal dwell shares -> arrival rate is the dwell-weighted mean
        # (5 + 100) / 2 = 52.5; loose statistical bounds.
        assert 40.0 < rate_per_s < 65.0

    def test_burstier_than_poisson(self):
        """Burst states bunch arrivals: gap variance far exceeds the
        exponential's at the same overall rate."""
        gaps = take(
            mmpp_interarrivals(
                RandomStream(17, "m"), (2.0, 400.0), (4000.0, 400.0)
            ),
            4000,
        )
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # For an exponential, var == mean^2; an MMPP this asymmetric is
        # far above that.
        assert var > 2.0 * mean**2

    def test_validation(self):
        stream = RandomStream(1, "m")
        with pytest.raises(ValueError, match="pair up"):
            next(mmpp_interarrivals(stream, (1.0, 2.0), (100.0,)))
        with pytest.raises(ValueError, match="two states"):
            next(mmpp_interarrivals(stream, (1.0,), (100.0,)))
        with pytest.raises(ValueError, match="rates must be > 0"):
            next(mmpp_interarrivals(stream, (1.0, 0.0), (100.0, 100.0)))
        with pytest.raises(ValueError, match="dwell times must be > 0"):
            next(mmpp_interarrivals(stream, (1.0, 2.0), (100.0, 0.0)))
