"""Unit tests for reproducible random streams and their distributions."""

import random

import pytest

from repro.despy import RandomStream
from repro.despy.randomstream import derive_seed


class TestSeeding:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42, "s")
        b = RandomStream(42, "s")
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_names_different_sequences(self):
        a = RandomStream(42, "x")
        b = RandomStream(42, "y")
        assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestDistributions:
    def test_uniform_bounds(self):
        stream = RandomStream(1, "u")
        for _ in range(1000):
            x = stream.uniform(2.0, 5.0)
            assert 2.0 <= x <= 5.0

    def test_exponential_mean(self):
        stream = RandomStream(1, "e")
        n = 20000
        mean = sum(stream.exponential(4.0) for _ in range(n)) / n
        assert mean == pytest.approx(4.0, rel=0.05)

    def test_exponential_rejects_nonpositive_mean(self):
        stream = RandomStream(1, "e")
        with pytest.raises(ValueError):
            stream.exponential(0.0)

    def test_randint_inclusive(self):
        stream = RandomStream(1, "i")
        values = {stream.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_bernoulli_probability(self):
        stream = RandomStream(1, "b")
        n = 20000
        hits = sum(stream.bernoulli(0.3) for _ in range(n))
        assert hits / n == pytest.approx(0.3, abs=0.02)

    def test_choice_and_sample(self):
        stream = RandomStream(1, "c")
        items = ["a", "b", "c", "d"]
        assert stream.choice(items) in items
        picked = stream.sample(items, 2)
        assert len(picked) == 2
        assert len(set(picked)) == 2

    def test_shuffle_is_permutation(self):
        stream = RandomStream(1, "s")
        items = list(range(10))
        shuffled = list(items)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestDiscrete:
    def test_discrete_respects_probabilities(self):
        stream = RandomStream(1, "d")
        n = 40000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[stream.discrete([0.5, 0.3, 0.2])] += 1
        assert counts[0] / n == pytest.approx(0.5, abs=0.02)
        assert counts[1] / n == pytest.approx(0.3, abs=0.02)
        assert counts[2] / n == pytest.approx(0.2, abs=0.02)

    def test_discrete_rejects_bad_total(self):
        stream = RandomStream(1, "d")
        with pytest.raises(ValueError):
            stream.discrete([0.5, 0.2])

    def test_discrete_rejects_negative(self):
        stream = RandomStream(1, "d")
        with pytest.raises(ValueError):
            stream.discrete([1.5, -0.5])

    def test_discrete_degenerate_single_outcome(self):
        stream = RandomStream(1, "d")
        assert stream.discrete([1.0]) == 0


class TestZipf:
    def test_zipf_zero_skew_is_uniform(self):
        stream = RandomStream(1, "z")
        n = 30000
        counts = [0] * 5
        for _ in range(n):
            counts[stream.zipf_index(5, 0.0)] += 1
        for count in counts:
            assert count / n == pytest.approx(0.2, abs=0.02)

    def test_zipf_skew_favors_low_ranks(self):
        stream = RandomStream(1, "z")
        n = 30000
        counts = [0] * 10
        for _ in range(n):
            counts[stream.zipf_index(10, 1.0)] += 1
        assert counts[0] > counts[4] > counts[9]

    def test_zipf_ratio_matches_theory(self):
        stream = RandomStream(1, "z")
        n = 60000
        counts = [0] * 4
        for _ in range(n):
            counts[stream.zipf_index(4, 1.0)] += 1
        # P(0)/P(1) should be ~2 under 1/(r+1) weights
        assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.1)

    def test_zipf_in_range(self):
        stream = RandomStream(1, "z")
        for _ in range(1000):
            assert 0 <= stream.zipf_index(7, 0.8) < 7

    def test_zipf_rejects_bad_n(self):
        stream = RandomStream(1, "z")
        with pytest.raises(ValueError):
            stream.zipf_index(0, 1.0)


class TestScalarFastPaths:
    """The getrandbits-based scalar paths must replay random.Random."""

    def test_randint_matches_random_module_bit_for_bit(self):
        for seed in (0, 1, 42, 2**31):
            stream = RandomStream(seed, "ints")
            reference = random.Random(derive_seed(seed, "ints"))
            ours = [stream.randint(0, 97) for _ in range(400)]
            theirs = [reference.randint(0, 97) for _ in range(400)]
            assert ours == theirs
            # The underlying state advanced identically too.
            assert stream._rng.random() == reference.random()

    def test_randint_degenerate_range_consumes_same_draws(self):
        """randint(a, a) still draws bits (rejection on 1); the fast
        path must consume the identical sequence, not short-circuit."""
        stream = RandomStream(3, "deg")
        reference = random.Random(derive_seed(3, "deg"))
        assert [stream.randint(5, 5) for _ in range(50)] == [
            reference.randint(5, 5) for _ in range(50)
        ]
        assert stream._rng.getstate() == reference.getstate()

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            RandomStream(0, "bad").randint(7, 6)

    def test_zipf_skew_zero_matches_randrange(self):
        stream = RandomStream(9, "z0")
        reference = random.Random(derive_seed(9, "z0"))
        assert [stream.zipf_index(33, 0.0) for _ in range(300)] == [
            reference.randrange(33) for _ in range(300)
        ]


class TestBatchedDraws:
    """Every *_block consumes exactly the draws of its scalar calls."""

    def test_exponential_ticks_block_replays_scalar(self):
        # The Poisson arrival sources draw through this block.
        batched = RandomStream(11, "arrivals")
        scalar = RandomStream(11, "arrivals")
        assert batched.exponential_ticks_block(3.5, 257) == [
            scalar.exponential_ticks(3.5) for _ in range(257)
        ]
        assert batched._rng.getstate() == scalar._rng.getstate()

    def test_randint_block_replays_scalar(self):
        batched = RandomStream(13, "i")
        scalar = RandomStream(13, "i")
        assert batched.randint_block(3, 17, 500) == [
            scalar.randint(3, 17) for _ in range(500)
        ]
        assert batched._rng.getstate() == scalar._rng.getstate()

    def test_zipf_block_replays_scalar_skewed_and_uniform(self):
        for skew in (0.0, 0.86, 1.4):
            batched = RandomStream(14, f"z{skew}")
            scalar = RandomStream(14, f"z{skew}")
            assert batched.zipf_block(50, skew, 300) == [
                scalar.zipf_index(50, skew) for _ in range(300)
            ]
            assert batched._rng.getstate() == scalar._rng.getstate()

    def test_blocks_interleave_across_named_streams(self):
        """Blocks on one stream are invisible to every other stream, and
        a stream mixing block refills with scalar draws *between* blocks
        replays the all-scalar formulation draw for draw."""
        seed = 77
        # Batched side: alternate block refills on two streams, with
        # scalar draws interleaved between the blocks of each stream.
        a1 = RandomStream(seed, "alpha")
        b1 = RandomStream(seed, "beta")
        c1 = RandomStream(seed, "gamma")
        mixed: list = []
        mixed += a1.exponential_ticks_block(2.0, 16)
        mixed += b1.randint_block(0, 9, 16)
        mixed += c1.zipf_block(50, 0.86, 16)
        mixed.append(a1.exponential_ticks(2.0))
        mixed.append(b1.randint(0, 9))
        mixed.append(c1.zipf_index(50, 0.86))
        mixed += a1.exponential_ticks_block(2.0, 8)
        mixed += b1.randint_block(0, 9, 8)
        mixed += c1.zipf_block(50, 0.86, 8)
        # Scalar side: the same logical consumption, one call at a time.
        a2 = RandomStream(seed, "alpha")
        b2 = RandomStream(seed, "beta")
        c2 = RandomStream(seed, "gamma")
        expected: list = []
        expected += [a2.exponential_ticks(2.0) for _ in range(16)]
        expected += [b2.randint(0, 9) for _ in range(16)]
        expected += [c2.zipf_index(50, 0.86) for _ in range(16)]
        expected.append(a2.exponential_ticks(2.0))
        expected.append(b2.randint(0, 9))
        expected.append(c2.zipf_index(50, 0.86))
        expected += [a2.exponential_ticks(2.0) for _ in range(8)]
        expected += [b2.randint(0, 9) for _ in range(8)]
        expected += [c2.zipf_index(50, 0.86) for _ in range(8)]
        assert mixed == expected
        assert a1._rng.getstate() == a2._rng.getstate()
        assert b1._rng.getstate() == b2._rng.getstate()
        assert c1._rng.getstate() == c2._rng.getstate()

    def test_block_error_cases(self):
        stream = RandomStream(0, "err")
        with pytest.raises(ValueError):
            stream.exponential_ticks_block(0.0, 4)
        with pytest.raises(ValueError):
            stream.randint_block(5, 4, 4)
        with pytest.raises(ValueError):
            stream.zipf_block(0, 1.0, 4)
