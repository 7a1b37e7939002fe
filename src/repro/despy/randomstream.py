"""Reproducible, independent random streams.

A discrete-event *random* simulation needs several independent sources of
randomness (inter-arrival times, service times, workload choices...) that
are all reproducible from one root seed, so that a replication can be
replayed exactly and so that replication *r* of two different system
configurations sees the same workload (common random numbers — the
variance-reduction setup the paper's O2-vs-Texas comparisons rely on).

Each :class:`RandomStream` derives its own seed from ``(root_seed, name)``
through SHA-256, which makes distinct named streams statistically
independent while remaining pure functions of the root seed.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from math import log as _log
from typing import List, Sequence, TypeVar

from repro.despy.timebase import ms_to_ticks

T = TypeVar("T")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """One named random stream with the distributions VOODB needs.

    Scalar draws are the replayable unit: every batched ``*_block``
    method consumes *exactly* the same underlying ``random.Random``
    draws as the equivalent run of scalar calls, so pre-drawing a block
    from a stream is invisible to replay as long as the block replaces
    consecutive scalar calls on that stream (draws on *other* streams
    interleave freely — each stream owns its own generator).
    """

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.root_seed = root_seed
        self._rng = random.Random(derive_seed(root_seed, name))
        self._zipf_cdfs: dict[tuple[int, float], list[float]] = {}
        #: probability vector -> (partial sums, total, last index)
        self._discrete_cdfs: dict = {}
        # ``randint`` is the hottest draw in the system (workload
        # materialization and object-graph generation draw millions);
        # ``random.Random.randint`` costs three Python frames
        # (randint → randrange → _randbelow) of pure argument checking
        # per draw.  This closure performs the *identical* rejection
        # sampling against ``getrandbits`` — the same bit stream, so
        # draws replay bit-identically — in a single frame.
        getrandbits = self._rng.getrandbits

        def _fast_randint(low: int, high: int) -> int:
            n = high - low + 1
            if n <= 0:
                raise ValueError(f"empty range for randint({low}, {high})")
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return low + r

        self._fast_randint = _fast_randint
        # The pure pass-throughs below are aliased to the underlying
        # generator's bound methods: the wrapper frame is measurable.
        # The defs remain as API documentation; a subclass overriding
        # one of them keeps its override (no alias is installed then).
        cls = type(self)
        if cls.randint is RandomStream.randint:
            self.randint = _fast_randint
        if cls.random is RandomStream.random:
            self.random = self._rng.random
        if cls.uniform is RandomStream.uniform:
            self.uniform = self._rng.uniform
        if cls.choice is RandomStream.choice:
            self.choice = self._rng.choice
        if cls.getrandbits is RandomStream.getrandbits:
            self.getrandbits = getrandbits

    # ------------------------------------------------------------------
    # Continuous distributions
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def exponential_ticks(self, mean_ms: float) -> int:
        """One exponential delay with mean ``mean_ms``, in integer ticks.

        The draw-site conversion for the tick time base: consumes the
        identical underlying draw as :meth:`exponential`, then rounds
        through :func:`~repro.despy.timebase.ms_to_ticks` — the one
        canonical ms→tick rounding, so every delay in the system
        quantizes the same way.
        """
        return ms_to_ticks(self.exponential(mean_ms))

    # ------------------------------------------------------------------
    # Discrete distributions
    # ------------------------------------------------------------------
    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def random(self) -> float:
        return self._rng.random()

    def getrandbits(self, k: int) -> int:
        """A uniform integer of ``k`` random bits: the bits ``randint``
        rejection-samples, for loops that inline that sampling."""
        return self._rng.getrandbits(k)

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(items, k)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def discrete(self, probabilities: Sequence[float]) -> int:
        """Index drawn according to ``probabilities`` (must sum to ~1).

        Used for the OCB transaction mix (PSET/PSIMPLE/PHIER/PSTOCH) —
        once per transaction, always with the same tuple, so the
        validation and the cumulative sums are cached per distinct
        probability vector.  The draw itself is the identical
        ``random() * total`` compared against the same partial sums
        (``bisect_right`` finds the first strict exceedance exactly as
        the linear scan did), so sequences replay bit-for-bit.
        """
        key = tuple(probabilities)
        cached = self._discrete_cdfs.get(key)
        if cached is None:
            if any(p < 0 for p in probabilities):
                raise ValueError("probabilities must be >= 0")
            total = sum(probabilities)
            if not 0.999 <= total <= 1.001:
                raise ValueError(f"probabilities sum to {total}, expected 1.0")
            cumulative = 0.0
            sums = []
            for p in probabilities:
                cumulative += p
                sums.append(cumulative)
            cached = self._discrete_cdfs[key] = (sums, total, len(sums) - 1)
        sums, total, last = cached
        u = self._rng.random() * total
        index = bisect.bisect_right(sums, u)
        return index if index <= last else last

    def zipf_index(self, n: int, skew: float) -> int:
        """Zipf-like index in [0, n): rank r drawn with weight 1/(r+1)^skew.

        ``skew=0`` degenerates to the uniform distribution.  OCB's object
        locality windows use this to make low-index objects hotter than
        others.  The inverse CDF is cached per ``(n, skew)`` so repeated
        draws cost one binary search.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if skew == 0.0:
            # Same rejection sampling as randrange(n): identical bits.
            return self._fast_randint(0, n - 1)
        cdf = self._zipf_cdfs.get((n, skew))
        if cdf is None:
            cdf = _zipf_cdf(n, skew)
            self._zipf_cdfs[(n, skew)] = cdf
        return bisect.bisect_right(cdf, self._rng.random() * cdf[-1])

    # ------------------------------------------------------------------
    # Batched draws
    # ------------------------------------------------------------------
    # Each block consumes exactly the same underlying generator draws as
    # ``count`` scalar calls, in the same order — pre-drawing a block is
    # bit-identical to scalar consumption whenever the block stands in
    # for consecutive scalar calls on this stream.  Hot loops consume
    # the returned list index-wise instead of paying a method call (and
    # the wrapper frames underneath it) per variate.

    def exponential_ticks_block(self, mean_ms: float, count: int) -> List[int]:
        """``count`` draws equivalent to ``exponential_ticks(mean_ms)`` each.

        Replicates ``random.Random.expovariate`` exactly — one uniform
        draw per variate, transformed with the same float operations —
        then converts at the draw site with the canonical ms→tick
        rounding.
        """
        if mean_ms <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean_ms}")
        lambd = 1.0 / mean_ms
        rnd = self._rng.random
        convert = ms_to_ticks
        return [convert(-_log(1.0 - rnd()) / lambd) for __ in range(count)]

    def randint_block(self, low: int, high: int, count: int) -> List[int]:
        """``count`` draws equivalent to ``randint(low, high)`` each."""
        n = high - low + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({low}, {high})")
        k = n.bit_length()
        getrandbits = self._rng.getrandbits
        block = []
        append = block.append
        for __ in range(count):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append(low + r)
        return block

    def zipf_block(self, n: int, skew: float, count: int) -> List[int]:
        """``count`` draws equivalent to ``zipf_index(n, skew)`` each."""
        if n <= 0:
            raise ValueError("n must be positive")
        if skew == 0.0:
            return self.randint_block(0, n - 1, count)
        cdf = self._zipf_cdfs.get((n, skew))
        if cdf is None:
            cdf = _zipf_cdf(n, skew)
            self._zipf_cdfs[(n, skew)] = cdf
        rnd = self._rng.random
        top = cdf[-1]
        right = bisect.bisect_right
        return [right(cdf, rnd() * top) for __ in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStream {self.name!r} root={self.root_seed}>"


def _zipf_cdf(n: int, skew: float) -> list[float]:
    """Unnormalized cumulative Zipf weights for ranks 0..n-1."""
    cumulative = 0.0
    cdf = []
    for rank in range(n):
        cumulative += 1.0 / (rank + 1) ** skew
        cdf.append(cumulative)
    return cdf
