"""Running moments of discrete observations for the kernel tests.

:class:`OnlineStats` is Welford's streaming mean/variance for discrete
observations, such as the response times the kernel validation tests
compare with queueing oracles.
"""

from __future__ import annotations

import math


class OnlineStats:
    """Streaming count/mean/variance/min/max via Welford's algorithm."""

    __slots__ = ("n", "mean", "_m2", "minimum", "maximum", "total")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def record(self, value: float) -> None:
        self.n += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new collector equivalent to seeing both streams."""
        merged = OnlineStats()
        merged.n = self.n + other.n
        if merged.n == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.n / merged.n
        merged._m2 = self._m2 + other._m2 + delta**2 * self.n * other.n / merged.n
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged.total = self.total + other.total
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OnlineStats n={self.n} mean={self.mean:.6g}>"
