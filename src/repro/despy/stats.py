"""Replication statistics: the [Ban96] confidence-interval method.

Paper §4.2.2: simulation results are achieved with 95% confidence
intervals.  For observations with sample mean X̄ and sample standard
deviation σ, the half-interval width is

    h = t(n-1, 1-α/2) · σ / √n

where t is the Student t quantile, n the number of replications and
α = 1 - c.  The paper first runs a pilot study with n = 10 replications,
then sizes the full study with n* = n · (h/h*)² where h* is the desired
half-width, and settles on 100 replications for every experiment.

This module implements exactly that workflow:

* :func:`confidence_interval` — one-shot CI for a list of observations;
* :func:`required_replications` — the n* pilot-study formula;
* :class:`ReplicationAnalyzer` — collects per-replication metric
  dictionaries and reports mean/CI per metric.

The Student t quantile
----------------------

:func:`student_t_quantile` needs only the standard library.  The 95%
level that every reported interval uses reads t(ν, 0.975) for
ν = 1..100 from a table: scipy 1.17.1's values, bit for bit.  The
committed goldens and the benchmark's replication pins were produced
under scipy, and its values are not correctly rounded (up to 21 ulp off
at ν = 6), so no independent algorithm could reproduce those bytes.
Every other level and ν is computed by inverting the t distribution
function, a regularized incomplete beta, to about 1e-14 relative
(1e-12 as ν nears 10⁵, where a series takes over).

Steady-state output analysis (open-system scenarios)
----------------------------------------------------

A raw mean over an open-system run is contaminated by the initial
transient: the first arrivals hit an empty system, so queueing delay is
systematically under-represented until the backlog reaches steady
state.  This module therefore also implements the standard two-step
honest pipeline ([Ban96]; White's MSER):

* :func:`mser5_truncation_index` — MSER-5 warm-up truncation: batch the
  series in non-overlapping batches of five, and delete the prefix that
  minimizes the standard error of the retained mean (the Marginal
  Standard Error Rule);
* :func:`steady_state_estimate` — truncate with MSER-5, then build a
  batch-means confidence interval over the retained observations,
  returning a :class:`SteadyStateEstimate` (point estimate, CI
  half-width, truncation index, batch count) to report *alongside* the
  raw mean, never silently in its place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Iterable, Mapping, Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with its symmetric Student-t confidence interval."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """h / |X̄| — the paper targets 5% of the sample mean."""
        if self.mean == 0:
            return math.inf if self.half_width > 0 else 0.0
        return self.half_width / abs(self.mean)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.2f} ± {self.half_width:.2f} "
            f"({self.confidence:.0%}, n={self.n})"
        )


# ----------------------------------------------------------------------
# Student t quantile
# ----------------------------------------------------------------------
#: scipy 1.17.1's ``stats.t.ppf(0.975, ν)`` for ν = 1..100 (four per
#: row), as float.hex.  The goldens and pins were built from exactly
#: these values; see the module docstring for why they cannot be
#: recomputed.
_T975 = tuple(
    map(
        float.fromhex,
        """
    0x1.96993aacc4d1ep+3 0x1.135ea98e146b9p+2 0x1.975a66893c1a7p+1 0x1.63628d9efb5dep+1
    0x1.4908d359dff38p+1 0x1.393468546e668p+1 0x1.2eac01e9f5b1ap+1 0x1.272b24bc92428p+1
    0x1.218e5dac50b23p+1 0x1.1d33a7661d302p+1 0x1.19b9e1b8c996cp+1 0x1.16e356bbc352dp+1
    0x1.1486f5cb67d3bp+1 0x1.12885ec4c0667p+1 0x1.10d356b5a06c2p+1 0x1.0f590e8d62dd7p+1
    0x1.0e0e6fd5b155ep+1 0x1.0ceb036f23f31p+1 0x1.0be83653b666cp+1 0x1.0b00d9a954436p+1
    0x1.0a30c955b504bp+1 0x1.0974ac3559fb2p+1 0x1.08c9c5c7af878p+1 0x1.082dd3fc3a165p+1
    0x1.079ef594769a4p+1 0x1.071b96b177db5p+1 0x1.06a261e29bdabp+1 0x1.0632348973a31p+1
    0x1.05ca15bce286fp+1 0x1.05692f10aaee9p+1 0x1.050ec6d0032d6p+1 0x1.04ba3b5725836p+1
    0x1.046aff4ce0d8fp+1 0x1.0420968c7f61bp+1 0x1.03da939b97bfbp+1 0x1.0398958fb660bp+1
    0x1.035a464e0e4cap+1 0x1.031f59141b8acp+1 0x1.02e7893bbcad5p+1 0x1.02b299300ed51p+1
    0x1.0280518a7d28fp+1 0x1.02508051216f5p+1 0x1.0222f850e412bp+1 0x1.01f7908ed3d0dp+1
    0x1.01ce23cd00c4cp+1 0x1.01a6901fcf862p+1 0x1.0180b69140f87p+1 0x1.015c7ad019361p+1
    0x1.0139c2e92927dp+1 0x1.01187709471cdp+1 0x1.00f88146be527p+1 0x1.00d9cd712e717p+1
    0x1.00bc48e6fc925p+1 0x1.009fe26f9904ep+1 0x1.00848a19f91ffp+1 0x1.006a311ebbcb4p+1
    0x1.0050c9c58322ap+1 0x1.0038474d1e1a9p+1 0x1.00209dd62b0aap+1 0x1.0009c24fe7d7fp+1
    0x1.ffe754cddd10fp+0 0x1.ffbc98eb4b3b0p+0 0x1.ff933eec65c14p+0 0x1.ff6b35eb8b3b8p+0
    0x1.ff446e12253f8p+0 0x1.ff1ed883c1e66p+0 0x1.fefa674b14d90p+0 0x1.fed70d48acdcdp+0
    0x1.feb4be2330d3ap+0 0x1.fe936e38fc66ap+0 0x1.fe731292f91a7p+0 0x1.fe53a0d8948bap+0
    0x1.fe350f44b80b4p+0 0x1.fe17549ba8ddfp+0 0x1.fdfa6821bb14ap+0 0x1.fdde4192c3475p+0
    0x1.fdc2d91a3598fp+0 0x1.fda8274be2386p+0 0x1.fd8e251d4135cp+0 0x1.fd74cbdf40f39p+0
    0x1.fd5c15388bbe8p+0 0x1.fd43fb203a3c6p+0 0x1.fd2c77d8e9635p+0 0x1.fd1585ec2b8cep+0
    0x1.fcff20264d0fbp+0 0x1.fce9419265749p+0 0x1.fcd3e576af0ebp+0 0x1.fcbf07511f441p+0
    0x1.fcaaa2d43a640p+0 0x1.fc96b3e41e566p+0 0x1.fc833693bfdf9p+0 0x1.fc7027225693ep+0
    0x1.fc5d81f8f3e8ep+0 0x1.fc4b43a84227ep+0 0x1.fc3968e668447p+0 0x1.fc27ee8d0fe12p+0
    0x1.fc16d1978b014p+0 0x1.fc060f21171dap+0 0x1.fbf5a4633b83bp+0 0x1.fbe58eb4410d9p+0
        """.split(),
    )
)

#: The upper-tail mass of :data:`_T975`.  :func:`confidence_interval`
#: at 95% forms p = 1 - (1 - 0.95)/2, which is exactly 0.975 in
#: binary64, and this is 1 - p exactly.  Keying the table on the tail
#: rather than on p keeps q(ν, 1 - p) = -q(ν, p) exact on it too.
_T975_TAIL = 1.0 - 0.975

#: From this many degrees of freedom on, the four-term Cornish-Fisher
#: expansion alone is exact to ~1e-13 relative for every representable
#: p, while the incomplete beta fraction loses digits as ν grows.
_SERIES_DEGREES = 100_000

#: Newton steps from the Cornish-Fisher start settle within three steps
#: for every ν and p tried (p down to 5e-324); the cap bounds the loop.
_NEWTON_STEPS = 8

#: Lentz guard against a vanishing partial denominator, and the
#: continued fraction's stopping tolerance and term cap.
_CF_TINY = 1e-300
_CF_EPS = 1e-16
_CF_TERMS = 1000

_STANDARD_NORMAL = NormalDist()


def student_t_quantile(degrees: int, probability: float) -> float:
    """Quantile t with P(T ≤ t) = ``probability`` for T ~ Student t(ν).

    At 97.5% and ν ≤ 100, the level every 95% interval of the paper's
    method uses, the value is scipy 1.17.1's bit for bit (the table
    above), so results built under scipy reproduce exactly.  Every other
    (ν, p) is inverted by :func:`_t_upper_quantile` to ~1e-14 relative
    (~1e-12 just below ν = 10⁵).

    Raises :class:`ValueError` unless ``degrees`` >= 1 and ``probability``
    lies strictly inside (0, 1); NaN and the infinities are rejected too.
    """
    degrees = operator.index(degrees)
    if degrees < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {degrees}")
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability}")
    if probability == 0.5:
        return 0.0
    tail = min(probability, 1.0 - probability)
    if tail == _T975_TAIL and degrees <= len(_T975):
        t = _T975[degrees - 1]
    else:
        t = _t_upper_quantile(degrees, tail)
    return t if probability > 0.5 else -t


def _t_upper_quantile(nu: int, tail: float) -> float:
    """The t > 0 with P(T > t) = ``tail``, for 0 < ``tail`` < 1/2.

    ν = 1 (Cauchy) and ν = 2 have closed forms.  Otherwise the start is
    the normal quantile z with the Cornish-Fisher correction in powers
    of 1/ν [A&S 26.7.5], and Newton steps refine it on the tail
    2·P(T > t) = I_x(ν/2, 1/2), x = ν/(ν+t²), in logarithms: log I is
    concave in log t, so the steps converge from any start.  x and
    1 - x = t²/(ν+t²) are formed separately, and near the median the
    complement 1 - I_{1-x}(1/2, ν/2) goes through log1p, so no digit is
    lost to cancellation at either end.
    """
    central = 1.0 - 2.0 * tail  # P(|T| < t); exact when tail > 1/4
    if nu == 1:
        if central < tail:
            return math.tan(0.5 * math.pi * central)
        return 1.0 / math.tan(math.pi * tail)
    if nu == 2:
        return central / math.sqrt(tail * (1.0 + central))
    z = -_STANDARD_NORMAL.inv_cdf(tail)
    zz = z * z
    g1 = (zz + 1.0) / 4.0
    g2 = ((5.0 * zz + 16.0) * zz + 3.0) / 96.0
    g3 = (((3.0 * zz + 19.0) * zz + 17.0) * zz - 15.0) / 384.0
    g4 = ((((79.0 * zz + 776.0) * zz + 1482.0) * zz - 1920.0) * zz - 945.0) / 92160.0
    t = z * (1.0 + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu)
    if nu >= _SERIES_DEGREES:
        return t
    log_target = math.log(2.0 * tail)
    log_norm = _log_gamma_ratio(0.5 * nu) - 0.5 * math.log(math.pi)
    for _ in range(_NEWTON_STEPS):
        s = t * t
        x, y = nu / (nu + s), s / (nu + s)
        # log(x^(ν/2) y^(1/2) / B(ν/2, 1/2)), which is log(t·density(t)).
        log_tf = 0.5 * math.log(y) - 0.5 * nu * math.log1p(s / nu) + log_norm
        log_i, i_over_tf = _log_betainc(0.5 * nu, 0.5, x, y, log_tf)
        # d log I / d log t = -2·t·density(t) / I.
        step = (log_i - log_target) * i_over_tf / 2.0
        t *= math.exp(step)
        if abs(step) < 1e-9:  # quadratic convergence: t is now within ~1e-18
            break
    return t


def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + 1/2) - log Γ(a).

    Differencing two lgamma values keeps their few-ulp errors at the
    size of lgamma itself (~1e-12 absolute by a = 500), so from a = 15
    on the asymptotic series, exact to double precision there, is used.
    """
    if a < 15.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    series = -0.125 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 - r * 31 / 18432)))
    return 0.5 * math.log(a) + series / a


def _log_betainc(
    a: float, b: float, x: float, y: float, log_front: float
) -> tuple[float, float]:
    """log I_x(a, b) and I_x(a, b)/front, given y = 1 - x.

    ``log_front`` is log(x^a y^b / B(a, b)).  Below x = (a+1)/(a+b+2)
    the continued fraction for I_x(a, b) converges fast; above it, the
    one for the complement 1 - I_y(b, a) does [Numerical Recipes §6.4].
    """
    if x < (a + 1.0) / (a + b + 2.0):
        ratio = _beta_cf(a, b, x) / a
        return log_front + math.log(ratio), ratio
    log_i = math.log1p(-math.exp(log_front) * _beta_cf(b, a, y) / b)
    return log_i, math.exp(log_i - log_front)


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction F of I_x(a, b) = x^a (1-x)^b F / (a B(a, b)).

    Evaluated by the modified Lentz method.
    """

    def nonzero(value: float) -> float:
        return value if abs(value) > _CF_TINY else _CF_TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, _CF_TERMS):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / nonzero(1.0 + numerator * d)
            c = nonzero(1.0 + numerator / c)
            fraction *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return fraction
    raise ArithmeticError(f"I_x({a}, {b}) fraction did not converge at x = {x}")


def confidence_interval(
    observations: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of the observations.

    Implements h = t(n-1, 1-α/2)·σ/√n from paper §4.2.2.  A single
    observation yields a degenerate interval of half-width 0 (the paper
    never reports single-replication results; this keeps small tests
    convenient).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(observations)
    if n == 0:
        raise ValueError("cannot build a confidence interval from no data")
    mean = sum(observations) / n
    if n == 1:
        return ConfidenceInterval(mean, 0.0, confidence, 1)
    variance = sum((x - mean) ** 2 for x in observations) / (n - 1)
    alpha = 1.0 - confidence
    t = student_t_quantile(n - 1, 1.0 - alpha / 2.0)
    half_width = t * math.sqrt(variance / n)
    return ConfidenceInterval(mean, half_width, confidence, n)


def required_replications(
    pilot_half_width: float, desired_half_width: float, pilot_n: int
) -> int:
    """Additional replications n* = n·(h/h*)² from the pilot study.

    Returns the number of replications *beyond* the pilot run needed to
    shrink the half-width from ``pilot_half_width`` to
    ``desired_half_width`` (paper §4.2.2).
    """
    if pilot_n < 1:
        raise ValueError("pilot study needs at least one replication")
    if desired_half_width <= 0:
        raise ValueError("desired half-width must be positive")
    if pilot_half_width <= desired_half_width:
        return 0
    return math.ceil(pilot_n * (pilot_half_width / desired_half_width) ** 2)


def batch_means_interval(
    observations: Sequence[float],
    batches: int = 10,
    confidence: float = 0.95,
    warmup: int = 0,
) -> ConfidenceInterval:
    """Confidence interval from a single long run via batch means.

    The other output-analysis technique of [Ban96]: instead of n
    independent replications, one long run is split into ``batches``
    contiguous batches whose means are treated as (approximately
    independent) observations.  ``warmup`` initial observations are
    discarded first (initial-transient deletion).  Useful for
    steady-state metrics where restarting the system per replication is
    wasteful; the replication method of §4.2.2 remains the default.
    """
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    data = list(observations[warmup:])
    if len(data) < batches:
        raise ValueError(
            f"{len(data)} post-warmup observations cannot fill {batches} batches"
        )
    batch_size = len(data) // batches
    means = []
    for b in range(batches):
        chunk = data[b * batch_size : (b + 1) * batch_size]
        means.append(sum(chunk) / len(chunk))
    return confidence_interval(means, confidence)


# ----------------------------------------------------------------------
# Steady-state analysis: MSER-5 truncation + batch means
# ----------------------------------------------------------------------
#: MSER's classic batch size: the rule is applied to means of five.
MSER_BATCH_SIZE = 5

#: Observations below which :func:`steady_state_estimate` refuses to
#: pretend there is a steady state to estimate.
MIN_STEADY_OBSERVATIONS = 2 * MSER_BATCH_SIZE


@dataclass(frozen=True)
class SteadyStateEstimate:
    """A truncated batch-means estimate of a steady-state mean.

    ``point`` is the batch-means estimate over the observations retained
    after MSER truncation; ``half_width`` its Student-t confidence
    half-interval over ``batches`` batch means.  ``truncated`` counts
    the warm-up observations deleted (a multiple of the MSER batch
    size), ``retained`` the observations the estimate is built from.
    """

    point: float
    half_width: float
    confidence: float
    truncated: int
    retained: int
    batches: int

    @property
    def low(self) -> float:
        return self.point - self.half_width

    @property
    def high(self) -> float:
        return self.point + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.point:.2f} ± {self.half_width:.2f} "
            f"({self.confidence:.0%}, trunc {self.truncated}, "
            f"{self.batches} batches)"
        )


def mser5_truncation_index(
    observations: Sequence[float], batch_size: int = MSER_BATCH_SIZE
) -> int:
    """MSER warm-up truncation point, in raw-observation units.

    The Marginal Standard Error Rule over batch means: batch the series
    into non-overlapping batches of ``batch_size`` (MSER-5 with the
    default; the trailing remainder is ignored), and pick the deletion
    point d that minimizes

        MSER(d) = S²(d) / (m - d)²,   S²(d) = Σ_{j>=d} (Z_j - Z̄_d)²

    over the batch means Z_j — the standard error of the retained mean,
    penalizing both residual transient bias (which inflates S²) and
    over-deletion (which shrinks m - d).  The search is restricted to
    the first half of the batches, the usual guard against the
    statistic's instability when almost everything is deleted.  Ties
    take the smallest d.  Returns ``d* × batch_size``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    m = len(observations) // batch_size
    if m < 2:
        raise ValueError(
            f"MSER needs at least 2 batches of {batch_size}, "
            f"got {len(observations)} observations"
        )
    means = [
        sum(observations[j * batch_size : (j + 1) * batch_size]) / batch_size
        for j in range(m)
    ]
    # Suffix sums make every candidate O(1): S²(d) = Σz² - (Σz)²/(m-d).
    suffix_sum = [0.0] * (m + 1)
    suffix_sq = [0.0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix_sum[j] = suffix_sum[j + 1] + means[j]
        suffix_sq[j] = suffix_sq[j + 1] + means[j] * means[j]
    best_d = 0
    best_stat = math.inf
    for d in range(m // 2 + 1):
        kept = m - d
        variance_sum = suffix_sq[d] - suffix_sum[d] * suffix_sum[d] / kept
        # Snap cancellation noise to an exact zero: an (analytically)
        # constant suffix must tie at 0 for every d so the tie-break
        # below picks the smallest deletion, per the rule.
        if variance_sum < 1e-12 * suffix_sq[d]:
            variance_sum = 0.0
        stat = max(variance_sum, 0.0) / (kept * kept)
        if stat < best_stat:
            best_stat = stat
            best_d = d
    return best_d * batch_size


def steady_state_batches(retained: int) -> int:
    """Batch count for the post-truncation CI: ⌊√n⌋ clipped to [2, 30].

    The square-root rule balances batch length (long batches absorb
    autocorrelation) against degrees of freedom; the cap keeps batches
    long on big runs, where more than ~30 means buys no CI accuracy.
    """
    if retained < 2:
        raise ValueError(f"need at least 2 retained observations, got {retained}")
    return max(2, min(30, math.isqrt(retained)))


def steady_state_estimate(
    observations: Sequence[float],
    confidence: float = 0.95,
    batch_size: int = MSER_BATCH_SIZE,
) -> SteadyStateEstimate:
    """MSER-truncated batch-means estimate of a steady-state mean.

    The honest open-system pipeline in one call: delete the initial
    transient with :func:`mser5_truncation_index`, then treat the
    retained series as one long steady-state run and build a
    :func:`batch_means_interval` over ⌊√n⌋ batches.  The result carries
    its own evidence — truncation index and batch count — so a report
    can show *how much* warm-up was removed, not just the survivor.
    """
    n = len(observations)
    if n < MIN_STEADY_OBSERVATIONS:
        raise ValueError(
            f"steady-state estimation needs at least "
            f"{MIN_STEADY_OBSERVATIONS} observations, got {n}"
        )
    truncated = mser5_truncation_index(observations, batch_size=batch_size)
    retained = observations[truncated:]
    batches = steady_state_batches(len(retained))
    interval = batch_means_interval(retained, batches=batches, confidence=confidence)
    return SteadyStateEstimate(
        point=interval.mean,
        half_width=interval.half_width,
        confidence=confidence,
        truncated=truncated,
        retained=len(retained),
        batches=batches,
    )


class ReplicationAnalyzer:
    """Aggregates per-replication metrics into means and intervals.

    Each replication contributes a mapping ``{metric_name: value}``; the
    analyzer reports a :class:`ConfidenceInterval` per metric and can run
    the paper's pilot-study sizing for any of them.
    """

    def __init__(self, confidence: float = 0.95) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self.confidence = confidence
        self._observations: Dict[str, list[float]] = {}
        self.replications = 0

    def add(self, metrics: Mapping[str, float]) -> None:
        """Record the metric dictionary of one completed replication."""
        self.replications += 1
        for name, value in metrics.items():
            self._observations.setdefault(name, []).append(float(value))

    def add_all(self, results: Iterable[Mapping[str, float]]) -> None:
        """Record many replications in the given order."""
        for metrics in results:
            self.add(metrics)

    def merge(self, other: "ReplicationAnalyzer") -> "ReplicationAnalyzer":
        """Fold another analyzer's observations into this one.

        The fan-in path for partial analyzers — per-point analyzers of a
        sweep (:meth:`SweepResult.combined`), or analyzers built over
        contiguous seed slices by out-of-order workers, folded back *in
        slice order*.  Appending raw observation lists (rather than
        re-aggregating interval objects) keeps the merged result
        bit-identical to one analyzer fed the same observations in the
        same order.  (The executors themselves guarantee ordering
        differently: they reassemble raw metric dicts by job index
        before any analyzer sees them.)
        """
        if other.confidence != self.confidence:
            raise ValueError(
                "cannot merge analyzers with different confidences: "
                f"{self.confidence} vs {other.confidence}"
            )
        self.replications += other.replications
        for name, values in other._observations.items():
            self._observations.setdefault(name, []).extend(values)
        return self

    @classmethod
    def merged(
        cls,
        parts: Iterable["ReplicationAnalyzer"],
        confidence: "float | None" = None,
    ) -> "ReplicationAnalyzer":
        """Combine partial analyzers (e.g. one per worker) into one.

        ``confidence`` defaults to the parts' own (shared) confidence;
        pass it explicitly only to assert a particular level.
        """
        part_list = list(parts)
        if confidence is None:
            confidence = part_list[0].confidence if part_list else 0.95
        combined = cls(confidence=confidence)
        for part in part_list:
            combined.merge(part)
        return combined

    def metrics(self) -> Iterable[str]:
        return self._observations.keys()

    def observations(self, metric: str) -> list[float]:
        return list(self._observations[metric])

    def interval(self, metric: str) -> ConfidenceInterval:
        if metric not in self._observations:
            raise KeyError(f"no observations recorded for metric {metric!r}")
        return confidence_interval(self._observations[metric], self.confidence)

    def mean(self, metric: str) -> float:
        return self.interval(metric).mean

    def summary(self) -> Dict[str, ConfidenceInterval]:
        return {name: self.interval(name) for name in self._observations}

    def additional_replications_for(
        self, metric: str, relative_half_width: float = 0.05
    ) -> int:
        """Pilot-study sizing: replications still needed so that the
        half-width falls below ``relative_half_width``·|mean| (the paper's
        "within 5% of the sample mean with 95% confidence")."""
        interval = self.interval(metric)
        target = abs(interval.mean) * relative_half_width
        if target == 0.0:
            return 0
        return required_replications(
            interval.half_width, target, interval.n
        )
