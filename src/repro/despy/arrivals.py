"""Arrival processes: interarrival-time streams for open systems.

The seed model is a *closed* system — NUSERS user processes cycling
through submit/think loops, the population fixed by Table 3.  Open
systems (paper §5: "modelling the arrival of new clients") instead draw
transaction arrivals from a stochastic point process, independent of how
many transactions are still in flight.  This module provides the point
processes as plain interarrival-time generators over a
:class:`~repro.despy.randomstream.RandomStream`:

* :func:`fixed_interarrivals` — a deterministic (D/·) source;
* :func:`poisson_interarrivals` — the M/·/· source: exponential gaps at
  a constant rate;
* :func:`mmpp_interarrivals` — a Markov-modulated Poisson process that
  cycles through states of different rates with exponentially
  distributed dwell times; two states (calm/burst) give the classic
  bursty-traffic source.

The flow-aggregation tier draws its gaps from
:func:`poisson_interarrivals` too: a large closed population collapses
to Poisson gaps at the calibrated interactive-law rate
(:func:`closed_equivalent_rate_tps`), rescaled by
:func:`probe_rescaled_rate` for the probe cohort's own load.

All generators are infinite and consume *only* the stream they are
given, so an arrival sequence is a pure function of ``(seed, stream
name)`` — replayable exactly, and independent of every other stream of
the replication (service times, workload draws...).

Parameters are quoted in the units people use — rates in arrivals **per
second**, intervals and dwell times in milliseconds — but the yielded
gaps are **integer ticks** (see :mod:`repro.despy.timebase`): the
ms→tick conversion happens here, at the draw site, so the generators
feed ``Hold`` commands directly.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.despy.randomstream import RandomStream
from repro.despy.timebase import ms_to_ticks

#: Milliseconds per second — rates are quoted per second.
_MS_PER_SECOND = 1000.0


def fixed_interarrivals(interval_ms: float) -> Iterator[int]:
    """Deterministic source: one arrival every ``interval_ms``."""
    if interval_ms <= 0:
        raise ValueError(f"interval_ms must be > 0, got {interval_ms}")
    interval = ms_to_ticks(interval_ms)
    while True:
        yield interval


#: Gaps pre-drawn per refill by :func:`poisson_interarrivals`.
_POISSON_BLOCK = 256


def poisson_interarrivals(
    stream: RandomStream, rate_per_s: float
) -> Iterator[int]:
    """Poisson source: exponential gaps with mean ``1000 / rate_per_s`` ms.

    Gaps are pre-drawn in blocks of ``_POISSON_BLOCK``.  The stream is
    dedicated to this generator (module contract above), and a batched
    block consumes exactly the same underlying draws as scalar calls —
    so the yielded sequence is bit-identical to the scalar formulation.
    """
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
    mean_ms = _MS_PER_SECOND / rate_per_s
    while True:
        yield from stream.exponential_ticks_block(mean_ms, _POISSON_BLOCK)


def closed_equivalent_rate_tps(
    population: int, think_time_ms: float, response_time_ms: float
) -> float:
    """The interactive response time law: λ = N / (Z + R).

    A closed population of ``population`` users, each thinking
    ``think_time_ms`` between transactions that take
    ``response_time_ms`` to come back, submits in steady state at this
    rate (transactions per second) — the open-stream equivalent a large
    closed population aggregates to.  The fixed-point calibration in
    :mod:`repro.core.aggregation` iterates this with R measured by
    pilot runs.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if think_time_ms <= 0:
        raise ValueError(
            f"think_time_ms must be > 0, got {think_time_ms} "
            "(a closed loop with zero think time has no finite "
            "zero-response rate to seed the fixed point)"
        )
    if response_time_ms < 0:
        raise ValueError(
            f"response_time_ms must be >= 0, got {response_time_ms}"
        )
    return population * _MS_PER_SECOND / (think_time_ms + response_time_ms)


def probe_rescaled_rate(
    rate_tps: float, population: int, probe_cohort: int
) -> float:
    """Aggregate-stream share of the population rate.

    The ``probe_cohort`` real user processes generate their own
    closed-loop load, so the aggregate source emits only the remaining
    ``(population - probe_cohort) / population`` share of the calibrated
    rate — total offered load stays λ, whatever the cohort size.
    """
    if rate_tps <= 0:
        raise ValueError(f"rate_tps must be > 0, got {rate_tps}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if not 0 <= probe_cohort < population:
        raise ValueError(
            f"probe_cohort must be in [0, population), got {probe_cohort} "
            f"of {population}"
        )
    return rate_tps * (population - probe_cohort) / population


def mmpp_interarrivals(
    stream: RandomStream,
    rates_per_s: Sequence[float],
    dwell_ms: Sequence[float],
) -> Iterator[int]:
    """Markov-modulated Poisson source cycling through rate states.

    The process starts in state 0 and cycles ``0 -> 1 -> ... -> 0``;
    state ``i`` emits arrivals at ``rates_per_s[i]`` and lasts an
    exponential dwell of mean ``dwell_ms[i]``.  With two states this is
    the standard bursty-arrival model: a calm state at a background rate
    and a burst state at a much higher one.

    On a state switch the pending exponential gap is *redrawn* at the
    new state's rate — valid by memorylessness, and it keeps every gap a
    single-stream draw so the sequence stays replayable.
    """
    if len(rates_per_s) != len(dwell_ms):
        raise ValueError(
            f"rates and dwell times must pair up, got {len(rates_per_s)} "
            f"rates and {len(dwell_ms)} dwell times"
        )
    if len(rates_per_s) < 2:
        raise ValueError("an MMPP needs at least two states")
    for rate in rates_per_s:
        if rate <= 0:
            raise ValueError(f"rates must be > 0, got {rate}")
    for dwell in dwell_ms:
        if dwell <= 0:
            raise ValueError(f"dwell times must be > 0, got {dwell}")
    state = 0
    remaining = stream.exponential(dwell_ms[state])
    carried = 0.0
    while True:
        gap = stream.exponential(_MS_PER_SECOND / rates_per_s[state])
        while gap >= remaining:
            # The dwell ends first: bank the dwelt time, move to the
            # next state and redraw the gap at its rate.
            carried += remaining
            state = (state + 1) % len(rates_per_s)
            remaining = stream.exponential(dwell_ms[state])
            gap = stream.exponential(_MS_PER_SECOND / rates_per_s[state])
        remaining -= gap
        # State-machine arithmetic stays in float ms; only the yielded
        # gap quantizes, through the one canonical ms→tick rounding.
        yield ms_to_ticks(carried + gap)
        carried = 0.0
