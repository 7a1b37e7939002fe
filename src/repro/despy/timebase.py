"""The integer-tick time base: exact simulated time on a dyadic scale.

The kernel used to run on float milliseconds.  That worked, but it left
the calendar wheel quantizing *floats* into buckets — exactly the
"accumulated floating point errors corrupt event sequence" sharp edge a
discrete-event kernel must never flirt with — and it made every clock
compare, bucket index and width recalibration a float operation.

Simulated time is now an **integer count of ticks** with

    1 tick = 2**-20 ms        (``TICKS_PER_MS = 1 << 20``)

The scale is a power of two on purpose: converting a millisecond
quantity whose fraction is dyadic (0.5, 7.4 is not, 0.005 is not — but
every *binary* float literal is dyadic by construction) multiplies by
``2**20`` exactly in IEEE-754, so :func:`ms_to_ticks` of any float that
survives the multiplication without rounding round-trips exactly through
:func:`ticks_to_ms`.  At 2⁻²⁰ ms ≈ 0.95 ns resolution, a 64-bit-sized
tick count covers ~280 years of simulated time before arbitrary
precision even begins to cost — and Python ints never overflow anyway.

Conversion discipline
---------------------
* **Inbound** (config knobs, random delay draws): convert once, at the
  draw site or at subsystem construction, with :func:`ms_to_ticks`.
* **Kernel** (events / engine / process / resource): integers only.
  The kernel is unit-agnostic — it orders and adds ticks, nothing else.
* **Outbound** (statistics, reports, goldens): convert at the reporting
  boundary with :func:`ticks_to_ms`; ``ticks * MS_PER_TICK`` is exact
  for any count below 2**53.

Overflow policy
---------------
Delays at or beyond :data:`TICK_HORIZON` (2**62 ticks ≈ 139 years of
simulated milliseconds), including ``float('inf')`` sentinels, saturate
to ``TICK_HORIZON``.  The event list counts such pushes in its
``ticks_overflowed`` perf counter and routes them through the overflow
heap; they dispatch last, in key order, exactly like the old non-finite
times did.  ``NaN`` delays still raise — silence there would corrupt
the schedule.
"""

from __future__ import annotations

from repro.despy.errors import SchedulingError

#: log2 of the ticks-per-millisecond scale.
TICK_SHIFT = 20

#: Ticks per simulated millisecond (a power of two: conversions of
#: dyadic-representable ms values are exact).
TICKS_PER_MS = 1 << TICK_SHIFT

#: Exact float reciprocal of :data:`TICKS_PER_MS` (a power of two, so
#: ``ticks * MS_PER_TICK`` is a single exact multiply below 2**53).
MS_PER_TICK = 1.0 / TICKS_PER_MS

#: Saturation value for infinite / absurdly far delays (see module
#: docstring, *Overflow policy*).
TICK_HORIZON = 1 << 62

#: Float copy of the horizon for the one inbound compare in
#: :func:`ms_to_ticks` (exact: 2**62 is representable).
_HORIZON_SCALED = float(TICK_HORIZON)


def ms_to_ticks(ms: float) -> int:
    """Convert a millisecond quantity to integer ticks.

    Rounds to the nearest tick (ties to even, like the float rounding
    it replaces); dyadic-representable ms values convert exactly.
    Values at or beyond the horizon — ``float('inf')`` included —
    saturate to :data:`TICK_HORIZON`.  ``NaN`` raises ``ValueError``.
    """
    scaled = ms * TICKS_PER_MS
    if scaled >= _HORIZON_SCALED:
        return TICK_HORIZON
    # round() of a NaN raises ValueError — the loud failure we want.
    return round(scaled)


def ticks_to_ms(ticks: int) -> float:
    """Convert integer ticks back to float milliseconds (exact < 2**53)."""
    return ticks * MS_PER_TICK


def coerce_ticks(value) -> int:
    """Coerce a delay/duration to an integer tick count, loudly.

    The kernel's scheduling API takes ticks.  Integral values of any
    numeric type (and the ``float('inf')`` sentinel, which saturates to
    the horizon) are coerced for convenience; a *fractional* one — a
    float, ``Fraction`` or ``Decimal`` — is a unit bug (some call site
    passed milliseconds where ticks were expected) and raises with a
    pointer to :func:`ms_to_ticks` instead of silently truncating the
    schedule.
    """
    if isinstance(value, float):
        if value != value or value == float("-inf"):
            raise SchedulingError(f"delay must be >= 0, got {value!r}")
        if value >= _HORIZON_SCALED:
            return TICK_HORIZON
    ticks = int(value)
    if ticks != value:
        raise SchedulingError(
            f"simulated time is integer ticks, got fractional {value!r}; "
            "convert milliseconds with ms_to_ticks()"
        )
    return ticks
