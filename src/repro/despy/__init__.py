"""despy — a Discrete-Event Simulation Package for Python.

This package is the reproduction of DESP-C++, the simulation kernel the
VOODB authors wrote when QNAP2 proved too slow (paper §3.2.1).  Like
DESP-C++ it adopts the *resource view* of simulation (paper Table 2):

* active resources are classes whose functioning rules are methods,
* passive resources are :class:`Resource` instances with reserve/release
  operations,
* transactions flowing through the system are :class:`Process` instances
  (DESP-C++ calls them *clients*),
* the :class:`Simulation` engine owns the event list and the clock.

The kernel is deliberately small: an event scheduler (`scheduler`), a
generator-based process layer (`process`), queued resources with
time-weighted statistics (`resource`), reproducible random streams
(`randomstream`) and replication statistics with Student-t confidence
intervals (`stats`, implementing the [Ban96] method of paper §4.2.2).

It is validated the way DESP-C++ was validated against QNAP2: by checking
simulated queueing systems against closed-form M/M/1 and M/M/c results
(`validation`, exercised in the test suite).
"""

from repro.despy.arrivals import (
    fixed_interarrivals,
    mmpp_interarrivals,
    poisson_interarrivals,
)
from repro.despy.engine import Simulation
from repro.despy.errors import (
    DespyError,
    ResourceError,
    SchedulingError,
)
from repro.despy.events import Event, EventList
from repro.despy.monitor import OnlineStats, TimeWeightedStats
from repro.despy.process import Hold, Process, Request, Release, WaitFor
from repro.despy.randomstream import RandomStream
from repro.despy.resource import Gate, Resource
from repro.despy.timebase import (
    MS_PER_TICK,
    TICK_HORIZON,
    TICK_SHIFT,
    TICKS_PER_MS,
    ms_to_ticks,
    ticks_to_ms,
)
from repro.despy.stats import (
    ConfidenceInterval,
    ReplicationAnalyzer,
    SteadyStateEstimate,
    batch_means_interval,
    confidence_interval,
    mser5_truncation_index,
    required_replications,
    steady_state_estimate,
)
from repro.despy.validation import (
    jackson_arrival_rates,
    jackson_mean_jobs,
    jackson_mean_response_time,
    md1_mean_queue_length,
    md1_mean_response_time,
    mm1_mean_queue_length,
    mm1_mean_response_time,
    mm1_utilization,
    mmc_erlang_c,
    mmc_mean_queue_length,
    mmc_mean_response_time,
    parallel_mmc_mean_response_time,
    parallel_mmc_utilizations,
)

__all__ = [
    "TICK_SHIFT",
    "TICKS_PER_MS",
    "MS_PER_TICK",
    "TICK_HORIZON",
    "ms_to_ticks",
    "ticks_to_ms",
    "Simulation",
    "Event",
    "EventList",
    "Process",
    "Hold",
    "Request",
    "Release",
    "WaitFor",
    "Resource",
    "Gate",
    "RandomStream",
    "fixed_interarrivals",
    "poisson_interarrivals",
    "mmpp_interarrivals",
    "OnlineStats",
    "TimeWeightedStats",
    "ConfidenceInterval",
    "ReplicationAnalyzer",
    "SteadyStateEstimate",
    "confidence_interval",
    "batch_means_interval",
    "mser5_truncation_index",
    "required_replications",
    "steady_state_estimate",
    "DespyError",
    "ResourceError",
    "SchedulingError",
    "mm1_utilization",
    "mm1_mean_queue_length",
    "mm1_mean_response_time",
    "mmc_erlang_c",
    "mmc_mean_queue_length",
    "mmc_mean_response_time",
    "md1_mean_queue_length",
    "md1_mean_response_time",
    "jackson_arrival_rates",
    "jackson_mean_jobs",
    "jackson_mean_response_time",
    "parallel_mmc_mean_response_time",
    "parallel_mmc_utilizations",
]
