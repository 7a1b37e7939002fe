"""Property-based tests (hypothesis) for kernel invariants."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.despy import Simulation
from repro.despy.monitor import OnlineStats
from repro.despy.stats import confidence_interval
from repro.despy.validation import (
    jackson_arrival_rates,
    mmc_mean_response_time,
    parallel_mmc_mean_response_time,
    parallel_mmc_utilizations,
)


@given(
    st.lists(
        st.integers(min_value=0, max_value=10**12),
        min_size=1,
        max_size=200,
    )
)
def test_run_dispatches_in_nondecreasing_time_order(entries):
    sim = Simulation()
    times = []
    for time in entries:
        sim.schedule(time, lambda: times.append(sim.now))
    sim.run()
    assert len(times) == len(entries)
    assert times == sorted(times)


@given(
    st.lists(
        st.integers(min_value=0, max_value=10**8),
        min_size=1,
        max_size=100,
    )
)
def test_run_order_matches_reference_heap(entries):
    """The run loop is observationally a stable (time, seq) heap."""
    sim = Simulation()
    reference = []
    dispatched = []

    def record(seq):
        dispatched.append((sim.now, seq))

    for seq, time in enumerate(entries):
        sim.schedule(time, record, seq)
        heapq.heappush(reference, (time, seq))
    sim.run()
    assert dispatched == [heapq.heappop(reference) for _ in entries]


@given(
    st.lists(
        st.integers(min_value=0, max_value=10 << 20),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50)
def test_simulation_clock_is_monotonic(delays):
    sim = Simulation()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    st.lists(
        st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
        min_size=1,
        max_size=300,
    )
)
def test_online_stats_matches_direct_computation(data):
    stats = OnlineStats()
    for x in data:
        stats.record(x)
    n = len(data)
    mean = sum(data) / n
    assert stats.n == n
    assert stats.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
    if n > 1:
        variance = sum((x - mean) ** 2 for x in data) / (n - 1)
        assert stats.variance == pytest.approx(variance, rel=1e-6, abs=1e-3)
    assert stats.minimum == min(data)
    assert stats.maximum == max(data)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=60,
    )
)
def test_confidence_interval_brackets_the_mean(data):
    ci = confidence_interval(data)
    mean = sum(data) / len(data)
    assert ci.low <= mean + 1e-9
    assert ci.high >= mean - 1e-9
    assert ci.half_width >= 0.0


@given(
    st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=1),
    st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=1),
)
@settings(max_examples=60)
def test_online_stats_merge_is_consistent(left, right):
    a, b, combined = OnlineStats(), OnlineStats(), OnlineStats()
    for x in left:
        a.record(x)
        combined.record(x)
    for x in right:
        b.record(x)
        combined.record(x)
    merged = a.merge(b)
    assert merged.n == combined.n
    assert merged.mean == pytest.approx(combined.mean, rel=1e-7, abs=1e-6)
    assert merged.variance == pytest.approx(combined.variance, rel=1e-5, abs=1e-3)


# ----------------------------------------------------------------------
# Cluster-oracle properties (Jackson traffic equations, Poisson split)
# ----------------------------------------------------------------------
@given(
    gammas=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=6,
    ),
    exit_share=st.floats(min_value=0.2, max_value=1.0),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_jackson_rates_satisfy_the_traffic_equations(gammas, exit_share, data):
    """The solved rates plug back into λj = γj + Σi λi·R[i][j]."""
    n = len(gammas)
    routing = []
    for _ in range(n):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        total = sum(weights)
        # scale the row so it dissipates at least ``exit_share`` of jobs;
        # divide *first* — ``w * budget`` underflows for subnormal
        # weights (e.g. 5e-324), which used to round the row back up to
        # a no-exit (singular) routing matrix the oracle rejects.
        budget = 1.0 - exit_share
        row = [w / total * budget if total > 0 else 0.0 for w in weights]
        routing.append(row)
    rates = jackson_arrival_rates(gammas, routing)
    for j in range(n):
        expected = gammas[j] + sum(rates[i] * routing[i][j] for i in range(n))
        assert rates[j] == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # Every effective rate at least covers its external stream.
    for lam, gamma in zip(rates, gammas):
        assert lam >= gamma - 1e-12


@given(
    arrival_rate=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=80, deadline=None)
def test_parallel_split_response_bounded_by_extremal_nodes(
    arrival_rate, weights
):
    """The split-weighted sojourn lies between the best and worst node,
    and per-node utilizations recover the offered load exactly."""
    total = sum(weights)
    split = [w / total for w in weights]
    # keep every node comfortably stable
    mu = 2.0 * arrival_rate * max(split) + 1.0
    per_node = [
        mmc_mean_response_time(arrival_rate * p, mu, 1) for p in split
    ]
    w = parallel_mmc_mean_response_time(arrival_rate, split, mu)
    assert min(per_node) - 1e-9 <= w <= max(per_node) + 1e-9
    utilizations = parallel_mmc_utilizations(arrival_rate, split, mu)
    assert sum(utilizations) == pytest.approx(arrival_rate / mu, rel=1e-9)
