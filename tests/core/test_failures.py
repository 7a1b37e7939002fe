"""Unit and integration tests for the §5 failure-injection module."""

import math

import pytest

from repro.core import (
    FailureConfig,
    SystemClass,
    VOODBConfig,
    VOODBSimulation,
    run_replication,
)
from repro.core.failures import HazardClock, NoFailures
from repro.despy.randomstream import RandomStream
from repro.ocb import OCBConfig

SMALL = OCBConfig(nc=5, no=300, hotn=80)


def config_with(failures: FailureConfig) -> VOODBConfig:
    return VOODBConfig(
        sysclass=SystemClass.CENTRALIZED,
        buffsize=64,
        failures=failures,
        ocb=SMALL,
    )


class TestFailureConfig:
    def test_disabled_by_default(self):
        assert not FailureConfig().enabled
        assert not VOODBConfig().failures.enabled

    def test_enabled_flags(self):
        assert FailureConfig(transient_mtbf_ms=100.0).enabled
        assert FailureConfig(crash_mtbf_ms=100.0).enabled

    @pytest.mark.parametrize(
        "field,value",
        [
            ("transient_mtbf_ms", -1.0),
            ("crash_mtbf_ms", -1.0),
            ("transient_penalty_ms", -1.0),
            ("recovery_time_ms", -1.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            FailureConfig(**{field: value})


class _RecordingStream:
    """A stream stub that records the probability of every draw."""

    def __init__(self, outcome: bool = False) -> None:
        self.outcome = outcome
        self.draws = []

    def bernoulli(self, p: float) -> bool:
        self.draws.append(p)
        return self.outcome


class TestHazardClock:
    def test_zero_mtbf_never_fires_or_draws(self):
        stream = _RecordingStream(outcome=True)
        clock = HazardClock(0, stream)
        assert not any(clock.fires(now) for now in (1, 500, 10**9))
        assert stream.draws == []

    def test_two_probes_at_one_tick_draw_once(self):
        stream = _RecordingStream()
        clock = HazardClock(1_000, stream)
        assert not clock.fires(250)
        assert not clock.fires(250)
        assert stream.draws == [pytest.approx(1.0 - math.exp(-0.25))]

    def test_probe_at_or_before_the_marker_draws_nothing(self):
        stream = _RecordingStream()
        clock = HazardClock(1_000, stream)
        clock.fires(0)  # the initial marker: no exposure yet
        clock.fires(800)
        clock.fires(300)  # behind the marker, which stays put
        assert len(stream.draws) == 1
        clock.fires(900)
        assert stream.draws[1] == pytest.approx(1.0 - math.exp(-0.1))

    def test_skip_to_hides_the_outage(self):
        stream = _RecordingStream(outcome=True)
        clock = HazardClock(1_000, stream)
        clock.skip_to(5_000)
        clock.skip_to(2_000)  # the marker never moves back
        assert not any(clock.fires(now) for now in (1, 2_500, 5_000))
        assert stream.draws == []
        assert clock.fires(5_100)
        assert stream.draws == [pytest.approx(1.0 - math.exp(-0.1))]

    def test_draws_match_the_thinning_formula(self):
        mtbf = 1_000
        clock = HazardClock(mtbf, RandomStream(7, "hazard"))
        twin = RandomStream(7, "hazard")
        last = 0
        fired = []
        for now in (0, 120, 120, 900, 450, 2_500, 2_501, 9_000, 9_400):
            expected = False
            if now > last:
                p = 1.0 - math.exp(-(now - last) / mtbf)
                expected = twin.random() < p
                last = now
            assert clock.fires(now) is expected, now
            fired.append(expected)
        assert True in fired and False in fired


class TestNullInjector:
    def test_no_failures_is_free(self):
        assert NoFailures.io_penalty() == 0.0
        assert NoFailures.crashes == 0

    def test_healthy_run_reports_no_hazards(self):
        results = run_replication(config_with(FailureConfig()), seed=1)
        assert results.phase.transient_faults == 0
        assert results.phase.crashes == 0
        assert results.phase.downtime_ms == 0.0

    def test_model_uses_null_injector_when_disabled(self):
        model = VOODBSimulation(config_with(FailureConfig()), seed=1)
        assert isinstance(model.failures, NoFailures) or model.failures is NoFailures


class TestTransientFaults:
    def test_faults_occur_and_slow_the_run(self):
        healthy = run_replication(config_with(FailureConfig()), seed=1)
        faulty = run_replication(
            config_with(FailureConfig(transient_mtbf_ms=50.0)), seed=1
        )
        assert faulty.phase.transient_faults > 0
        assert faulty.phase.elapsed_ms > healthy.phase.elapsed_ms
        # faults cost time, never I/Os
        assert faulty.total_ios == healthy.total_ios

    def test_fault_rate_scales_with_mtbf(self):
        rare = run_replication(
            config_with(FailureConfig(transient_mtbf_ms=10_000.0)), seed=1
        )
        frequent = run_replication(
            config_with(FailureConfig(transient_mtbf_ms=20.0)), seed=1
        )
        assert frequent.phase.transient_faults > rare.phase.transient_faults

    def test_reproducible(self):
        a = run_replication(
            config_with(FailureConfig(transient_mtbf_ms=50.0)), seed=9
        )
        b = run_replication(
            config_with(FailureConfig(transient_mtbf_ms=50.0)), seed=9
        )
        assert a.phase.transient_faults == b.phase.transient_faults
        assert a.phase.elapsed_ms == pytest.approx(b.phase.elapsed_ms)


class TestCrashes:
    def crash_config(self, mtbf=300.0, recovery=500.0):
        return config_with(
            FailureConfig(crash_mtbf_ms=mtbf, recovery_time_ms=recovery)
        )

    def test_crashes_lose_the_buffer_and_cost_downtime(self):
        results = run_replication(self.crash_config(), seed=1)
        phase = results.phase
        assert phase.crashes > 0
        assert phase.downtime_ms == pytest.approx(phase.crashes * 500.0)

    def test_crashes_increase_ios_via_cold_cache(self):
        healthy = run_replication(config_with(FailureConfig()), seed=1)
        crashing = run_replication(self.crash_config(mtbf=200.0), seed=1)
        assert crashing.total_ios > healthy.total_ios

    def test_workload_still_completes(self):
        results = run_replication(self.crash_config(mtbf=100.0), seed=1)
        assert results.phase.transactions == SMALL.hotn

    def test_metrics_flattened(self):
        results = run_replication(self.crash_config(), seed=1)
        metrics = results.to_metrics()
        assert metrics["crashes"] == float(results.phase.crashes)
        assert "transient_faults" in metrics
        assert "downtime_ms" in metrics


class _StubMemory:
    """Just enough buffer surface for a bare injector: crash recovery
    invalidates every frame; the stub has none to lose."""

    def invalidate_all(self) -> int:
        return 0


class TestBackToBackCrashes:
    """The hazard-clock regression: recovery downtime is dead time.

    With ``crash_mtbf_ms`` far below ``recovery_time_ms`` every exposed
    probe crashes almost surely — but probes landing *inside* a recovery
    window (concurrent transactions keep running while one holds the
    downtime) must draw nothing, and the post-recovery probe must
    measure up-time only.  The original clock handling left the markers
    at the crash instant, so the recovery window itself was counted as
    hazard exposure and crashes chained back-to-back.
    """

    MTBF_MS = 1.0
    RECOVERY_MS = 5_000.0

    def _injector(self, sim):
        from repro.core.failures import FailureInjector

        return FailureInjector(
            sim,
            FailureConfig(
                crash_mtbf_ms=self.MTBF_MS, recovery_time_ms=self.RECOVERY_MS
            ),
            _StubMemory(),
        )

    def test_consecutive_crashes_are_a_full_recovery_apart(self):
        from repro.despy import Hold, Simulation
        from repro.despy.timebase import ms_to_ticks

        sim = Simulation(seed=7)
        injector = self._injector(sim)
        crash_times = []

        def victim():
            # Probes every 100 ms of up-time and rides out its own
            # downtime, like the transaction that drew the crash.
            for _ in range(20):
                yield Hold(ms_to_ticks(100.0))
                downtime = injector.crash_check()
                if downtime:
                    crash_times.append(sim.now)
                    yield Hold(downtime)

        def bystander():
            # Concurrent prober that never holds downtime — its probes
            # land inside the victim's recovery windows.
            for _ in range(4_000):
                yield Hold(ms_to_ticks(7.0))
                downtime = injector.crash_check()
                if downtime:
                    crash_times.append(sim.now)

        sim.process(victim())
        sim.process(bystander())
        sim.run()

        assert len(crash_times) >= 2, "mtbf << probe interval must crash"
        gap = ms_to_ticks(self.RECOVERY_MS)
        for earlier, later in zip(crash_times, crash_times[1:]):
            assert later - earlier >= gap, (
                f"crash at {later} only {later - earlier} ticks after "
                f"{earlier}: drawn from inside the recovery window"
            )

    def test_marker_never_rewinds_into_the_recovery_window(self):
        from repro.despy import Hold, Simulation
        from repro.despy.timebase import ms_to_ticks

        sim = Simulation(seed=11)
        injector = self._injector(sim)
        observed = []

        def driver():
            yield Hold(ms_to_ticks(200.0))
            observed.append(("first", injector.crash_check()))
            # Probe mid-recovery: dead time, never exposure.
            yield Hold(ms_to_ticks(self.RECOVERY_MS / 2))
            observed.append(("inside", injector.crash_check()))
            # One tick past the window: exposure is that tick alone, not
            # the window — a draw here is astronomically unlikely even
            # at a 1 ms MTBF if the clock was advanced correctly.
            yield Hold(ms_to_ticks(self.RECOVERY_MS / 2) + 1)
            observed.append(("after", injector.crash_check()))

        sim.process(driver())
        sim.run()

        kinds = dict(observed)
        assert kinds["first"] > 0, "200 ms exposure at 1 ms MTBF crashes"
        assert kinds["inside"] == 0
        assert injector.downtime_ticks == ms_to_ticks(self.RECOVERY_MS) * (
            injector.crashes
        )

    def test_storm_run_downtime_stays_inside_the_wall_clock(self):
        # Integration: a closed run under a crash storm still terminates
        # and cannot spend more time down than it spent simulating.
        config = config_with(
            FailureConfig(crash_mtbf_ms=100.0, recovery_time_ms=2_000.0)
        )
        results = run_replication(config, seed=3)
        phase = results.phase
        assert phase.transactions == SMALL.hotn
        assert phase.crashes > 0
        assert phase.downtime_ms == pytest.approx(phase.crashes * 2_000.0)
        assert phase.downtime_ms <= phase.elapsed_ms
