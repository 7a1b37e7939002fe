"""Unit tests for the Users component (Figure 4's transaction sources)."""

import pytest

from repro.despy import MS_PER_TICK
from repro.core import (
    ArrivalConfig,
    SystemClass,
    VOODBConfig,
    VOODBSimulation,
    run_replication,
)
from repro.core.parameters import AggregationConfig
from repro.ocb import OCBConfig

SMALL = OCBConfig(nc=5, no=300, hotn=60)


def make_model(**overrides) -> VOODBSimulation:
    config = VOODBConfig(
        sysclass=SystemClass.CENTRALIZED,
        buffsize=64,
        ocb=overrides.pop("ocb", SMALL),
        **overrides,
    )
    return VOODBSimulation(config, seed=5)


class TestLaunch:
    def test_rejects_negative_count(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.users.launch(-1)

    def test_rejects_unknown_workload(self):
        model = make_model()
        with pytest.raises(ValueError, match="unknown workload"):
            model.users.launch(10, workload="oltp")

    def test_zero_transactions_launches_nothing(self):
        model = make_model()
        assert model.users.launch(0) == []

    def test_transactions_divided_across_users(self):
        model = make_model(nusers=4)
        processes = model.users.launch(10, stream_label="split")
        assert len(processes) == 4
        model.sim.run()
        assert model.tm.transactions_executed == 10

    def test_more_users_than_transactions(self):
        model = make_model(nusers=8)
        processes = model.users.launch(3, stream_label="sparse")
        assert len(processes) == 3  # idle users spawn no process
        model.sim.run()
        assert model.tm.transactions_executed == 3

    def test_submission_counter(self):
        model = make_model()
        model.users.launch(7, stream_label="count")
        model.sim.run()
        assert model.users.transactions_submitted == 7


class TestStreams:
    def test_same_label_same_workload(self):
        a = make_model()
        a.users.launch(20, stream_label="same")
        a.sim.run()
        b = make_model()
        b.users.launch(20, stream_label="same")
        b.sim.run()
        assert a.tm.objects_accessed == b.tm.objects_accessed

    def test_different_labels_differ(self):
        a = make_model()
        a.users.launch(20, stream_label="one")
        a.sim.run()
        b = make_model()
        b.users.launch(20, stream_label="two")
        b.sim.run()
        assert a.tm.objects_accessed != b.tm.objects_accessed

    def test_users_draw_independent_streams(self):
        """Two users with the same label still see different transactions
        (per-user stream names)."""
        model = make_model(nusers=2)
        model.users.launch(40, stream_label="multi")
        model.sim.run()
        kinds = model.tm.phase_kind_counts
        assert sum(kinds.values()) == 40


class TestThinkTime:
    def test_think_time_stretches_the_run(self):
        fast = make_model()
        fast.users.launch(20, stream_label="t")
        fast.sim.run()
        slow = make_model(ocb=SMALL.with_changes(thinktime=100.0))
        slow.users.launch(20, stream_label="t")
        slow.sim.run()
        assert slow.sim.now_ms >= fast.sim.now_ms + 19 * 100.0


class TestOcbOverride:
    def test_override_changes_phase_mix_only(self):
        model = make_model()
        hier_only = SMALL.with_changes(
            pset=0.0, psimple=0.0, phier=1.0, pstoch=0.0
        )
        phase = model.run_phase(
            15, stream_label="ov", ocb_override=hier_only
        )
        assert phase.transactions_by_kind == {"hierarchy": 15}
        # next phase reverts to the configured mix
        phase2 = model.run_phase(30, stream_label="normal")
        assert len(phase2.transactions_by_kind) > 1

    def test_override_think_time_applies(self):
        model = make_model()
        before = model.sim.now
        model.run_phase(
            5,
            stream_label="think",
            ocb_override=SMALL.with_changes(thinktime=50.0),
        )
        assert (model.sim.now - before) * MS_PER_TICK >= 4 * 50.0


class TestPopulationValidation:
    """``nusers``/``multilvl`` are validated even for configs mutated
    past ``__post_init__`` (the ramp-scenario regression)."""

    def test_config_rejects_zero_users(self):
        with pytest.raises(ValueError, match="nusers"):
            VOODBConfig(nusers=0)

    def test_config_rejects_negative_multiprogramming(self):
        with pytest.raises(ValueError, match="multilvl"):
            VOODBConfig(multilvl=-1)

    def test_run_replication_guards_hacked_nusers(self):
        config = VOODBConfig(sysclass=SystemClass.CENTRALIZED, ocb=SMALL)
        object.__setattr__(config, "nusers", 0)
        with pytest.raises(ValueError, match="nusers must be >= 1"):
            run_replication(config, seed=1)

    def test_run_replication_guards_hacked_multilvl(self):
        config = VOODBConfig(sysclass=SystemClass.CENTRALIZED, ocb=SMALL)
        object.__setattr__(config, "multilvl", -2)
        with pytest.raises(ValueError, match="multilvl must be >= 1"):
            run_replication(config, seed=1)

    def test_launch_guards_hacked_config(self):
        model = make_model()
        object.__setattr__(model.config, "nusers", 0)
        with pytest.raises(ValueError, match="nusers must be >= 1"):
            model.users.launch(10)


class TestOpenSystem:
    def test_open_launch_submits_everything(self):
        model = make_model(arrivals=ArrivalConfig(mode="poisson", rate_tps=100.0))
        processes = model.users.launch(25, stream_label="open")
        assert len(processes) == 1  # one arrival source
        model.sim.run()
        assert model.users.transactions_submitted == 25
        assert model.tm.transactions_executed == 25

    def test_open_phase_is_deterministic(self):
        def run_once():
            model = make_model(
                arrivals=ArrivalConfig(mode="poisson", rate_tps=50.0)
            )
            model.users.launch(30, stream_label="open")
            model.sim.run()
            return model.sim.now, model.tm.objects_accessed

        assert run_once() == run_once()

    def test_open_config_drives_standard_run(self):
        config = VOODBConfig(
            sysclass=SystemClass.CENTRALIZED,
            buffsize=64,
            ocb=SMALL,
            arrivals=ArrivalConfig(mode="poisson", rate_tps=50.0),
        )
        result = run_replication(config, seed=3)
        assert result.phase.transactions == SMALL.hotn
        again = run_replication(config, seed=3)
        assert result.to_metrics() == again.to_metrics()

    def test_arrival_stream_independent_of_workload_stream(self):
        """Arrival instants draw from ``{label}/arrivals``, transactions
        from ``{label}/source`` — common random numbers hold: two mixes
        compared under the same seed see identical arrival gaps."""
        from repro.despy.randomstream import RandomStream

        arrivals = ArrivalConfig(mode="poisson", rate_tps=10.0)
        gaps_a = arrivals.interarrivals(RandomStream(5, "crn/arrivals"))
        gaps_b = arrivals.interarrivals(RandomStream(5, "crn/arrivals"))
        assert [next(gaps_a) for _ in range(10)] == [
            next(gaps_b) for _ in range(10)
        ]

    def test_mmpp_open_mode_runs(self):
        config = VOODBConfig(
            sysclass=SystemClass.CENTRALIZED,
            buffsize=64,
            ocb=SMALL,
            arrivals=ArrivalConfig(
                mode="mmpp",
                rate_tps=5.0,
                burst_rate_tps=200.0,
                mean_calm_ms=1_000.0,
                mean_burst_ms=200.0,
            ),
        )
        result = run_replication(config, seed=2)
        assert result.phase.transactions == SMALL.hotn


class TestPhaseSources:
    """A phase starts its sources through one ``Users.launch``, and the
    config's arrival process names them."""

    @staticmethod
    def launched(monkeypatch, model, transactions) -> list:
        """Run one phase; return the process names of each launch."""
        names = []
        launch = model.users.launch

        def recording_launch(*args, **kwargs):
            processes = launch(*args, **kwargs)
            names.append([process.name for process in processes])
            return processes

        monkeypatch.setattr(model.users, "launch", recording_launch)
        model.run_phase(transactions, stream_label="p")
        return names

    def test_closed_phase_starts_each_busy_user(self, monkeypatch):
        model = make_model(nusers=4)
        assert self.launched(monkeypatch, model, 3) == [
            ["user-0/p", "user-1/p", "user-2/p"]
        ]
        assert model.tm.transactions_executed == 3

    def test_open_phase_starts_one_arrival_source(self, monkeypatch):
        model = make_model(
            nusers=3, arrivals=ArrivalConfig(mode="poisson", rate_tps=100.0)
        )
        assert self.launched(monkeypatch, model, 12) == [["arrivals/p"]]
        assert model.tm.transactions_executed == 12

    def test_aggregated_phase_starts_the_source_then_the_probes(
        self, monkeypatch
    ):
        model = make_model(
            ocb=SMALL.with_changes(thinktime=100 * 25.0),
            aggregation=AggregationConfig(
                population=100, probe_cohort=2, pilot_transactions=60
            ),
        )
        assert self.launched(monkeypatch, model, 30) == [
            ["aggregate/p", "probe-0/p", "probe-1/p"]
        ]
        assert model.tm.transactions_executed == 30
        assert model.users.aggregate_completions == 28
