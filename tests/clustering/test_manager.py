"""Integration tests for the Clustering Manager inside the model."""

from repro.clustering import DSTCParameters
from repro.core import SystemClass, VOODBConfig, VOODBSimulation
from repro.core.architectures import Architecture
from repro.ocb import OCBConfig

# Hot repeated traversals over ~1-3 KB objects with no initial locality:
# the miniature version of the §4.4 "favorable conditions".
HOT_OCB = OCBConfig(
    nc=6,
    no=400,
    hotn=60,
    root_region=20,
    object_locality=400,
    basesize=900,
    maxsizemult=3,
    phier=1.0,
    pset=0.0,
    psimple=0.0,
    pstoch=0.0,
)


def make_model(clustp="dstc", auto=False, seed=3, **cfg):
    config = VOODBConfig(
        sysclass=cfg.pop("sysclass", SystemClass.CENTRALIZED),
        buffsize=256,
        clustp=clustp,
        ocb=cfg.pop("ocb", HOT_OCB),
        **cfg,
    )
    params = DSTCParameters(
        observation_period=30,
        tfa=2,
        tfe=2,
        tfc=2,
        auto_trigger=auto,
    )
    return VOODBSimulation(
        config, seed=seed, clustering_kwargs={"dstc_parameters": params}
    )


class TestExternalDemand:
    def test_demand_builds_and_installs_clusters(self):
        model = make_model()
        model.run_phase(60, stream_label="usage")
        report = model.demand_clustering()
        assert report.reorganizations == 1
        assert report.clusters > 0
        assert report.overhead_writes > 0
        assert model.object_manager.rebuilds == 1

    def test_demand_without_stats_is_noop(self):
        model = make_model()
        report = model.demand_clustering()
        assert report.reorganizations == 0
        assert report.clusters == 0
        assert model.object_manager.rebuilds == 0

    def test_overhead_excluded_from_phase_usage(self):
        model = make_model(auto=True)
        phase = model.run_phase(60, stream_label="usage")
        report = model.clustering.report
        if report.reorganizations:
            # usage I/O figures exclude the reorganization traffic
            assert phase.reads >= 0
            assert phase.writes >= 0
        total_io = model.io.reads + model.io.writes
        usage_io = phase.reads + phase.writes
        assert total_io == usage_io + report.overhead_reads + report.overhead_writes

    def test_clustering_improves_hot_hierarchy_workload(self):
        model = make_model()
        pre = model.run_phase(
            60,
            workload="hierarchy",
            stream_label="usage",
            hierarchy_type=0,
            hierarchy_depth=3,
        )
        model.demand_clustering()
        post = model.run_phase(
            60,
            workload="hierarchy",
            stream_label="usage",
            hierarchy_type=0,
            hierarchy_depth=3,
        )
        assert post.total_ios <= pre.total_ios

    def test_moved_objects_still_readable(self):
        model = make_model()
        model.run_phase(60, stream_label="usage")
        model.demand_clustering()
        om = model.object_manager
        for oid in range(len(model.db)):
            page = om.page_of(oid)
            assert oid in om.objects_on(page)


class TestAutomaticTrigger:
    def test_auto_trigger_reorganizes_inside_phase(self):
        model = make_model(auto=True)
        model.run_phase(60, workload="hierarchy", stream_label="usage",
                        hierarchy_type=0, hierarchy_depth=3)
        assert model.clustering.report.reorganizations >= 1

    def test_auto_reorganizations_notify_the_architecture(self, monkeypatch):
        # A page server's client cache holds page images a reorganization
        # makes stale, so every automatic reorganization must reach
        # Architecture.notify_reorganized, as a demanded one does.
        notified = []
        original = Architecture.notify_reorganized

        def counting(architecture):
            notified.append(architecture.sim.now)
            original(architecture)

        monkeypatch.setattr(Architecture, "notify_reorganized", counting)
        model = make_model(auto=True, sysclass=SystemClass.PAGE_SERVER,
                           client_buffsize=64)
        model.run_phase(60, workload="hierarchy", stream_label="usage",
                        hierarchy_type=0, hierarchy_depth=3)
        reorganizations = model.clustering.report.reorganizations
        assert reorganizations >= 1
        assert len(notified) == reorganizations

    def test_no_trigger_when_policy_is_none(self):
        model = make_model(clustp="none")
        model.run_phase(60, stream_label="usage")
        assert model.clustering.report.reorganizations == 0
        report = model.demand_clustering()
        assert report.reorganizations == 0


class TestGreedyPolicy:
    def test_greedy_reorganizes_on_demand(self):
        config = VOODBConfig(
            sysclass=SystemClass.CENTRALIZED,
            buffsize=256,
            clustp="greedy",
            ocb=HOT_OCB,
        )
        model = VOODBSimulation(
            config, seed=3, clustering_kwargs={"max_cluster_size": 12}
        )
        model.run_phase(20, stream_label="usage")
        report = model.demand_clustering()
        assert report.reorganizations == 1
        assert report.clusters > 0
