"""Unit tests for the prefetching policies (Table 3 PREFETCH)."""

import pytest

from repro.despy import Simulation
from repro.core import (
    BufferManager,
    ClusterPrefetch,
    IOSubsystem,
    NoPrefetch,
    OneAheadPrefetch,
    SystemClass,
    VOODBConfig,
    VOODBSimulation,
    make_prefetch_policy,
)
from repro.core.architectures import Centralized
from repro.ocb import OCBConfig


class _PagePerObject:
    """Object directory stub: object ``i`` lives alone on page ``i``."""

    total_pages = 100
    page_ranges = [range(oid, oid + 1) for oid in range(total_pages)]


def _two_frame_server():
    """A centralized server with a 2-frame LRU buffer, prefetching one
    page ahead of every demand miss."""
    sim = Simulation()
    config = VOODBConfig(
        sysclass=SystemClass.CENTRALIZED,
        buffsize=2,
        pgrep="LRU",
        prefetch="one_ahead",
    )
    return Centralized(
        sim,
        config,
        None,
        _PagePerObject(),
        BufferManager(config, sim.stream("memory")),
        IOSubsystem(sim, config),
        None,
        OneAheadPrefetch(),
    )


def _touch(arch, *oids):
    """Read the objects one after another in one simulated process."""

    def work():
        for oid in oids:
            step = arch.access_object_nowait(oid, False)
            if step is not None:
                yield from step

    arch.sim.process(work())
    arch.sim.run()


class TestPolicies:
    def test_no_prefetch_returns_nothing(self):
        assert NoPrefetch().pages_after_miss(5, 100) == []

    def test_one_ahead(self):
        assert OneAheadPrefetch().pages_after_miss(5, 100) == [6]

    def test_one_ahead_respects_end_of_extent(self):
        assert OneAheadPrefetch().pages_after_miss(99, 100) == []

    def test_cluster_span(self):
        assert ClusterPrefetch(span=3).pages_after_miss(5, 100) == [6, 7, 8]

    def test_cluster_span_clipped_at_extent(self):
        assert ClusterPrefetch(span=4).pages_after_miss(98, 100) == [99]

    def test_cluster_rejects_bad_span(self):
        with pytest.raises(ValueError):
            ClusterPrefetch(span=0)


class TestFactory:
    def test_factory_names(self):
        assert isinstance(make_prefetch_policy("none"), NoPrefetch)
        assert isinstance(make_prefetch_policy("one_ahead"), OneAheadPrefetch)
        assert isinstance(make_prefetch_policy("cluster"), ClusterPrefetch)

    def test_cluster_span_forwarded(self):
        policy = make_prefetch_policy("cluster", cluster_span=7)
        assert policy.span == 7

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_prefetch_policy("oracle")


class TestIntegration:
    def _run(self, prefetch):
        config = VOODBConfig(
            sysclass=SystemClass.CENTRALIZED,
            buffsize=64,
            prefetch=prefetch,
            ocb=OCBConfig(nc=5, no=300, hotn=60),
        )
        model = VOODBSimulation(config, seed=3)
        return model, model.run()

    def test_one_ahead_prefetches_pages(self):
        model, results = self._run("one_ahead")
        assert results.phase.prefetched_pages > 0

    def test_prefetch_hits_counted(self):
        model, results = self._run("one_ahead")
        assert results.phase.prefetch_hits <= results.phase.prefetched_pages

    def test_no_prefetch_stages_nothing(self):
        model, results = self._run("none")
        assert results.phase.prefetched_pages == 0

    def test_prefetch_hit_is_a_hit_on_a_page_prefetched_unused(self):
        arch = _two_frame_server()
        _touch(arch, 10, 11)  # 11 was prefetched by the miss on 10
        assert (arch.prefetched_pages, arch.prefetch_hits) == (1, 1)

    def test_demand_read_page_is_no_longer_prefetched(self):
        """Prefetched, evicted unused, then demand-read: its next hit is
        an ordinary hit, not a prefetch hit."""
        arch = _two_frame_server()
        # 10 misses and prefetches 11; 20 evicts 10, prefetches 21 and
        # evicts 11 unused; 11 is demand-read, then hit.
        _touch(arch, 10, 20, 11, 11)
        assert arch.prefetched_pages == 3
        assert arch.prefetch_hits == 0

    def test_prefetch_skipped_under_virtual_memory(self):
        config = VOODBConfig(
            sysclass=SystemClass.CENTRALIZED,
            memory_model="virtual_memory",
            buffsize=64,
            prefetch="one_ahead",
            ocb=OCBConfig(nc=5, no=300, hotn=60),
        )
        results = VOODBSimulation(config, seed=3).run()
        assert results.phase.prefetched_pages == 0
