"""Unit tests for the system-class strategies (§3.3 genericity)."""

import math

import pytest

from repro.clustering import DSTCParameters
from repro.core import (
    Centralized,
    ClusterConfig,
    DBServer,
    ObjectServer,
    PageServer,
    SystemClass,
    VOODBConfig,
    VOODBSimulation,
)
from repro.core.architectures import ClusterObjectServer, ClusterPageServer
from repro.core.buffering import BufferManager
from repro.ocb import OCBConfig

SMALL_OCB = OCBConfig(nc=5, no=200, hotn=50)


def build_model(sysclass, **overrides) -> VOODBSimulation:
    config = VOODBConfig(
        sysclass=sysclass,
        buffsize=64,
        netthru=overrides.pop("netthru", 10.0),
        ocb=overrides.pop("ocb", SMALL_OCB),
        **overrides,
    )
    return VOODBSimulation(config, seed=7)


class TestFactory:
    @pytest.mark.parametrize(
        "sysclass,cls",
        [
            (SystemClass.CENTRALIZED, Centralized),
            (SystemClass.PAGE_SERVER, PageServer),
            (SystemClass.OBJECT_SERVER, ObjectServer),
            (SystemClass.DB_SERVER, DBServer),
        ],
    )
    def test_model_builds_selected_architecture(self, sysclass, cls):
        model = build_model(sysclass)
        assert isinstance(model.architecture, cls)


class TestNetworkBehaviour:
    def test_centralized_never_touches_network(self):
        model = build_model(SystemClass.CENTRALIZED)
        model.run()
        assert model.network.messages == 0

    def test_page_server_ships_one_page_per_access(self):
        model = build_model(SystemClass.PAGE_SERVER)
        results = model.run()
        # one request + one page reply per page access
        assert model.network.messages == 2 * results.phase.object_accesses

    def test_object_server_ships_objects(self):
        model = build_model(SystemClass.OBJECT_SERVER)
        results = model.run()
        assert model.network.messages == 2 * results.phase.object_accesses
        # replies carry object payloads, smaller than pages on average
        page_model = build_model(SystemClass.PAGE_SERVER)
        page_results = page_model.run()
        bytes_per_msg_obj = model.network.bytes_sent / model.network.messages
        bytes_per_msg_page = (
            page_model.network.bytes_sent / page_model.network.messages
        )
        assert bytes_per_msg_obj < bytes_per_msg_page

    def test_db_server_ships_two_messages_per_transaction(self):
        model = build_model(SystemClass.DB_SERVER)
        results = model.run()
        assert model.network.messages == 2 * results.phase.transactions

    def test_io_counts_independent_of_architecture_without_client_cache(self):
        """§3.3: the server-side I/O path is shared; with an infinite
        network and no client cache, every organization sees the same
        disk traffic for the same workload."""
        totals = {}
        for sysclass in (
            SystemClass.CENTRALIZED,
            SystemClass.PAGE_SERVER,
            SystemClass.OBJECT_SERVER,
            SystemClass.DB_SERVER,
        ):
            model = build_model(sysclass, netthru=math.inf)
            totals[sysclass] = model.run().total_ios
        assert len(set(totals.values())) == 1

    def test_finite_network_slows_response_time(self):
        fast = build_model(SystemClass.PAGE_SERVER, netthru=math.inf).run()
        slow = build_model(SystemClass.PAGE_SERVER, netthru=0.5).run()
        assert slow.mean_response_time_ms > fast.mean_response_time_ms


class TestClientCache:
    def test_page_server_client_cache_absorbs_repeats(self):
        without = build_model(SystemClass.PAGE_SERVER)
        with_cache = build_model(SystemClass.PAGE_SERVER, client_buffsize=64)
        r_without = without.run()
        r_with = with_cache.run()
        assert with_cache.architecture.client_cache.hits > 0
        assert with_cache.network.messages < without.network.messages
        assert r_with.phase.transactions == r_without.phase.transactions

    def test_object_server_client_cache_absorbs_repeats(self):
        model = build_model(SystemClass.OBJECT_SERVER, client_buffsize=16)
        model.run()
        assert model.architecture.client_cache.hits > 0

    def test_no_client_cache_by_default(self):
        model = build_model(SystemClass.PAGE_SERVER)
        assert model.architecture.client_cache is None


class TestOneRoundTrip:
    """One object access, cold server buffer, at t=0: the request crosses,
    the server reads its buffer (a miss, so one disk read), the response
    crosses — on a free network the same path passes no network time."""

    @pytest.mark.parametrize("netthru", [math.inf, 1.0], ids=["free", "1mbps"])
    @pytest.mark.parametrize(
        "sysclass,cluster,cls",
        [
            (SystemClass.PAGE_SERVER, False, PageServer),
            (SystemClass.OBJECT_SERVER, False, ObjectServer),
            (SystemClass.PAGE_SERVER, True, ClusterPageServer),
            (SystemClass.OBJECT_SERVER, True, ClusterObjectServer),
        ],
        ids=["page", "object", "cluster-page", "cluster-object"],
    )
    def test_request_crosses_before_the_server_reads(
        self, monkeypatch, sysclass, cluster, cls, netthru
    ):
        changes = {}
        if cluster:
            changes["cluster"] = ClusterConfig(
                servers=3, placement="hash", interconnect_mbps=math.inf
            )
        model = build_model(sysclass, netthru=netthru, **changes)
        arch, net, sim = model.architecture, model.network, model.sim
        assert type(arch) is cls
        oid = next(
            oid
            for oid in range(model.db.config.no)
            if len(model.object_manager.pages_of(oid)) == 1
        )
        server_reads = []
        access = BufferManager.access

        def recording_access(buffer, page, write=False):
            server_reads.append(sim.now)
            return access(buffer, page, write)

        monkeypatch.setattr(BufferManager, "access", recording_access)

        step = arch.access_object_nowait(oid, False)
        assert step is not None  # the cold buffer misses: the disk owes time
        sim.process(step)
        sim.run()

        config = model.config
        ships_pages = cls in (PageServer, ClusterPageServer)
        response = config.pgsize if ships_pages else model.db.size(oid)
        disks = [node.io for node in model.cluster.nodes] if cluster else [model.io]
        assert sum(io.reads for io in disks) == 1
        disk_ticks = sum(io.busy_ticks for io in disks)
        assert net.messages == 2
        assert net.bytes_sent == config.message_bytes + response
        if math.isinf(netthru):
            assert net.busy_ticks == 0
            assert server_reads == [0]
        else:
            request_ticks = net.transfer_ticks(config.message_bytes)
            assert net.busy_ticks == request_ticks + net.transfer_ticks(response)
            assert server_reads == [request_ticks]
        assert sim.now == net.busy_ticks + disk_ticks


class TestPageRangeTable:
    """The per-object faces index ``object_manager.page_ranges`` at each
    access: a reorganization installs a new table, and an OCB insert
    extends the installed one in place."""

    @staticmethod
    def _page_server(clustp="none", **model_kwargs) -> VOODBSimulation:
        config = VOODBConfig(
            sysclass=SystemClass.PAGE_SERVER,
            buffsize=64,
            netthru=math.inf,
            clustp=clustp,
            ocb=SMALL_OCB,
        )
        return VOODBSimulation(config, seed=7, **model_kwargs)

    @staticmethod
    def _server_reads(monkeypatch, model, oid):
        """The pages the server buffer reads for one access of ``oid``."""
        pages = []
        access = BufferManager.access

        def recording_access(buffer, page, write=False):
            if buffer is model.memory:
                pages.append(page)
            return access(buffer, page, write)

        monkeypatch.setattr(BufferManager, "access", recording_access)
        step = model.architecture.access_object_nowait(oid, False)
        if step is not None:
            model.sim.process(step)
            model.sim.run()
        return pages

    def test_moved_object_is_read_from_its_new_page(self, monkeypatch):
        model = self._page_server(
            "dstc",
            clustering_kwargs={
                "dstc_parameters": DSTCParameters(observation_period=25)
            },
        )
        model.run_phase(50, stream_label="usage")
        old = list(model.object_manager.page_ranges)
        assert model.demand_clustering().reorganizations == 1
        new = model.object_manager.page_ranges
        moved = [oid for oid in range(len(old)) if new[oid] != old[oid]]
        assert moved
        for oid in moved[:5]:
            assert self._server_reads(monkeypatch, model, oid) == list(new[oid])
            monkeypatch.undo()

    def test_inserted_object_is_read_from_its_appended_page(self, monkeypatch):
        model = self._page_server(clone_database=True)
        om = model.object_manager
        last_page = om.total_pages - 1
        oid = model.db.insert_object(0, [], [])
        page = om.allocate(oid, model.config.usable_page_bytes)
        assert page > last_page
        assert self._server_reads(monkeypatch, model, oid) == [page]
