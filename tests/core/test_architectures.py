"""Unit tests for the system-class strategies (§3.3 genericity)."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DSTCParameters
from repro.clustering.placement import relocation_placement
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
from repro.core.network import Network
from repro.core.replacement import EmptyPolicyError
from repro.core.virtual_memory import VirtualMemoryManager
from repro.despy import Hold, RandomStream
from repro.ocb import OCBConfig
from repro.ocb.transactions import Transaction

SMALL_OCB = OCBConfig(nc=5, no=200, hotn=50)
#: Objects of 3-9 KB, so many of them span two or three 4 KB pages.
MULTI_PAGE_OCB = OCBConfig(nc=5, no=200, hotn=50, basesize=3000, maxsizemult=3)


def build_model(sysclass, **overrides) -> VOODBSimulation:
    config = VOODBConfig(
        sysclass=sysclass,
        buffsize=overrides.pop("buffsize", 64),
        netthru=overrides.pop("netthru", 10.0),
        ocb=overrides.pop("ocb", SMALL_OCB),
        **overrides,
    )
    return VOODBSimulation(config, seed=7)


def walk(arch, accesses) -> int:
    """Run the walk of ``accesses`` in one simulated process, each step
    as the Transaction Manager runs it; return how many steps it
    yielded."""
    steps = []

    def work():
        for step in arch.access_steps(accesses):
            steps.append(step)
            yield from step

    arch.sim.process(work())
    arch.sim.run()
    return len(steps)


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


class TestTransactionEnvelope:
    """A DB server's request and response cross inside
    ``TransactionManager.execute``, outside the response time."""

    def test_execute_books_both_crossings_outside_the_response(self):
        model = build_model(SystemClass.DB_SERVER, netthru=1.0)
        network, tm = model.network, model.tm
        accesses = ((3, False), (5, True))
        model.sim.process(tm.execute(Transaction("simple", 3, accesses)))
        model.sim.run()
        assert network.messages == 2
        assert network.bytes_sent == 2 * model.config.message_bytes
        (response,) = tm.phase_response_series
        assert response > 0 and network.busy_ticks > 0
        assert model.sim.now == response + network.busy_ticks

    def test_phase_response_series_excludes_both_crossings(self):
        model = build_model(SystemClass.DB_SERVER, netthru=1.0)
        phase = model.run_phase(20)
        network, series = model.network, model.tm.phase_response_series
        assert network.messages == 2 * phase.transactions == 40
        # One user, no think time: the phase is its transactions and
        # their crossings back to back.
        assert model.sim.now == sum(series) + network.busy_ticks


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

        # The cold buffer misses: the disk owes time.
        assert walk(arch, [(oid, False)]) > 0

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


class TestInPlaceWalk:
    """A trace whose every access resolves in place yields no step: server
    buffer hits on a free network, client-cache hits on a throttled one,
    for every system class."""

    @pytest.mark.parametrize(
        "sysclass,cluster,netthru,client_buffsize",
        [
            (SystemClass.CENTRALIZED, False, math.inf, 0),
            (SystemClass.DB_SERVER, False, math.inf, 0),
            (SystemClass.PAGE_SERVER, False, math.inf, 0),
            (SystemClass.OBJECT_SERVER, False, math.inf, 0),
            (SystemClass.PAGE_SERVER, True, math.inf, 0),
            (SystemClass.OBJECT_SERVER, True, math.inf, 0),
            (SystemClass.PAGE_SERVER, False, 1.0, 64),
            (SystemClass.OBJECT_SERVER, False, 1.0, 64),
            (SystemClass.PAGE_SERVER, True, 1.0, 64),
            (SystemClass.OBJECT_SERVER, True, 1.0, 64),
        ],
        ids=[
            "centralized",
            "db",
            "page-free",
            "object-free",
            "cluster-page-free",
            "cluster-object-free",
            "page-client-hits",
            "object-client-hits",
            "cluster-page-client-hits",
            "cluster-object-client-hits",
        ],
    )
    def test_all_hit_trace_yields_no_step(
        self, sysclass, cluster, netthru, client_buffsize
    ):
        changes = {"client_buffsize": client_buffsize}
        if cluster:
            changes["cluster"] = ClusterConfig(
                servers=3, placement="hash", interconnect_mbps=math.inf
            )
        model = build_model(sysclass, netthru=netthru, ocb=MULTI_PAGE_OCB, **changes)
        trace = [(oid, oid % 2 == 0) for oid in (3, 4, 5, 3)]
        assert walk(model.architecture, trace) > 0  # cold: the misses owe time
        messages = model.network.messages
        assert list(model.architecture.access_steps(trace)) == []
        # A free network's round trips are booked by the walk's end.
        if client_buffsize or sysclass in (
            SystemClass.CENTRALIZED,
            SystemClass.DB_SERVER,
        ):
            round_trips = 0
        elif sysclass is SystemClass.OBJECT_SERVER:
            round_trips = len(trace)
        else:
            ranges = model.object_manager.page_ranges
            round_trips = sum(len(ranges[oid]) for oid, __ in trace)
        assert model.network.messages == messages + 2 * round_trips


#: The single-server walks, each on a free network.
SERVER_WALKS = [
    SystemClass.CENTRALIZED,
    SystemClass.DB_SERVER,
    SystemClass.OBJECT_SERVER,
    SystemClass.PAGE_SERVER,
]
SERVER_WALK_IDS = ["centralized", "db", "object", "page"]

#: Memory models for the read-hit property: the buffer under two
#: policies, and the Texas virtual-memory model.
MEMORY_MODELS = {
    "buffer-lru": {"pgrep": "LRU"},
    "buffer-lfu": {"pgrep": "LFU"},
    "vm": {"memory_model": "virtual_memory"},
}


def _reference_closure(object_manager, root, size):
    """``size`` oids reached from ``root`` through the pages their pages
    reference, so a trace over them reads frames a swizzle reserved."""
    pool, queue = [], [root]
    while len(pool) < size:
        oid = queue.pop(0)
        if oid in pool:
            continue
        pool.append(oid)
        for page in object_manager.pages_of(oid):
            for target in object_manager.pages_referenced_by_page(page):
                queue.extend(object_manager.objects_on(target))
    return pool


def _memory_state(memory):
    """What an access can change: the counters, the frame tables, and
    the replacement policy's victims, drained in order."""
    names = (
        "hits",
        "misses",
        "dirty_writebacks",
        "swap_ins",
        "swap_outs",
        "reservations",
        "resident",
        "reserved",
        "_swapped_resident",
        "_swapped_reserved",
    )
    state = {
        name: copy.copy(getattr(memory, name))
        for name in names
        if hasattr(memory, name)
    }
    victims = state["victims"] = []
    while True:
        try:
            victims.append(memory.policy.choose_victim())
        except EmptyPolicyError:
            return state


class TestReadHitsInPlace:
    """The single-server walks resolve a read of a ``resident`` page in
    place, with the memory's ``touch`` and a tally of hits, and book the
    tally before every step they yield."""

    @pytest.mark.parametrize("memory", sorted(MEMORY_MODELS))
    @pytest.mark.parametrize("sysclass", SERVER_WALKS, ids=SERVER_WALK_IDS)
    @given(
        capacity=st.integers(min_value=3, max_value=12),
        trace=st.lists(
            st.tuples(st.integers(min_value=0, max_value=11), st.booleans()),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_walk_leaves_the_memory_as_access_does(
        self, sysclass, memory, capacity, trace
    ):
        """A one-user walk of a random read/write trace leaves hits,
        misses, dirty flags, the frame tables and the next victims as a
        twin model fed ``access(page, write)`` page by page does."""
        model = build_model(
            sysclass,
            netthru=math.inf,
            buffsize=capacity,
            ocb=MULTI_PAGE_OCB,
            **MEMORY_MODELS[memory],
        )
        om = model.object_manager
        pool = _reference_closure(om, 3, 12)
        trace = [(pool[index], write) for index, write in trace]
        if memory == "vm":
            twin = VirtualMemoryManager(
                model.config,
                RandomStream(1, "twin"),
                pages_referenced_by_page=om.pages_referenced_by_page,
            )
        else:
            twin = BufferManager(model.config, RandomStream(1, "twin"))
        assert type(model.memory) is type(twin)

        walk(model.architecture, trace)
        for oid, write in trace:
            for page in om.page_ranges[oid]:
                twin.access(page, write)
        assert _memory_state(model.memory) == _memory_state(twin)

    @pytest.mark.parametrize("sysclass", SERVER_WALKS, ids=SERVER_WALK_IDS)
    def test_counters_are_booked_before_each_miss_step(self, sysclass):
        """At each miss step a walk yields, ``memory.hits`` already counts
        every read hit before it; on the free page server, so does
        ``network.messages`` with every round trip and the miss's own
        request."""
        model = build_model(sysclass, netthru=math.inf, ocb=MULTI_PAGE_OCB)
        arch, memory, network = model.architecture, model.memory, model.network
        ranges = model.object_manager.page_ranges
        warm = [(3, False), (4, False)]
        walk(arch, warm)
        resident = {page for oid, __ in warm for page in ranges[oid]}
        cold = []  # two objects whose pages no other object shares
        taken = set(resident)
        for oid in range(5, len(ranges)):
            if len(cold) < 2 and taken.isdisjoint(ranges[oid]):
                cold.append((oid, False))
                taken.update(ranges[oid])
        trace = warm + cold[:1] + warm + cold[1:] + warm

        # (hits, messages since the walk began) at each miss step.
        expected = []
        hits = memory.hits
        pages = [page for oid, __ in trace for page in ranges[oid]]
        for position, page in enumerate(pages):
            if page in resident:
                hits += 1
            else:
                expected.append((hits, 2 * position + 1))
                resident.add(page)
        assert len(expected) >= 2

        booked = []
        start = network.messages

        def work():
            for step in arch.access_steps(trace):
                booked.append((memory.hits, network.messages - start))
                yield from step

        model.sim.process(work())
        model.sim.run()
        assert memory.hits == hits
        if sysclass is not SystemClass.PAGE_SERVER:
            booked = [entry[0] for entry in booked]
            expected = [entry[0] for entry in expected]
        assert booked == expected


class TestStatisticsHook:
    def test_hook_runs_after_each_access_has_crossed(self, monkeypatch):
        """On a throttled page server, each object's statistics hook runs
        once its last page has crossed back, in trace order, with the
        prior object of the trace as ``previous``."""
        model = build_model(
            SystemClass.PAGE_SERVER, netthru=1.0, ocb=MULTI_PAGE_OCB, clustp="dstc"
        )
        sim, ranges = model.sim, model.object_manager.page_ranges
        assert model.clustering.policy.tracks_accesses
        log = []
        transfer = Network.transfer_nowait

        def recording_transfer(network, nbytes):
            step = transfer(network, nbytes)

            def crossing():
                yield from step
                log.append(("crossed", nbytes, sim.now))

            return crossing()

        def recording_hook(oid, previous):
            log.append(("hook", oid, previous, sim.now))

        monkeypatch.setattr(Network, "transfer_nowait", recording_transfer)
        model.clustering.on_object_access = recording_hook
        oids = (3, 5, 4, 3)
        assert len(ranges[3]) == 2 and len(ranges[5]) == 1
        accesses = tuple((oid, False) for oid in oids)
        sim.process(model.tm.execute(Transaction("simple", oids[0], accesses)))
        sim.run()

        message_bytes, pgsize = model.config.message_bytes, model.config.pgsize
        expected = []
        previous = None
        for oid in oids:
            for __ in ranges[oid]:
                expected += [("crossed", message_bytes), ("crossed", pgsize)]
            expected.append(("hook", oid, previous))
            previous = oid
        assert [entry[:-1] for entry in log] == expected
        for before, entry in zip(log, log[1:]):
            if entry[0] == "hook":
                assert entry[-1] == before[-1]  # no time passes in between


class TestPageRangeTable:
    """The walks index ``object_manager.page_ranges`` as each object's
    access begins and again after each step: a reorganization installs
    a new table, and an OCB insert extends the installed one in place."""

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
        """The pages the server buffer reads for one read of ``oid``:
        a miss through ``access``, a resident page through the ``touch``
        the walk calls in place."""
        pages = []
        memory = model.memory
        access, touch = BufferManager.access, memory.touch

        def recording_access(buffer, page, write=False):
            if buffer is memory:
                pages.append(page)
            return access(buffer, page, write)

        def recording_touch(page):
            pages.append(page)
            touch(page)

        monkeypatch.setattr(BufferManager, "access", recording_access)
        monkeypatch.setattr(memory, "touch", recording_touch)
        walk(model.architecture, [(oid, False)])
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

    @pytest.mark.parametrize(
        "sysclass,cluster",
        [
            (SystemClass.CENTRALIZED, False),
            (SystemClass.PAGE_SERVER, False),
            (SystemClass.PAGE_SERVER, True),
        ],
        ids=["centralized", "page", "cluster-page"],
    )
    def test_walk_suspended_in_an_object_keeps_its_range(
        self, monkeypatch, sysclass, cluster
    ):
        """A page map installed while the walk waits on an object's first
        miss: that object's remaining pages come from its old range, and
        the next object reads its new one."""
        changes = {}
        if cluster:
            changes["cluster"] = ClusterConfig(
                servers=3, placement="hash", interconnect_mbps=math.inf
            )
        model = build_model(sysclass, netthru=math.inf, ocb=MULTI_PAGE_OCB, **changes)
        om = model.object_manager
        first, second = 3, 5
        old_first, old_second = om.page_ranges[first], om.page_ranges[second]
        new_map = relocation_placement(
            model.db, model.config.usable_page_bytes, [[second, first]], om.page_map
        )
        new_first, new_second = new_map.page_ranges[first], new_map.page_ranges[second]
        assert len(old_first) == 2
        assert not set(old_first) & set(new_first)
        assert not set(old_second) & set(new_second)
        pages = []
        access = BufferManager.access

        def recording_access(buffer, page, write=False):
            pages.append((page, model.sim.now))  # no client cache: server reads
            return access(buffer, page, write)

        def reorganize():
            yield Hold(1)
            om.rebuild(new_map)

        monkeypatch.setattr(BufferManager, "access", recording_access)
        model.sim.process(reorganize())
        walk(model.architecture, [(first, False), (second, False)])
        assert om.rebuilds == 1
        assert [page for page, __ in pages] == list(old_first) + list(new_second)
        # The walk read the first page before the rebuild, the rest after.
        assert [now > 1 for __, now in pages] == [False, True, True]
