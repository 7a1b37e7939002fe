"""Property-based tests for buffer/VM and shard-router invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.despy import RandomStream
from repro.core import (
    BufferManager,
    ShardRouter,
    VOODBConfig,
    VirtualMemoryManager,
)

POLICIES = ["LRU", "FIFO", "LFU", "CLOCK", "GCLOCK", "RANDOM", "MRU", "LRU-2"]


@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(min_value=1, max_value=16),
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
        min_size=1,
        max_size=300,
    ),
)
@settings(max_examples=80, deadline=None)
def test_buffer_never_exceeds_capacity_and_stays_consistent(
    policy, capacity, accesses
):
    config = VOODBConfig(buffsize=capacity, pgrep=policy)
    buf = BufferManager(config, RandomStream(9, "prop"))
    for page, write in accesses:
        outcome = buf.access(page, write)
        # a reported read is always the page just requested
        if not outcome.hit:
            assert outcome.read_page == page
        # residency after access is guaranteed
        assert buf.contains(page)
        assert buf.resident_pages <= capacity
    assert buf.hits + buf.misses == len(accesses)


@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(min_value=2, max_value=12),
    accesses=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_dirty_pages_never_silently_dropped(policy, capacity, accesses):
    """Every write-back victim was dirty when evicted, and at the end the
    dirty residents are exactly the shadow dirty set."""
    config = VOODBConfig(buffsize=capacity, pgrep=policy)
    buf = BufferManager(config, RandomStream(11, "prop"))
    shadow_dirty: set = set()
    for page in accesses:
        write = page % 3 == 0
        outcome = buf.access(page, write)
        for victim in outcome.writeback_pages:
            assert victim in shadow_dirty
            shadow_dirty.discard(victim)
        if write:
            shadow_dirty.add(page)
        # clean evictions are silent: reconcile the shadow set against
        # residency (only resident pages can still be dirty)
        shadow_dirty = {p for p in shadow_dirty if buf.contains(p)}
    assert set(buf.flush()) == shadow_dirty


@given(
    capacity=st.integers(min_value=1, max_value=10),
    accesses=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=200),
    fanout=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_virtual_memory_frame_invariants(capacity, accesses, fanout):
    refs = {p: [(p + k + 1) % 26 for k in range(fanout)] for p in range(26)}
    config = VOODBConfig(buffsize=capacity)
    vm = VirtualMemoryManager(
        config,
        RandomStream(13, "prop"),
        pages_referenced_by_page=lambda page: refs.get(page, []),
        capacity=capacity,
    )
    for page in accesses:
        outcome = vm.access(page)
        assert vm.resident_pages + vm.reserved_pages <= capacity
        # after an access the page is always resident
        assert vm.contains(page)
        # an access never both swap-reads and first-touch... it may do
        # both swap_read and read_page (swapped reservation), but then it
        # must have been reserved before; either way counts are coherent
        if outcome.hit:
            assert outcome.read_page is None and not outcome.swap_read
    assert vm.hits + vm.misses == len(accesses)
    assert vm.swap_ins <= vm.swap_outs


@given(
    capacity=st.integers(min_value=2, max_value=8),
    pages=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_buffer_determinism(capacity, pages):
    """Same access sequence + same seed -> identical outcomes."""

    def run():
        config = VOODBConfig(buffsize=capacity, pgrep="RANDOM")
        buf = BufferManager(config, RandomStream(5, "det"))
        trace = []
        for page in pages:
            outcome = buf.access(page)
            trace.append((outcome.hit, tuple(outcome.writeback_pages)))
        return trace

    assert run() == run()


# ----------------------------------------------------------------------
# Shard-router properties (cluster topology layer)
# ----------------------------------------------------------------------
router_args = dict(
    servers=st.integers(min_value=1, max_value=16),
    placement=st.sampled_from(["hash", "range"]),
    total_pages=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**32),
)


@given(
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=200),
    **router_args,
)
@settings(max_examples=120, deadline=None)
def test_router_maps_every_page_to_exactly_one_live_shard(
    pages, servers, placement, total_pages, seed
):
    router = ShardRouter(servers, placement, total_pages, seed=seed)
    for page in pages:
        primary = router.primary(page)
        assert 0 <= primary < servers
        replicas = router.replicas(page)
        # replication 1: the replica set is exactly the primary
        assert replicas == (primary,)


@given(
    replication=st.integers(min_value=1, max_value=16),
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=100),
    **router_args,
)
@settings(max_examples=100, deadline=None)
def test_router_replica_sets_are_distinct_live_shards(
    replication, pages, servers, placement, total_pages, seed
):
    replication = min(replication, servers)
    router = ShardRouter(
        servers, placement, total_pages, replication=replication, seed=seed
    )
    for page in pages:
        replicas = router.replicas(page)
        assert len(replicas) == replication
        assert len(set(replicas)) == replication  # no duplicate copies
        assert all(0 <= node < servers for node in replicas)
        assert replicas[0] == router.primary(page)


@given(
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=100),
    **router_args,
)
@settings(max_examples=100, deadline=None)
def test_router_placement_is_deterministic_under_a_fixed_seed(
    pages, servers, placement, total_pages, seed
):
    first = ShardRouter(servers, placement, total_pages, seed=seed)
    second = ShardRouter(servers, placement, total_pages, seed=seed)
    for page in pages:
        assert first.primary(page) == second.primary(page)
        assert first.replicas(page) == second.replicas(page)


@given(
    new_servers=st.integers(min_value=1, max_value=16),
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=100),
    **router_args,
)
@settings(max_examples=100, deadline=None)
def test_resharding_covers_every_page_with_no_orphans(
    new_servers, pages, servers, placement, total_pages, seed
):
    """After a server-count change every page still has exactly one
    primary inside the new cluster — no orphaned or doubly owned ids."""
    before = ShardRouter(servers, placement, total_pages, seed=seed)
    after = before.for_servers(new_servers)
    assert after.servers == new_servers
    for page in pages:
        primary = after.primary(page)
        assert 0 <= primary < new_servers
        assert after.replicas(page).count(primary) == 1


@given(
    servers=st.integers(min_value=1, max_value=12),
    total_pages=st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=100, deadline=None)
def test_range_router_partitions_the_extent_contiguously(servers, total_pages):
    """Range placement assigns monotonically increasing shards over the
    page extent and covers every shard when pages are plentiful."""
    router = ShardRouter(servers, "range", total_pages)
    owners = [router.primary(page) for page in range(total_pages)]
    assert owners == sorted(owners)  # contiguous runs, never interleaved
    if total_pages >= servers:
        assert set(owners) == set(range(servers))
    # pages appended past the extent (inserts) land on the last shard
    assert router.primary(total_pages + 10) == servers - 1


# ---------------------------------------------------------------------------
# Lock services: every sweep path replays the same schedule
# ---------------------------------------------------------------------------

#: The bulk-sweep schedules lock oids below this; the idle transaction
#: holds a shared lock on each oid from it up to the base's 500.
IDLE_FROM = 41


def _lock_trace(schedule, servers: int = 3, idle: bool = False):
    """Drive concurrent conservative-2PL transactions through a fresh
    lock service and record the full grant/release schedule.

    ``schedule`` holds one ``(raw oids, written oids)`` pair per
    transaction.  ``servers=1`` runs the single-server
    :class:`~repro.core.locks.LockManager`, more the cluster lock
    service, both at O2's GETLOCK = RELLOCK = 0.5 ms.  ``idle`` adds
    transaction 0, which holds shared locks from ``IDLE_FROM`` on, on
    every node, for the whole run, so no release is ever alone on its
    table.
    """
    import math

    from repro.despy import Hold
    from repro.core import ClusterConfig
    from repro.core.model import VOODBSimulation
    from repro.systems.o2 import o2_config

    config = o2_config(nc=10, no=500, cache_mb=0.25, hotn=30).with_changes(multilvl=8)
    if servers > 1:
        config = config.with_changes(
            cluster=ClusterConfig(
                servers=servers, placement="hash", interconnect_mbps=math.inf
            )
        )
    model = VOODBSimulation(config, seed=1)
    locks = model.locks
    trace = []
    held = range(IDLE_FROM, 500) if idle else range(0)
    if idle:
        step = locks.acquire_all_nowait(0, held, set())
        # Granted before the run: the GETLOCK hold it yields is skipped.
        for __ in step or ():
            pass
        assert all(part.locked_objects for part in getattr(locks, "parts", [locks]))

    def txn(txn_id, raw, writes):
        ids = sorted(set(raw))
        step = locks.acquire_all_nowait(txn_id, ids, writes)
        if step is not None:
            yield from step
        trace.append(("granted", txn_id, model.sim.now))
        yield Hold(5)
        step = locks.release_all_nowait(txn_id, ids)
        if step is not None:
            yield from step
        trace.append(("released", txn_id, model.sim.now))

    for txn_id, (raw, writes) in enumerate(schedule, start=1):
        model.sim.process(txn(txn_id, raw, writes), name=f"txn-{txn_id}")
    model.sim.run()
    counters = (
        locks.acquisitions - len(held),
        locks.releases,
        locks.waits,
        locks.wait_ticks,
        locks.locked_objects - len(held),
    )
    return trace, counters


@given(
    schedule=st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=6,
    ),
    servers=st.sampled_from([1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_bulk_lock_sweeps_change_nothing_observable(schedule, servers):
    """A sole transaction releases its table in one ``clear``; an idle
    lock holder outside the schedule rules that path out, so every
    release runs the per-oid sweep instead.  Both runs must grant and
    release at the same ticks, with the same counters, and drain every
    table."""
    schedule = [
        ([oid for oid, __ in accesses], {oid for oid, write in accesses if write})
        for accesses in schedule
    ]
    trace, counters = _lock_trace(schedule, servers=servers)
    idle_trace, idle_counters = _lock_trace(schedule, servers=servers, idle=True)
    assert trace == idle_trace
    assert counters == idle_counters
    assert counters[-1] == 0  # every table drained
