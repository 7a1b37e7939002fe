"""Property-based tests for placement and clustering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.despy import RandomStream
from repro.clustering import DSTC, DSTCParameters
from repro.clustering.placement import (
    PageMap,
    optimized_sequential_placement,
    relocation_placement,
    sequential_placement,
)
from repro.ocb import Database, OCBConfig, Schema


def build_db(nc, no, seed):
    config = OCBConfig(nc=nc, no=no)
    rng = RandomStream(seed, "prop")
    return Database.generate(Schema.generate(config, rng), rng)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=120),
    usable=st.integers(min_value=64, max_value=4096),
)
@settings(max_examples=60, deadline=None)
def test_pagemap_build_is_a_partition(sizes, usable):
    """Every object lands on exactly one page span; pages never overfill."""
    page_map = PageMap.build(range(len(sizes)), sizes, usable)
    seen = []
    for page in range(page_map.total_pages):
        objs = page_map.objects_on(page)
        seen.extend(objs)
        small = [o for o in objs if sizes[o] <= usable]
        assert sum(sizes[o] for o in small) <= usable
    # spanned large objects appear once on their first page only
    assert sorted(seen) == list(range(len(sizes)))
    for oid, size in enumerate(sizes):
        span = page_map.pages_of(oid)
        expected = max(1, -(-size // usable))
        assert len(span) == expected


@given(
    nc=st.integers(min_value=1, max_value=8),
    no=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=5),
    usable=st.sampled_from([512, 2560, 4096]),
)
@settings(max_examples=30, deadline=None)
def test_placements_are_bijections(nc, no, seed, usable):
    db = build_db(nc, no, seed)
    for placement in (sequential_placement, optimized_sequential_placement):
        page_map = placement(db, usable)
        seen = sorted(
            oid
            for page in range(page_map.total_pages)
            for oid in page_map.objects_on(page)
        )
        assert seen == list(range(no))


def map_contents(page_map):
    """Everything a page map answers, copied out of its lists."""
    return (
        len(page_map),
        page_map.total_pages,
        [list(page_map.objects_on(page)) for page in range(page_map.total_pages)],
        [page_map.pages_of(oid) for oid in range(len(page_map))],
    )


@given(
    no=st.integers(min_value=20, max_value=150),
    seed=st.integers(min_value=0, max_value=5),
    cluster_seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_relocation_preserves_partition_and_unmoved_pages(no, seed, cluster_seed):
    db = build_db(4, no, seed)
    base = optimized_sequential_placement(db, 4096)
    base_contents = map_contents(base)
    rng = RandomStream(cluster_seed, "clusters")
    members = rng.sample(range(no), min(10, no))
    clusters = [members[:5], members[5:]] if len(members) > 5 else [members]
    clusters = [c for c in clusters if len(c) >= 2]
    new_map = relocation_placement(db, 4096, clusters, base)
    moved = {oid for c in clusters for oid in c}
    seen = sorted(
        oid
        for page in range(new_map.total_pages)
        for oid in new_map.objects_on(page)
    )
    assert seen == list(range(no))
    for oid in range(no):
        if oid not in moved:
            assert new_map.page_of(oid) == base.page_of(oid)
            assert new_map.pages_of(oid) == base.pages_of(oid)
        else:
            assert new_map.page_of(oid) >= base.total_pages
    # The new map shares the untouched pages' object lists with its
    # source (for static workloads, the cached initial placement every
    # replication starts from): neither the relocation nor an insert
    # into the new map may write through to it.
    assert map_contents(base) == base_contents
    new_map.append_object(no, 100, 4096)
    new_map.append_object(no + 1, 9000, 4096)
    assert map_contents(base) == base_contents


@given(
    traces=st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
        min_size=1,
        max_size=60,
    ),
    tfa=st.floats(min_value=0.0, max_value=4.0),
    tfe=st.floats(min_value=0.0, max_value=4.0),
    tfc=st.floats(min_value=0.0, max_value=4.0),
    max_size=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_dstc_clusters_are_disjoint_and_bounded(traces, tfa, tfe, tfc, max_size):
    dstc = DSTC(
        DSTCParameters(
            observation_period=10_000,
            tfa=tfa,
            tfe=tfe,
            tfc=tfc,
            max_cluster_size=max_size,
        )
    )
    for trace in traces:
        previous = None
        for oid in trace:
            dstc.on_object_access(oid, previous)
            previous = oid
        dstc.on_transaction_end()
    dstc.flush_observations()
    clusters = dstc.build_clusters()
    seen = [oid for c in clusters for oid in c]
    assert len(seen) == len(set(seen))  # no object in two clusters
    assert all(2 <= len(c) <= max_size for c in clusters)
    # every clustered object passed selection
    for oid in seen:
        assert oid in dstc._obj_weights
