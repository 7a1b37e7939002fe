"""Unit tests for placement policies and the PageMap."""

import pytest

from repro.despy import RandomStream
from repro.clustering.placement import (
    PageMap,
    make_placement,
    optimized_sequential_placement,
    relocation_placement,
    sequential_placement,
)
from repro.ocb import Database, OCBConfig, Schema


def build_db(nc=5, no=200, seed=2, **kw):
    config = OCBConfig(nc=nc, no=no, **kw)
    rng = RandomStream(seed, "placement")
    return Database.generate(Schema.generate(config, rng), rng)


@pytest.fixture(scope="module")
def db():
    return build_db()


class TestPageMapBuild:
    def test_reads_its_two_lists(self):
        # Object 1 spans pages 1-2 and is listed on its first page only.
        page_map = PageMap([range(0, 1), range(1, 3), range(0, 1)], [[0, 2], [1], []])
        assert len(page_map) == 3
        assert page_map.total_pages == 3
        assert [page_map.page_of(oid) for oid in range(3)] == [0, 1, 0]
        assert page_map.pages_of(1) == range(1, 3)
        assert [list(page_map.objects_on(p)) for p in range(3)] == [[0, 2], [1], []]

    def test_every_object_mapped_once(self):
        page_map = PageMap.build([2, 0, 1], [100, 200, 300], 1000)
        seen = []
        for page in range(page_map.total_pages):
            seen.extend(page_map.objects_on(page))
        assert sorted(seen) == [0, 1, 2]

    def test_capacity_respected(self):
        sizes = [400] * 10
        page_map = PageMap.build(range(10), sizes, 1000)
        for page in range(page_map.total_pages):
            assert sum(sizes[o] for o in page_map.objects_on(page)) <= 1000

    def test_order_preserved_within_pages(self):
        page_map = PageMap.build([3, 1, 4, 0], [10] * 5, 25)
        assert list(page_map.objects_on(0)) == [3, 1]
        assert list(page_map.objects_on(1)) == [4, 0]

    def test_aligned_groups_start_fresh_pages(self):
        page_map = PageMap.build(
            [0, 1, 2, 3], [10] * 4, 100, page_aligned_groups=[2]
        )
        assert page_map.page_of(2) != page_map.page_of(1)
        assert page_map.page_of(0) == page_map.page_of(1)

    def test_large_object_spans_consecutive_pages(self):
        page_map = PageMap.build([0, 1], [2500, 10], 1000)
        assert len(page_map.pages_of(0)) == 3
        pages = page_map.pages_of(0)
        assert list(pages) == [pages[0], pages[0] + 1, pages[0] + 2]
        # the follower starts on a fresh page
        assert page_map.page_of(1) == pages[-1] + 1

    def test_occupancy(self):
        page_map = PageMap.build(range(4), [10] * 4, 20)
        assert page_map.occupancy() == pytest.approx(2.0)


class TestInitialPlacements:
    def test_sequential_keeps_oid_order(self, db):
        page_map = sequential_placement(db, 4096)
        flattened = [
            oid
            for page in range(page_map.total_pages)
            for oid in page_map.objects_on(page)
        ]
        assert flattened == sorted(flattened)

    def test_optimized_groups_by_class(self, db):
        page_map = optimized_sequential_placement(db, 4096)
        flattened = [
            oid
            for page in range(page_map.total_pages)
            for oid in page_map.objects_on(page)
        ]
        classes = [db.class_of(oid) for oid in flattened]
        # class ids appear in contiguous runs
        runs = 1 + sum(1 for a, b in zip(classes, classes[1:]) if a != b)
        assert runs == db.config.nc

    def test_optimized_extent_neighbors_share_pages(self, db):
        page_map = optimized_sequential_placement(db, 4096)
        extent = db.instances_of(0)
        pages = {page_map.page_of(oid) for oid in extent}
        assert len(pages) < len(extent)  # co-location happened

    def test_make_placement_registry(self, db):
        assert make_placement(db, "sequential", 4096) is not None
        assert make_placement(db, "OPTIMIZED_SEQUENTIAL", 4096) is not None
        with pytest.raises(ValueError):
            make_placement(db, "hashed", 4096)

    def test_storage_overhead_increases_page_count(self, db):
        dense = sequential_placement(db, 4096)
        sparse = sequential_placement(db, 2560)  # O2's 1.6 overhead
        assert sparse.total_pages > dense.total_pages


class TestRelocationPlacement:
    def test_unmoved_objects_keep_pages(self, db):
        base = optimized_sequential_placement(db, 4096)
        clusters = [[10, 11, 12]]
        new_map = relocation_placement(db, 4096, clusters, base)
        moved = {10, 11, 12}
        for oid in range(len(db)):
            if oid not in moved:
                assert new_map.page_of(oid) == base.page_of(oid)

    def test_moved_objects_get_fresh_pages(self, db):
        base = optimized_sequential_placement(db, 4096)
        new_map = relocation_placement(db, 4096, [[10, 11, 12]], base)
        for oid in (10, 11, 12):
            assert new_map.page_of(oid) >= base.total_pages

    def test_cluster_members_contiguous(self, db):
        base = optimized_sequential_placement(db, 4096)
        cluster = [10, 11, 12, 13]
        new_map = relocation_placement(db, 4096, [cluster], base)
        pages = [new_map.page_of(oid) for oid in cluster]
        assert pages == sorted(pages)
        assert pages[-1] - pages[0] <= 1  # four small objects: 1-2 pages

    def test_holes_left_in_old_pages(self, db):
        base = optimized_sequential_placement(db, 4096)
        victim_page = base.page_of(10)
        before = list(base.objects_on(victim_page))
        new_map = relocation_placement(db, 4096, [[10, 11, 12]], base)
        after = list(new_map.objects_on(victim_page))
        assert 10 not in after
        assert set(after) <= set(before)

    def test_moved_large_object_spans_fresh_pages(self, db):
        usable = 200  # smaller than the largest objects (250 bytes)
        base = optimized_sequential_placement(db, usable)
        big = next(oid for oid in range(len(db)) if len(base.pages_of(oid)) > 1)
        small = next(oid for oid in range(len(db)) if db.size(oid) <= usable)
        new_map = relocation_placement(db, usable, [[big, small]], base)
        span = new_map.pages_of(big)
        fresh = base.total_pages
        assert span == range(fresh, fresh + len(base.pages_of(big)))
        assert new_map.page_of(big) == span.start
        assert list(new_map.objects_on(span.start)) == [big]
        assert big not in new_map.objects_on(base.page_of(big))
        assert new_map.page_of(small) == span.stop

    def test_relocating_a_relocated_map(self, db):
        # DSTC reorganizes repeatedly: a later relocation starts from an
        # earlier one's map and may move objects off its fresh pages.
        def contents(page_map):
            return [list(page_map.objects_on(p)) for p in range(page_map.total_pages)]

        base = optimized_sequential_placement(db, 4096)
        first = relocation_placement(db, 4096, [[10, 11, 12]], base)
        before = contents(first)
        second = relocation_placement(db, 4096, [[11, 40]], first)
        assert contents(first) == before
        assert second.page_of(11) >= first.total_pages
        assert 11 not in second.objects_on(first.page_of(11))
        for oid in (10, 12):
            assert second.page_of(oid) == first.page_of(oid)
        seen = sorted(oid for page in contents(second) for oid in page)
        assert seen == list(range(len(db)))

    def test_rejects_duplicates(self, db):
        base = sequential_placement(db, 4096)
        with pytest.raises(ValueError, match="two clusters"):
            relocation_placement(db, 4096, [[1, 2], [2]], base)

    def test_every_object_still_mapped(self, db):
        base = sequential_placement(db, 4096)
        new_map = relocation_placement(db, 4096, [[0, 1], [50, 51]], base)
        seen = []
        for page in range(new_map.total_pages):
            seen.extend(new_map.objects_on(page))
        assert sorted(seen) == list(range(len(db)))
        for oid in range(len(db)):
            assert oid in new_map.objects_on(new_map.page_of(oid))
