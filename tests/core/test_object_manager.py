"""Unit tests for the Object Manager and placement integration."""

import pytest

from repro.despy import RandomStream
from repro.clustering.placement import make_placement, sequential_placement
from repro.core import ObjectManager
from repro.ocb import Database, OCBConfig, Schema


@pytest.fixture(scope="module")
def db():
    config = OCBConfig(nc=5, no=300)
    rng = RandomStream(3, "om")
    return Database.generate(Schema.generate(config, rng), rng)


@pytest.fixture
def om(db):
    page_map = make_placement(db, "optimized_sequential", 4096)
    return ObjectManager(db, page_map)


class TestDirectory:
    def test_every_object_mapped(self, om, db):
        for oid in range(len(db)):
            pages = om.pages_of(oid)
            assert len(pages) >= 1
            assert all(0 <= p < om.total_pages for p in pages)

    def test_page_of_is_first_page(self, om, db):
        for oid in range(0, len(db), 17):
            assert om.page_of(oid) == om.pages_of(oid)[0]

    def test_objects_on_inverse_of_page_of(self, om, db):
        for page in range(om.total_pages):
            for oid in om.objects_on(page):
                assert page in om.pages_of(oid)

    def test_pages_holding_sorted_distinct(self, om, db):
        pages = om.pages_holding([0, 1, 2, 0, 1])
        assert pages == sorted(set(pages))

    def test_pages_referenced_by(self, om, db):
        for oid in range(0, len(db), 31):
            expected = [om.page_map.page_of(t) for t in db.refs(oid)]
            assert om.pages_referenced_by(oid) == expected

    def test_pages_referenced_by_page_excludes_self(self, om):
        for page in range(0, om.total_pages, 7):
            assert page not in om.pages_referenced_by_page(page)


class TestRebuild:
    def test_rebuild_swaps_mapping(self, om, db):
        new_map = sequential_placement(db, 4096)
        om.rebuild(new_map)
        assert om.page_map is new_map
        assert om.rebuilds == 1

    def test_rebuild_rejects_wrong_size(self, om, db):
        small_config = OCBConfig(nc=2, no=10)
        rng = RandomStream(1, "x")
        other = Database.generate(Schema.generate(small_config, rng), rng)
        wrong_map = sequential_placement(other, 4096)
        with pytest.raises(ValueError):
            om.rebuild(wrong_map)
