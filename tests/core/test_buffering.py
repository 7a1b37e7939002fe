"""Unit tests for the Buffering Manager."""

import pytest

from repro.despy import RandomStream
from repro.core import BufferManager, VOODBConfig


def make_buffer(capacity=3, pgrep="LRU") -> BufferManager:
    config = VOODBConfig(buffsize=capacity, pgrep=pgrep)
    return BufferManager(config, RandomStream(1, "buf"))


class TestAccess:
    def test_miss_then_hit(self):
        buf = make_buffer()
        first = buf.access(7)
        assert not first.hit
        assert first.read_page == 7
        second = buf.access(7)
        assert second.hit
        assert buf.hits == 1
        assert buf.misses == 1

    def test_capacity_enforced(self):
        buf = make_buffer(capacity=2)
        for page in (1, 2, 3, 4):
            buf.access(page)
        assert buf.resident_pages == 2

    def test_lru_eviction_order(self):
        buf = make_buffer(capacity=2)
        buf.access(1)
        buf.access(2)
        buf.access(1)  # 2 is now coldest
        buf.access(3)  # evicts 2
        assert buf.contains(1)
        assert buf.contains(3)
        assert not buf.contains(2)

    def test_clean_eviction_requires_no_writeback(self):
        buf = make_buffer(capacity=1)
        buf.access(1)
        outcome = buf.access(2)
        assert list(outcome.writeback_pages) == []

    def test_dirty_eviction_requires_writeback(self):
        buf = make_buffer(capacity=1)
        buf.access(1, write=True)
        outcome = buf.access(2)
        assert outcome.writeback_pages == [1]
        assert buf.dirty_writebacks == 1

    def test_write_hit_marks_dirty(self):
        buf = make_buffer()
        buf.access(1)
        assert not buf.is_dirty(1)
        buf.access(1, write=True)
        assert buf.is_dirty(1)


class TestPrefetchAdmission:
    def test_admit_prefetched_loads_page(self):
        buf = make_buffer()
        outcome = buf.admit_prefetched(9)
        assert outcome is not None
        assert outcome.read_page == 9
        assert buf.contains(9)

    def test_admit_prefetched_resident_is_none(self):
        buf = make_buffer()
        buf.access(9)
        assert buf.admit_prefetched(9) is None

    def test_prefetch_does_not_count_hits_or_misses(self):
        buf = make_buffer()
        buf.admit_prefetched(9)
        assert buf.hits == 0
        assert buf.misses == 0

    def test_admit_prefetched_uses_the_bound_admit_hook(self):
        """Regression: admit_prefetched used to call self.policy.on_admit
        directly, bypassing the bound ``_on_admit`` hot hook that
        ``access()`` uses — so a swapped-in hook (instrumentation, a
        policy wrapper) silently missed every prefetch admission."""
        buf = make_buffer()
        admitted = []
        original = buf._on_admit

        def spy(page):
            admitted.append(page)
            original(page)

        buf._on_admit = spy
        buf.access(1)
        buf.admit_prefetched(2)
        assert admitted == [1, 2]

    def test_admit_prefetched_keeps_policy_bookkeeping_consistent(self):
        """The prefetch path must feed the same policy instance the
        demand path feeds: evicting must consider prefetched pages."""
        buf = make_buffer(capacity=2)
        buf.access(1)
        buf.admit_prefetched(2)
        buf.access(1)  # refresh page 1: page 2 is now the LRU victim
        outcome = buf.access(3)
        assert not outcome.hit
        assert not buf.contains(2)
        assert buf.contains(1)


class TestMaintenance:
    def test_invalidate(self):
        buf = make_buffer()
        buf.access(1)
        assert buf.invalidate(1)
        assert not buf.contains(1)
        assert not buf.invalidate(1)

    def test_invalidate_all(self):
        buf = make_buffer()
        for page in (1, 2, 3):
            buf.access(page)
        assert buf.invalidate_all() == 3
        assert buf.resident_pages == 0

    def test_invalidated_page_not_chosen_as_victim(self):
        buf = make_buffer(capacity=2)
        buf.access(1)
        buf.access(2)
        buf.invalidate(1)
        buf.access(3)
        buf.access(4)  # must evict 2 or 3, never the forgotten 1
        assert buf.resident_pages == 2

    def test_flush_returns_and_cleans_dirty_pages(self):
        buf = make_buffer()
        buf.access(1, write=True)
        buf.access(2)
        assert buf.flush() == [1]
        assert not buf.is_dirty(1)
        assert buf.flush() == []

    def test_hit_rate(self):
        buf = make_buffer()
        buf.access(1)
        buf.access(1)
        buf.access(1)
        assert buf.hit_rate == pytest.approx(2 / 3)

    def test_zero_capacity_rejected(self):
        config = VOODBConfig(buffsize=1)
        with pytest.raises(ValueError):
            BufferManager(config, RandomStream(1, "x"), capacity=0)


class TestPolicyIntegration:
    @pytest.mark.parametrize(
        "pgrep", ["LRU", "FIFO", "LFU", "CLOCK", "GCLOCK", "RANDOM", "MRU", "LRU-2"]
    )
    def test_every_policy_respects_capacity(self, pgrep):
        buf = make_buffer(capacity=4, pgrep=pgrep)
        for page in range(50):
            buf.access(page % 11)
        assert buf.resident_pages <= 4

    def test_fifo_differs_from_lru_under_rereference(self):
        lru = make_buffer(capacity=2, pgrep="LRU")
        fifo = make_buffer(capacity=2, pgrep="FIFO")
        for buf in (lru, fifo):
            buf.access(1)
            buf.access(2)
            buf.access(1)
            buf.access(3)
        assert lru.contains(1) and not lru.contains(2)
        assert fifo.contains(2) and not fifo.contains(1)
