"""Unit tests for the Texas virtual-memory model (paper §4.3.2)."""

import pytest

from repro.despy import RandomStream
from repro.core import VOODBConfig, VirtualMemoryManager


def make_vm(capacity=4, refs=None) -> VirtualMemoryManager:
    """VM over a tiny synthetic page graph: page p references refs[p]."""
    refs = refs or {}
    config = VOODBConfig(buffsize=capacity, sysclass="centralized")
    return VirtualMemoryManager(
        config,
        RandomStream(1, "vm"),
        pages_referenced_by_page=lambda page: refs.get(page, []),
        capacity=capacity,
    )


class TestFirstTouch:
    def test_first_touch_reads_database(self):
        vm = make_vm()
        outcome = vm.access(0)
        assert not outcome.hit
        assert outcome.read_page == 0
        assert not outcome.swap_read

    def test_second_touch_hits(self):
        vm = make_vm()
        vm.access(0)
        assert vm.access(0).hit
        assert vm.hits == 1

    def test_swizzle_reserves_referenced_pages(self):
        vm = make_vm(capacity=8, refs={0: [1, 2]})
        vm.access(0)
        assert vm.reserved_pages == 2
        assert vm.reservations == 2

    def test_touching_reserved_page_costs_db_read_not_swap(self):
        vm = make_vm(capacity=8, refs={0: [1]})
        vm.access(0)
        outcome = vm.access(1)
        assert not outcome.hit
        assert outcome.read_page == 1
        assert not outcome.swap_read

    def test_swizzle_cascades_on_reserved_promotion(self):
        vm = make_vm(capacity=8, refs={0: [1], 1: [2]})
        vm.access(0)  # reserves 1
        vm.access(1)  # loads 1, must reserve 2
        assert vm.reserved_pages == 1  # page 2
        assert vm.reservations == 2


class TestSwap:
    def test_resident_eviction_swaps_out(self):
        vm = make_vm(capacity=1)
        vm.access(0)
        outcome = vm.access(1)
        assert outcome.swap_out_pages == [0]
        assert vm.swap_outs == 1

    def test_swapped_resident_comes_back_via_swap_read(self):
        vm = make_vm(capacity=1)
        vm.access(0)
        vm.access(1)  # swaps 0 out
        outcome = vm.access(0)
        assert outcome.swap_read
        assert outcome.read_page is None  # data restored from swap
        assert vm.swap_ins == 1

    def test_swapped_reservation_costs_swap_and_db_read(self):
        vm = make_vm(capacity=2, refs={0: [5]})
        vm.access(0)  # loads 0 and reserves 5
        vm.access(1)  # evicts resident 0
        vm.access(2)  # evicts the reservation for 5 -> swapped_reserved
        outcome = vm.access(5)
        assert outcome.swap_read  # the reservation comes back from swap
        assert outcome.read_page == 5  # and still owes its DB read

    def test_swizzle_never_evicts_the_faulted_page(self):
        vm = make_vm(capacity=1, refs={0: [5, 6, 7]})
        outcome = vm.access(0)
        # no room for any reservation without evicting page 0 itself
        assert vm.contains(0)
        assert vm.reservations == 0
        assert list(outcome.swap_out_pages) == []

    def test_no_swap_when_memory_is_ample(self):
        vm = make_vm(capacity=100, refs={0: [1, 2], 1: [3]})
        for page in (0, 1, 2, 3):
            vm.access(page)
        assert vm.swap_outs == 0
        assert vm.swap_ins == 0


class TestMaintenance:
    def test_contains_only_resident(self):
        vm = make_vm(capacity=8, refs={0: [1]})
        vm.access(0)
        assert vm.contains(0)
        assert not vm.contains(1)  # reserved, not resident

    def test_invalidate_drops_frame_and_swap_copy(self):
        vm = make_vm(capacity=1)
        vm.access(0)
        vm.access(1)  # 0 -> swap
        assert vm.invalidate(1)
        assert not vm.invalidate(1)
        vm.invalidate(0)  # drops the swap copy
        outcome = vm.access(0)
        assert outcome.read_page == 0  # back to a first touch

    def test_invalidate_all(self):
        vm = make_vm(capacity=4, refs={0: [1, 2]})
        vm.access(0)
        assert vm.invalidate_all() == 3
        assert vm.resident_pages == 0
        assert vm.reserved_pages == 0

    def test_flush_is_empty(self):
        vm = make_vm()
        vm.access(0, write=True)
        assert vm.flush() == []

    def test_hit_rate(self):
        vm = make_vm()
        vm.access(0)
        vm.access(0)
        assert vm.hit_rate == pytest.approx(0.5)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_vm(capacity=0)


class TestThrashAmplification:
    def test_scarce_memory_generates_more_swap_than_ample(self):
        """The §4.3.2 claim at miniature scale: shrinking memory under a
        self-referencing page graph amplifies I/O super-linearly."""
        refs = {p: [(p + 1) % 20, (p + 7) % 20] for p in range(20)}
        workload = [p % 20 for p in range(200)]

        def total_swap(capacity):
            vm = make_vm(capacity=capacity, refs=refs)
            swaps = 0
            for page in workload:
                outcome = vm.access(page)
                swaps += len(outcome.swap_out_pages) + (1 if outcome.swap_read else 0)
            return swaps

        ample = total_swap(40)
        scarce = total_swap(5)
        assert ample == 0
        assert scarce > 100
