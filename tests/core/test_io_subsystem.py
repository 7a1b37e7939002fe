"""Unit tests for the I/O Subsystem and the Figure 5 'Access Disk' rule."""

import pytest

from repro.despy import Simulation, ticks_to_ms
from repro.core import AccessOutcome, IOSubsystem, VOODBConfig
from repro.core.virtual_memory import VMAccessOutcome


def make_io(sim=None, **overrides):
    sim = sim or Simulation()
    config = VOODBConfig(disksea=7.4, disklat=4.3, disktra=0.5, **overrides)
    return sim, IOSubsystem(sim, config)


def drive(sim, generator):
    sim.process(generator)
    return sim.run()


def read_miss(page):
    """A plain buffer miss: read ``page``, nothing to write back."""
    return AccessOutcome(hit=False, read_page=page)


def swap_miss(**swaps):
    """A virtual-memory fault that owes only swap traffic."""
    return VMAccessOutcome(hit=False, **swaps)


class TestFigure5Rule:
    def test_random_access_pays_search_latency_transfer(self):
        sim, io = make_io()
        assert ticks_to_ms(io.access_time(10)) == pytest.approx(7.4 + 4.3 + 0.5)

    def test_contiguous_access_pays_transfer_only(self):
        sim, io = make_io()
        io.access_time(10)
        assert ticks_to_ms(io.access_time(11)) == pytest.approx(0.5)
        assert io.sequential_accesses == 1

    def test_backward_jump_is_random(self):
        sim, io = make_io()
        io.access_time(10)
        assert ticks_to_ms(io.access_time(9)) == pytest.approx(12.2)

    def test_same_page_twice_is_random(self):
        """Re-reading the same page needs a new rotation: not contiguous."""
        sim, io = make_io()
        io.access_time(10)
        assert ticks_to_ms(io.access_time(10)) == pytest.approx(12.2)

    def test_first_access_never_sequential(self):
        sim, io = make_io()
        assert ticks_to_ms(io.access_time(0)) == pytest.approx(12.2)


class TestTimedOperations:
    def test_read_miss_advances_clock(self):
        sim, io = make_io()
        drive(sim, io.serve_miss(read_miss(5)))
        assert sim.now_ms == pytest.approx(12.2)
        assert io.reads == 1

    def test_write_back_counts_and_times(self):
        sim, io = make_io()
        drive(sim, io.write_back([5]))
        assert io.writes == 1
        assert sim.now_ms == pytest.approx(12.2)

    def test_sequential_chain_is_cheap(self):
        sim, io = make_io()

        def chain():
            yield from io.serve_miss(read_miss(5))
            yield from io.serve_miss(read_miss(6))
            yield from io.serve_miss(read_miss(7))

        drive(sim, chain())
        assert sim.now_ms == pytest.approx(12.2 + 0.5 + 0.5)
        assert io.sequential_accesses == 2

    def test_write_backs_run_in_victim_order(self):
        sim, io = make_io()
        drive(sim, io.write_back([5, 6]))
        assert io.writes == 2
        assert sim.now_ms == pytest.approx(12.2 + 0.5)

    def test_bulk_read_sorts_for_contiguity(self):
        sim, io = make_io()
        drive(sim, io.read_pages([9, 7, 8]))
        # 7 random, then 8 and 9 sequential
        assert sim.now_ms == pytest.approx(12.2 + 0.5 + 0.5)
        assert io.reads == 3

    def test_bulk_read_deduplicates(self):
        sim, io = make_io()
        drive(sim, io.read_pages([3, 3, 3]))
        assert io.reads == 1

    def test_bulk_write(self):
        sim, io = make_io()
        drive(sim, io.write_pages([2, 1]))
        assert io.writes == 2
        assert sim.now_ms == pytest.approx(12.2 + 0.5)

    def test_disk_serializes_concurrent_io(self):
        sim, io = make_io()
        done = []

        def reader(tag):
            yield from io.serve_miss(read_miss(100 + tag * 50))
            done.append((tag, sim.now_ms))

        sim.process(reader(0))
        sim.process(reader(1))
        sim.run()
        # both are random accesses; second waits for the first
        assert done[0][1] == pytest.approx(12.2)
        assert done[1][1] == pytest.approx(24.4)

    def test_hold_is_timed_at_grant_not_up_front(self):
        """Misses on pages 5 and 6 arrive together.  The page-6 step is
        built first, as a nowait path builds its step before running it,
        but granted second: its read is priced against the head the
        page-5 read left, so it is sequential."""
        sim, io = make_io()
        done = []
        steps = {6: io.serve_miss(read_miss(6)), 5: io.serve_miss(read_miss(5))}

        def miss(page):
            yield from steps[page]
            done.append((page, sim.now_ms))

        sim.process(miss(5))
        sim.process(miss(6))
        sim.run()
        assert done == [
            (5, pytest.approx(12.2)),
            (6, pytest.approx(12.2 + 0.5)),
        ]
        assert io.sequential_accesses == 1


class TestServeMiss:
    def test_runs_writeback_swap_out_swap_in_then_read(self):
        sim, io = make_io()
        order = []

        class Recorder:
            """Hazard stub that logs the counters at each operation."""

            @staticmethod
            def io_penalty():
                order.append((io.writes, io.swap_writes, io.swap_reads, io.reads))
                return 0

        io.failures = Recorder()
        outcome = VMAccessOutcome(
            hit=False,
            read_page=11,
            writeback_pages=[10],
            swap_read=True,
            swap_out_pages=[42],
        )
        drive(sim, io.serve_miss(outcome))
        assert order == [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]
        # Page 11 follows page 10, but the swap moved the arm in between:
        # all four operations are random.
        random_ticks = io.config.random_io_ticks
        assert io.sequential_accesses == 0
        assert sim.now == 4 * random_ticks
        assert io.busy_ticks == 4 * random_ticks
        assert (io.writes, io.swap_writes, io.swap_reads, io.reads) == (1, 1, 1, 1)

    def test_scale_stretches_every_operation(self):
        """A gray node's ``scale=1.0`` doubles each operation's disk
        occupancy, and the stretch counts as busy time."""
        sim, io = make_io()
        outcome = AccessOutcome(hit=False, read_page=6, writeback_pages=[5])
        drive(sim, io.serve_miss(outcome, scale=1.0))
        random_ticks = io.config.random_io_ticks
        sequential_ticks = io.config.sequential_io_ticks
        assert sim.now == 2 * (random_ticks + sequential_ticks)
        assert io.busy_ticks == 2 * (random_ticks + sequential_ticks)
        assert (io.writes, io.reads, io.sequential_accesses) == (1, 1, 1)

    def test_stretch_keeps_the_disk_held(self):
        sim, io = make_io()
        done = []

        def stretched():
            yield from io.serve_miss(read_miss(5), scale=1.0)
            done.append(("stretched", sim.now_ms))

        def writer():
            yield from io.write_back([7])
            done.append(("writer", sim.now_ms))

        sim.process(stretched())
        sim.process(writer())
        sim.run()
        assert done == [
            ("stretched", pytest.approx(24.4)),
            ("writer", pytest.approx(24.4 + 12.2)),
        ]

    def test_hit_owes_nothing(self):
        sim, io = make_io()
        drive(sim, io.serve_miss(AccessOutcome(hit=True)))
        assert sim.now == 0
        assert io.total_ios == 0


class TestSwapTraffic:
    def test_swap_ops_counted_separately(self):
        sim, io = make_io()

        def work():
            yield from io.serve_miss(swap_miss(swap_out_pages=[3]))
            yield from io.serve_miss(swap_miss(swap_read=True))

        drive(sim, work())
        assert io.swap_writes == 1
        assert io.swap_reads == 1
        assert io.reads == 0
        assert io.writes == 0
        assert io.total_ios == 2

    def test_swap_out_pays_random_per_page(self):
        sim, io = make_io()
        drive(sim, io.serve_miss(swap_miss(swap_out_pages=[1, 2])))
        assert io.swap_writes == 2
        assert io.sequential_accesses == 0
        assert sim.now_ms == pytest.approx(24.4)

    def test_swap_breaks_contiguity(self):
        sim, io = make_io()

        def work():
            yield from io.serve_miss(read_miss(5))
            yield from io.serve_miss(swap_miss(swap_read=True))
            yield from io.serve_miss(read_miss(6))  # arm moved: random again

        drive(sim, work())
        assert io.sequential_accesses == 0


class TestCounters:
    def test_total_ios(self):
        sim, io = make_io()

        def work():
            yield from io.serve_miss(read_miss(1))
            yield from io.write_back([2])

        drive(sim, work())
        assert io.total_ios == 2
