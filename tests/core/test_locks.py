"""Unit tests for the transaction scheduler (MULTILVL + object locks)."""

import pytest

from repro.despy import Hold, Simulation, ms_to_ticks
from repro.core import LockManager, VOODBConfig


def make_locks(multilvl=10, getlock=0.5, rellock=0.5):
    sim = Simulation()
    config = VOODBConfig(multilvl=multilvl, getlock=getlock, rellock=rellock)
    return sim, LockManager(sim, config)


def drive(step):
    """Finish a nowait step: ``None`` means it completed in place."""
    if step is not None:
        yield from step


class TestAdmission:
    def test_multiprogramming_level_caps_concurrency(self):
        sim, locks = make_locks(multilvl=2, getlock=0.0, rellock=0.0)
        inside = []
        peak = [0]

        def txn(tag):
            yield locks.admission_request
            inside.append(tag)
            peak[0] = max(peak[0], locks.admission.in_use)
            yield Hold(ms_to_ticks(5.0))
            yield locks.admission_release

        for tag in range(4):
            sim.process(txn(tag))
        sim.run()
        assert len(inside) == 4
        assert peak[0] == 2
        assert sim.now_ms == pytest.approx(10.0)


class TestLockTimes:
    def test_getlock_paid_per_distinct_object(self):
        sim, locks = make_locks(getlock=0.5, rellock=0.0)

        def txn():
            yield from drive(locks.acquire_all_nowait(0, [1, 2, 3], set()))
            yield from drive(locks.release_all_nowait(0, [1, 2, 3]))

        sim.process(txn())
        sim.run()
        assert sim.now_ms == pytest.approx(1.5)
        assert locks.acquisitions == 3

    def test_rellock_paid_per_distinct_object(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.5)

        def txn():
            yield from drive(locks.acquire_all_nowait(0, [1, 2], set()))
            yield from drive(locks.release_all_nowait(0, [1, 2]))

        sim.process(txn())
        sim.run()
        assert sim.now_ms == pytest.approx(1.0)

    def test_zero_lock_times_cost_nothing(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)

        def txn():
            yield from drive(locks.acquire_all_nowait(0, [1, 2], set()))
            yield from drive(locks.release_all_nowait(0, [1, 2]))

        sim.process(txn())
        sim.run()
        assert sim.now_ms == 0.0


class TestSharing:
    def test_readers_share(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        progress = []

        def reader(tag):
            yield from drive(locks.acquire_all_nowait(tag, [42], set()))
            progress.append((tag, sim.now_ms))
            yield Hold(ms_to_ticks(3.0))
            yield from drive(locks.release_all_nowait(tag, [42]))

        sim.process(reader(0))
        sim.process(reader(1))
        sim.run()
        # both readers enter at t=0 (shared lock)
        assert [t for __, t in progress] == [0.0, 0.0]
        assert locks.waits == 0

    def test_writer_blocks_reader(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        progress = []

        def writer():
            yield from drive(locks.acquire_all_nowait(0, [42], {42}))
            yield Hold(ms_to_ticks(4.0))
            yield from drive(locks.release_all_nowait(0, [42]))

        def reader():
            yield Hold(ms_to_ticks(1.0))
            yield from drive(locks.acquire_all_nowait(1, [42], set()))
            progress.append(sim.now_ms)
            yield from drive(locks.release_all_nowait(1, [42]))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert progress == [4.0]
        assert locks.waits == 1
        assert locks.wait_time_ms == pytest.approx(3.0)

    def test_reader_blocks_writer(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        progress = []

        def reader():
            yield from drive(locks.acquire_all_nowait(0, [7], set()))
            yield Hold(ms_to_ticks(2.0))
            yield from drive(locks.release_all_nowait(0, [7]))

        def writer():
            yield Hold(ms_to_ticks(0.5))
            yield from drive(locks.acquire_all_nowait(1, [7], {7}))
            progress.append(sim.now_ms)
            yield from drive(locks.release_all_nowait(1, [7]))

        sim.process(reader())
        sim.process(writer())
        sim.run()
        assert progress == [2.0]

    def test_disjoint_objects_do_not_conflict(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        progress = []

        def txn(tag, oid):
            yield from drive(locks.acquire_all_nowait(tag, [oid], {oid}))
            progress.append((tag, sim.now_ms))
            yield Hold(ms_to_ticks(2.0))
            yield from drive(locks.release_all_nowait(tag, [oid]))

        sim.process(txn(0, 1))
        sim.process(txn(1, 2))
        sim.run()
        assert [t for __, t in progress] == [0.0, 0.0]

    def test_reacquire_held_lock_is_granted(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        done = []

        def txn():
            yield from drive(locks.acquire_all_nowait(0, [5], set()))
            yield from drive(locks.acquire_all_nowait(0, [5], set()))  # idempotent
            done.append(sim.now_ms)
            yield from drive(locks.release_all_nowait(0, [5]))

        sim.process(txn())
        sim.run()
        assert done == [0.0]

    def test_lock_table_garbage_collected(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)

        def txn():
            yield from drive(locks.acquire_all_nowait(0, [1, 2, 3], {2}))
            yield from drive(locks.release_all_nowait(0, [1, 2, 3]))

        sim.process(txn())
        sim.run()
        assert locks.locked_objects == 0


class TestContention:
    def test_writers_serialize_on_hot_object(self):
        sim, locks = make_locks(multilvl=10, getlock=0.0, rellock=0.0)
        finished = []

        def writer(tag):
            yield locks.admission_request
            yield from drive(locks.acquire_all_nowait(tag, [99], {99}))
            yield Hold(ms_to_ticks(1.0))
            yield from drive(locks.release_all_nowait(tag, [99]))
            yield locks.admission_release
            finished.append(sim.now_ms)

        for tag in range(3):
            sim.process(writer(tag))
        sim.run()
        assert finished == [1.0, 2.0, 3.0]
