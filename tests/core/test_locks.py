"""Unit tests for the transaction scheduler (MULTILVL + object locks)."""

import pytest

from repro.despy import Hold, Release, Simulation, ms_to_ticks
from repro.core import LockManager, VOODBConfig
from repro.core.model import VOODBSimulation
from repro.systems.o2 import o2_config


def make_locks(getlock=0.5, rellock=0.5):
    sim = Simulation()
    config = VOODBConfig(getlock=getlock, rellock=rellock)
    return sim, LockManager(sim, config)


def drive(step):
    """Finish a nowait step: ``None`` means it completed in place."""
    if step is not None:
        yield from step


class TestAdmission:
    def test_multiprogramming_level_caps_concurrency(self):
        config = o2_config(nc=10, no=500, cache_mb=0.25, hotn=4)
        model = VOODBSimulation(config.with_changes(multilvl=2), seed=1)
        sim, tm = model.sim, model.tm
        inside = []
        peak = [0]

        def txn(tag):
            yield tm.admission_request
            inside.append(tag)
            peak[0] = max(peak[0], tm.admission.in_use)
            yield Hold(ms_to_ticks(5.0))
            yield Release(tm.admission)

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
        assert locks.wait_ticks == ms_to_ticks(3.0)

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
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        finished = []

        def writer(tag):
            yield from drive(locks.acquire_all_nowait(tag, [99], {99}))
            yield Hold(ms_to_ticks(1.0))
            yield from drive(locks.release_all_nowait(tag, [99]))
            finished.append(sim.now_ms)

        for tag in range(3):
            sim.process(writer(tag))
        sim.run()
        assert finished == [1.0, 2.0, 3.0]


class TestSweepsOnAHeldTable:
    def test_disjoint_sweep_on_a_held_table_stores_each_mode(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        assert locks.acquire_all_nowait(3, [1], set()) is None
        assert locks.acquire_all_nowait(5, [2, 3, 4], {3}) is None
        assert locks.acquire_all_nowait(7, [8, 9], set()) is None
        # Int-encoded single holders: txn_id shared, ~txn_id exclusive.
        assert locks._table == {1: 3, 2: 5, 3: ~5, 4: 5, 8: 7, 9: 7}
        assert locks.acquisitions == 6
        locks.release_all_nowait(5, [2, 3, 4])
        assert locks._table == {1: 3, 8: 7, 9: 7}
        locks.release_all_nowait(3, [1])
        locks.release_all_nowait(7, [8, 9])
        assert (locks.releases, locks.locked_objects) == (6, 0)

    def test_sweep_meeting_a_held_exclusive_lock_waits(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        granted = []

        def holder():
            yield from drive(locks.acquire_all_nowait(0, [5], {5}))
            yield Hold(ms_to_ticks(2.0))
            # 4 granted, 5 held with the contender queued, 6 not yet.
            assert sorted(locks._table) == [4, 5] and locks._table[4] == 1
            yield from drive(locks.release_all_nowait(0, [5]))

        def contender():
            step = locks.acquire_all_nowait(1, [4, 5, 6], set())
            assert step is not None
            yield from step
            granted.append(sim.now_ms)
            yield from drive(locks.release_all_nowait(1, [4, 5, 6]))

        sim.process(holder())
        sim.process(contender())
        sim.run()
        assert granted == [2.0]
        assert (locks.waits, locks.wait_ticks) == (1, ms_to_ticks(2.0))
        assert (locks.acquisitions, locks.releases, locks.locked_objects) == (4, 4, 0)

    def test_an_emptied_entry_stays_for_its_woken_waiters(self):
        # The release opens the reader's gate and keeps the entry, with
        # no holder and nobody queued: the object stays locked until
        # the woken reader resumes and takes it.
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        seen = []

        def writer():
            yield from drive(locks.acquire_all_nowait(0, [42], {42}))
            yield Hold(ms_to_ticks(2.0))
            yield from drive(locks.release_all_nowait(0, [42]))
            entry = locks._table[42]
            seen.append((entry.holders, entry.waiters, locks.locked_objects))

        def reader():
            yield Hold(ms_to_ticks(1.0))
            yield from drive(locks.acquire_all_nowait(1, [42], set()))
            seen.append(("granted", sim.now_ms))
            yield from drive(locks.release_all_nowait(1, [42]))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert seen == [(set(), [], 1), ("granted", 2.0)]
        assert (locks.waits, locks.locked_objects) == (1, 0)

    def test_release_without_an_acquire_keeps_the_holders_locks(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        assert locks.acquire_all_nowait(1, [1, 2], set()) is None
        locks.release_all_nowait(2, [1, 2])
        assert (locks.releases, locks.locked_objects) == (0, 2)
        locks.release_all_nowait(1, [1, 2])
        assert (locks.releases, locks.locked_objects) == (2, 0)


class TestLoneRecord:
    """A transaction that grants on an empty table holds its locks as
    one record, written into the table when another transaction
    grants."""

    def test_lone_grant_writes_no_table_entry(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        assert locks.acquire_all_nowait(4, {9, 3, 6}, {6}) is None
        assert locks._table == {}
        assert (locks.acquisitions, locks.locked_objects) == (3, 3)
        assert locks.release_all_nowait(4, {9, 3, 6}) is None
        assert (locks.releases, locks.locked_objects) == (3, 0)

    def test_next_grant_writes_the_record_in_first(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        assert locks.acquire_all_nowait(3, [2, 1], {1}) is None
        assert locks.acquire_all_nowait(5, [4], set()) is None
        assert locks._table == {1: ~3, 2: 3, 4: 5}
        assert (locks.acquisitions, locks.locked_objects) == (3, 3)

    def test_reader_waits_once_for_a_lone_writer(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        progress = []

        def writer():
            yield from drive(locks.acquire_all_nowait(0, [8, 7], {7}))
            assert (locks._table, locks.locked_objects) == ({}, 2)
            yield Hold(ms_to_ticks(3.0))
            yield from drive(locks.release_all_nowait(0, [8, 7]))

        def reader():
            yield Hold(ms_to_ticks(1.0))
            yield from drive(locks.acquire_all_nowait(1, [7], set()))
            progress.append(sim.now_ms)
            yield from drive(locks.release_all_nowait(1, [7]))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert progress == [3.0]
        assert (locks.waits, locks.wait_ticks) == (1, ms_to_ticks(2.0))
        assert (locks.acquisitions, locks.releases, locks.locked_objects) == (3, 3, 0)

    def test_release_opens_gates_in_oid_order_whatever_the_set_order(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        granted = []

        def writer():
            yield from drive(locks.acquire_all_nowait(0, [3, 1], {1, 3}))
            yield Hold(ms_to_ticks(4.0))
            yield from drive(locks.release_all_nowait(0, [3, 1]))

        def reader(txn_id, oid, arrival_ms):
            yield Hold(ms_to_ticks(arrival_ms))
            yield from drive(locks.acquire_all_nowait(txn_id, [oid], set()))
            granted.append((txn_id, sim.now_ms))
            yield from drive(locks.release_all_nowait(txn_id, [oid]))

        sim.process(writer())
        sim.process(reader(1, 3, 1.0))
        sim.process(reader(2, 1, 2.0))
        sim.run()
        # Oid 1's waiter resumes first, although it queued last.
        assert granted == [(2, 4.0), (1, 4.0)]

    def test_woken_waiter_writes_in_a_record_made_before_it_resumes(self):
        # 1 holds 7 and releases it at 2 ms, opening waiter 2's gate.
        # 3's and 4's timed events run at 2 ms before 2 resumes: 3
        # grants 7 and releases it in one step, emptying the table, so
        # 4 makes a record holding 7; 2 must meet it and wait again.
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        granted = []

        def txn(txn_id, arrival_ms, writes, hold_ms):
            if arrival_ms:
                yield Hold(ms_to_ticks(arrival_ms))
            yield from drive(locks.acquire_all_nowait(txn_id, [7], writes))
            granted.append((txn_id, sim.now_ms))
            if hold_ms:
                yield Hold(ms_to_ticks(hold_ms))
            yield from drive(locks.release_all_nowait(txn_id, [7]))

        sim.process(txn(1, 0.0, {7}, 2.0))
        sim.process(txn(2, 1.0, {7}, 0.0))
        sim.process(txn(3, 2.0, set(), 0.0))
        sim.process(txn(4, 2.0, {7}, 2.0))
        sim.run()
        assert granted == [(1, 0.0), (3, 2.0), (4, 2.0), (2, 4.0)]
        assert (locks.waits, locks.wait_ticks) == (2, ms_to_ticks(3.0))
        assert (locks.acquisitions, locks.releases, locks.locked_objects) == (4, 4, 0)

    def test_release_by_another_transaction_leaves_the_record(self):
        sim, locks = make_locks(getlock=0.0, rellock=0.0)
        assert locks.acquire_all_nowait(1, [5, 6], set()) is None
        locks.release_all_nowait(2, [5, 6])
        assert (locks.releases, locks.locked_objects) == (0, 2)
        # The record still blocks a writer: it is written in and met.
        step = locks.acquire_all_nowait(3, [6], {6})
        assert step is not None
        assert locks._table == {5: 1, 6: 1}
