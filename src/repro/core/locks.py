"""The transaction scheduler: multiprogramming admission + object locks.

Table 1's last passive resource: "Database.  Its concurrent access is
managed by a scheduler that applies a transaction scheduling policy that
depends on the multiprogramming level."  Table 3 contributes MULTILVL
(max concurrent transactions) and the per-lock GETLOCK/RELLOCK times.

Admission is a despy Resource of capacity MULTILVL.  Object locks are
shared/exclusive; because OCB transactions know their full access trace
up front, locks are acquired in sorted-OID order (conservative two-phase
locking), which makes deadlock impossible — a scheduling policy choice,
not a cheat: it is what a validation model wants, since the paper's
experiments never exercise deadlock handling (NUSERS=1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.despy.process import Hold, Release, Request, WaitFor
from repro.despy.resource import Gate, Resource
from repro.despy.timebase import MS_PER_TICK
from repro.core.parameters import VOODBConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class _LockEntry:
    """State of one object's lock: holders + waiters.

    The table stores a full entry only for the *interesting* states —
    multiple shared holders, or queued waiters.  The dominant state (a
    single holder, nobody queued) is encoded as a bare int in the table:
    ``txn_id`` for a shared hold, ``~txn_id`` for an exclusive one.  The
    conservative-2PL sweep then costs one dict store per lock instead of
    an object, a set and a list.
    """

    __slots__ = ("exclusive", "holders", "waiters")

    def __init__(self) -> None:
        self.exclusive = False
        self.holders: set[int] = set()  # transaction ids
        self.waiters: List[Tuple[int, bool, Gate]] = []  # (txn, write, gate)


class LockManager:
    """MULTILVL admission plus shared/exclusive object locking."""

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        with_admission: bool = True,
    ) -> None:
        self.sim = sim
        self.config = config
        if with_admission:
            self.admission = Resource(sim, "scheduler", capacity=config.multilvl)
            #: shared immutable commands for the admission resource, so the
            #: per-transaction enter/leave pair allocates nothing.
            self.admission_request = Request(self.admission)
            self.admission_release = Release(self.admission)
        else:
            # Cluster nodes shard only the object-lock table; admission
            # stays a cluster-global scheduler (ClusterLockManager's),
            # so per-node instances skip the resource entirely.
            self.admission = None
            self.admission_request = None
            self.admission_release = None
        self._table: Dict[int, _LockEntry] = {}
        #: free list of lock entries — a transaction's conservative-2PL
        #: sweep creates and drops one entry (plus its holders set and
        #: waiters list) per distinct object, so recycling them saves
        #: three allocations per lock on the sole-holder fast path.
        self._entry_pool: List[_LockEntry] = []
        #: the transactions between the start of their acquire sweep and
        #: the end of their release sweep on this table.  A release by
        #: the only one owns every entry, so it clears the table at once.
        self._sweeping: set[int] = set()
        # GETLOCK/RELLOCK converted to ticks once (the config is frozen).
        self._getlock_ticks = config.getlock_ticks
        self._rellock_ticks = config.rellock_ticks
        # Counters
        self.acquisitions = 0
        self.releases = 0
        self.waits = 0
        self.wait_ticks = 0

    @property
    def wait_time_ms(self) -> float:
        """Accumulated lock-wait time, reported in milliseconds."""
        return self.wait_ticks * MS_PER_TICK

    # ------------------------------------------------------------------
    # Transaction-side protocol (entering and leaving the multiprogramming
    # mix is ``yield admission_request`` / ``yield admission_release``)
    # ------------------------------------------------------------------
    def acquire_all_nowait(self, txn_id: int, distinct: Sequence[int], writes: set):
        """Acquire locks on every object of ``distinct``, in order.

        Pays GETLOCK per lock and blocks while any lock conflicts.
        Returns ``None`` when every lock was granted without paying time
        (GETLOCK = 0) or waiting; otherwise a generator to ``yield from``.

        ``distinct`` is a sorted sequence of distinct ids (the
        transaction's ``lock_set``, which the release sweep shares), so
        every transaction acquires in one global order (deadlock-free).
        A transaction acquires one lock set per table and releases that
        same set once.
        """
        self._sweeping.add(txn_id)
        lock_cost = self._getlock_ticks * len(distinct)
        if lock_cost > 0:
            return self._acquire_timed(txn_id, distinct, writes, lock_cost)
        return self._acquire_sync(txn_id, distinct, writes)

    def _acquire_timed(self, txn_id, distinct, writes, lock_cost):
        yield Hold(lock_cost)
        step = self._acquire_sync(txn_id, distinct, writes)
        if step is not None:
            yield from step

    def _acquire_sync(self, txn_id, distinct, writes):
        """Grant conflict-free locks in place; on the first conflict,
        return a generator finishing the rest (waits included)."""
        table = self._table
        shared = txn_id
        exclusive = ~txn_id
        if not table or table.keys().isdisjoint(distinct):
            # No lock of the set is held (always so with one user):
            # grant them all in one update, int-encoded single holders.
            if writes:
                table.update(
                    {oid: exclusive if oid in writes else shared for oid in distinct}
                )
            else:
                table.update(dict.fromkeys(distinct, shared))
            self.acquisitions += len(distinct)
            return None
        for index, oid in enumerate(distinct):
            want_write = oid in writes
            entry = table.get(oid)
            if entry is None:
                # Unlocked object (the common case): grant inline with
                # the int-encoded single-holder state.
                table[oid] = exclusive if want_write else shared
                self.acquisitions += 1
                continue
            if self._grant(txn_id, oid, want_write):
                self.acquisitions += 1
                continue
            # A failed _grant mutates nothing, so the tail may simply
            # retry this oid before its first wait.
            return self._acquire_tail(txn_id, distinct, writes, index)
        return None

    def _acquire_tail(self, txn_id, distinct, writes, start):
        table = self._table
        for oid in distinct[start:]:
            want_write = oid in writes
            while not self._grant(txn_id, oid, want_write):
                gate = Gate(self.sim, f"lock-{oid}")
                # Re-fetch: the entry can be dropped and recreated while
                # this transaction waits.  A contender arriving promotes
                # an int-encoded single-holder state to a full entry.
                entry = table[oid]
                if entry.__class__ is int:
                    entry = self._promote(oid, entry)
                entry.waiters.append((txn_id, want_write, gate))
                self.waits += 1
                started = self.sim.now
                yield WaitFor(gate)
                self.wait_ticks += self.sim.now - started
            self.acquisitions += 1

    def release_all_nowait(self, txn_id: int, distinct: Sequence[int]):
        """Release every lock of ``distinct`` (the acquired lock set),
        paying RELLOCK per lock, waking waiters.

        Returns ``None`` when RELLOCK costs nothing (releasing never
        blocks, so only the Hold needs the event loop); otherwise a
        generator to ``yield from``.
        """
        release_cost = self._rellock_ticks * len(distinct)
        if release_cost > 0:
            return self._release_timed(txn_id, distinct, release_cost)
        self._release_sync(txn_id, distinct)
        return None

    def _release_timed(self, txn_id, distinct, release_cost):
        yield Hold(release_cost)
        self._release_sync(txn_id, distinct)

    def _release_sync(self, txn_id, distinct):
        table = self._table
        sweeping = self._sweeping
        if len(sweeping) == 1 and txn_id in sweeping:
            # Alone on the table: nobody else holds or waits for a lock
            # here, so every entry is this transaction's.
            sweeping.clear()
            self.releases += len(table)
            table.clear()
            return
        sweeping.discard(txn_id)
        shared = txn_id
        exclusive = ~txn_id
        for oid in distinct:
            entry = table.get(oid)
            if entry is None:
                continue
            if entry.__class__ is int:
                # Int-encoded single holder (the common case).
                if entry == shared or entry == exclusive:
                    self.releases += 1
                    del table[oid]
                continue
            if txn_id not in entry.holders:
                continue
            if len(entry.holders) == 1 and not entry.waiters:
                # Sole holder, nobody queued: drop the whole entry
                # inline and recycle it.
                self.releases += 1
                del table[oid]
                entry.holders.clear()
                entry.exclusive = False
                self._entry_pool.append(entry)
                continue
            self._release(txn_id, oid)

    # ------------------------------------------------------------------
    # Lock table mechanics
    # ------------------------------------------------------------------
    def _promote(self, oid: int, value: int) -> _LockEntry:
        """Expand an int-encoded single-holder state to a full entry."""
        pool = self._entry_pool
        entry = pool.pop() if pool else _LockEntry()
        if value >= 0:
            entry.holders.add(value)
        else:
            entry.holders.add(~value)
            entry.exclusive = True
        self._table[oid] = entry
        return entry

    def _grant(self, txn_id: int, oid: int, write: bool) -> bool:
        entry = self._table.get(oid)
        if entry is None:
            self._table[oid] = ~txn_id if write else txn_id
            return True
        if entry.__class__ is int:
            holder = entry if entry >= 0 else ~entry
            if holder == txn_id:
                if write and entry >= 0:
                    # Upgrade: sole holder by construction.
                    self._table[oid] = ~txn_id
                return True
            if entry < 0 or write:
                return False
            # A second shared holder: promote to a full entry.
            promoted = self._promote(oid, entry)
            promoted.holders.add(txn_id)
            return True
        if txn_id in entry.holders:
            # Lock upgrade: allowed only if sole holder.
            if write and not entry.exclusive:
                if entry.holders == {txn_id}:
                    entry.exclusive = True
                    return True
                return False
            return True
        if not entry.holders:
            entry.holders.add(txn_id)
            entry.exclusive = write
            return True
        if entry.exclusive or write:
            return False
        entry.holders.add(txn_id)
        return True

    def _release(self, txn_id: int, oid: int) -> None:
        entry = self._table.get(oid)
        if entry is None:
            return
        if entry.__class__ is int:
            if entry == txn_id or entry == ~txn_id:
                self.releases += 1
                del self._table[oid]
            return
        if txn_id not in entry.holders:
            return
        entry.holders.discard(txn_id)
        self.releases += 1
        if entry.holders:
            return
        entry.exclusive = False
        # Wake every waiter; each re-checks its grant on resume.  Waking
        # all (rather than the head) keeps the policy simple and live.
        waiters, entry.waiters = entry.waiters, []
        if not waiters:
            del self._table[oid]
            self._entry_pool.append(entry)
            return
        for __, __, gate in waiters:
            gate.open()

    # ------------------------------------------------------------------
    @property
    def locked_objects(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LockManager locked={self.locked_objects} "
            f"waits={self.waits} mpl={self.config.multilvl}>"
        )
