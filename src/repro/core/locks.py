"""The object lock table of Table 1's database scheduler.

Table 1's last passive resource: "Database.  Its concurrent access is
managed by a scheduler that applies a transaction scheduling policy that
depends on the multiprogramming level."  Table 3 contributes MULTILVL
(max concurrent transactions) and the per-lock GETLOCK/RELLOCK times.
The MULTILVL admission resource belongs to the Transaction Manager,
its only user; this module is the lock table.

Object locks are shared/exclusive; because OCB transactions know their
full access trace up front, locks are acquired in sorted-OID order
(conservative two-phase locking), which makes deadlock impossible — a
scheduling policy choice, not a cheat: it is what a validation model
wants, since the paper's experiments never exercise deadlock handling
(NUSERS=1).

A lock set comes in any order.  A grant sorts it and sends each oid
through one grant rule; a release runs one per-oid loop in ascending
oid, since it can open waiters' gates.  A transaction that grants on
an empty table keeps its lock set as one *lone record* instead of one
table entry per object; the next transaction to grant there, or a
woken waiter when it resumes, writes the record in first, so every
grant sees the same table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Tuple

from repro.despy.process import Hold, WaitFor
from repro.despy.resource import Gate
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
        self.waiters: List[Gate] = []  # one gate per queued transaction


class LockManager:
    """Shared/exclusive object locking over one lock table."""

    def __init__(self, sim: "Simulation", config: VOODBConfig) -> None:
        self.sim = sim
        self._table: Dict[int, _LockEntry] = {}
        #: the lone record, ``(txn_id, lock set, write set)``: the locks
        #: of a transaction that granted on an empty table, held whole
        #: instead of as table entries until another transaction grants
        #: or resumes from a lock wait.
        self._lone: Optional[Tuple[int, Collection[int], set]] = None
        # GETLOCK/RELLOCK converted to ticks once (the config is frozen).
        self._getlock_ticks = config.getlock_ticks
        self._rellock_ticks = config.rellock_ticks
        # Counters
        self.acquisitions = 0
        self.releases = 0
        self.waits = 0
        self.wait_ticks = 0

    # ------------------------------------------------------------------
    # Transaction-side protocol
    # ------------------------------------------------------------------
    def acquire_all_nowait(self, txn_id: int, distinct: Collection[int], writes: set):
        """Acquire locks on every object of ``distinct``.

        Pays GETLOCK per lock and blocks while any lock conflicts.
        Returns ``None`` when every lock was granted without paying time
        (GETLOCK = 0) or waiting; otherwise a generator to ``yield from``.

        ``distinct`` holds distinct ids in any order (the transaction's
        ``lock_set``, which the release sweep shares); the sweep runs in
        ascending oid, so every transaction acquires in one global order
        (deadlock-free).  A transaction acquires one lock set per table
        and releases that same set once.
        """
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
        if self._lone is not None:
            # Another transaction's lone record: write it in first.
            self._write_in(*self._lone)
            self._lone = None
        elif not self._table:
            # An empty table (always so with one user): nobody holds a
            # lock here or is queued for one, and the next transaction
            # to read the table writes this record in first.
            self._lone = (txn_id, distinct, writes)
            self.acquisitions += len(distinct)
            return None
        distinct = sorted(distinct)
        grant = self._grant
        for index, oid in enumerate(distinct):
            if not grant(txn_id, oid, oid in writes):
                # A failed _grant mutates nothing, so the tail may
                # simply retry this oid before its first wait.
                return self._acquire_tail(txn_id, distinct, writes, index)
            self.acquisitions += 1
        return None

    def _write_in(self, txn_id, distinct, writes):
        """Store a lone record as int-encoded single holders: ``txn_id``
        for a shared lock, ``~txn_id`` for an exclusive one."""
        if writes:
            exclusive = ~txn_id
            self._table.update(
                {oid: exclusive if oid in writes else txn_id for oid in distinct}
            )
        else:
            self._table.update(dict.fromkeys(distinct, txn_id))

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
                entry.waiters.append(gate)
                self.waits += 1
                started = self.sim.now
                yield WaitFor(gate)
                self.wait_ticks += self.sim.now - started
                if self._lone is not None:
                    # A record made between this waiter's wake-up and its
                    # resume (the woken entry taken and released, the
                    # table emptied): write it in before the retry.
                    self._write_in(*self._lone)
                    self._lone = None
            self.acquisitions += 1

    def release_all_nowait(self, txn_id: int, distinct: Collection[int]):
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
        lone = self._lone
        if lone is not None and lone[0] == txn_id:
            # Nobody wrote the record in, so no other transaction met
            # a lock of it: dropping it releases the whole set.
            self._lone = None
            self.releases += len(lone[1])
            return
        table = self._table
        exclusive = ~txn_id
        # In ascending oid: a release can open waiters' gates.
        for oid in sorted(distinct):
            entry = table.get(oid)
            if entry is None:
                continue
            if entry.__class__ is int:
                # Int-encoded single holder (the common case).
                if entry == txn_id or entry == exclusive:
                    self.releases += 1
                    del table[oid]
                continue
            holders = entry.holders
            if txn_id not in holders:
                continue
            holders.discard(txn_id)
            self.releases += 1
            if holders:
                continue
            entry.exclusive = False
            waiters = entry.waiters
            if not waiters:
                del table[oid]
                continue
            # Wake every waiter; each re-checks its grant on resume.
            # Waking all (rather than the head) keeps the policy simple
            # and live.
            entry.waiters = []
            for gate in waiters:
                gate.open()

    # ------------------------------------------------------------------
    # Lock table mechanics
    # ------------------------------------------------------------------
    def _promote(self, oid: int, value: int) -> _LockEntry:
        """Expand an int-encoded single-holder state to a full entry."""
        entry = _LockEntry()
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

    # ------------------------------------------------------------------
    @property
    def locked_objects(self) -> int:
        lone = self._lone
        return len(self._table) + (len(lone[1]) if lone is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LockManager locked={self.locked_objects} waits={self.waits}>"
