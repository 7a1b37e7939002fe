"""The four OCB transaction types and the workload generator.

Paper Table 5 defines the workload as a mix of four transaction types
drawn with probabilities PSET/PSIMPLE/PHIER/PSTOCH, each with its own
depth.  A transaction's *trace* is the ordered list of object accesses it
performs; the Transaction Manager replays that trace against the Object /
Buffering managers.

The four types navigate the object graph differently:

* :class:`SetOrientedAccess` — breadth-first over **all** references,
  each object accessed **once** (set semantics), depth SETDEPTH.
* :class:`SimpleTraversal` — depth-first over all references, objects
  re-accessed on every encounter (naive pointer chasing), depth SIMDEPTH.
* :class:`HierarchyTraversal` — follows only references of **one type**
  (e.g. the inheritance links), depth HIEDEPTH.  This is the clustering-
  friendly access pattern §4.4 uses to showcase DSTC.
* :class:`StochasticTraversal` — a random walk choosing one reference at
  each step, STODEPTH steps.

Each access is a ``(oid, is_write)`` pair; writes are drawn per access
with probability PWRITE (read-only in the validation experiments).
"""

from __future__ import annotations

from typing import Collection, Iterator, List, Tuple

from repro.despy.randomstream import RandomStream
from repro.ocb.database import Database
from repro.ocb.parameters import OCBConfig

#: One object access: (oid, is_write).
Access = Tuple[int, bool]

#: The write set of every read-only transaction (PWRITE = 0).
_NO_WRITES: frozenset = frozenset()


class Transaction:
    """A fully materialized transaction: its type, root, and trace.

    The generator also hands over what the Transaction Manager's
    conservative-2PL sweeps consume: ``lock_set``, the distinct oids in
    any order (the lock layer sorts only where sweeps can meet), and
    ``write_set``, the oids written at least once.  It has both at hand
    when it draws the trace, so each transaction derives them once, not
    once per execution.  Left out, they are derived from ``accesses``.
    """

    # Slots and a plain __init__, not a frozen dataclass: its generated
    # __init__ calls object.__setattr__ per field, about 2 us per
    # transaction.
    __slots__ = ("kind", "root", "accesses", "lock_set", "write_set")

    def __init__(
        self,
        kind: str,
        root: int,
        accesses: tuple[Access, ...],
        lock_set: Collection[int] | None = None,
        write_set: frozenset | None = None,
    ) -> None:
        self.kind = kind
        self.root = root
        self.accesses = accesses
        if lock_set is None:
            lock_set = tuple({oid for oid, __ in accesses})
        if write_set is None:
            write_set = frozenset([oid for oid, is_write in accesses if is_write])
        self.lock_set = lock_set
        self.write_set = write_set

    @property
    def objects(self) -> List[int]:
        """OIDs in access order (possibly with repeats)."""
        return [oid for oid, __ in self.accesses]

    @property
    def distinct_objects(self) -> set:
        return {oid for oid, __ in self.accesses}

    @property
    def writes(self) -> int:
        return sum(1 for __, is_write in self.accesses if is_write)

    def __len__(self) -> int:
        return len(self.accesses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transaction {self.kind} root={self.root} "
            f"accesses={len(self.accesses)} locks={len(self.lock_set)}>"
        )


def _traced(
    kind: str,
    root: int,
    oids: List[int],
    lock_set: Collection[int],
    pwrite: float,
    rng: RandomStream,
) -> Transaction:
    """A traced transaction, its write flags drawn per access."""
    if pwrite <= 0.0:
        accesses = tuple([(oid, False) for oid in oids])
        return Transaction(kind, root, accesses, lock_set, _NO_WRITES)
    # ``bernoulli(pwrite)`` is ``random() < pwrite``: the generator's
    # bound method, called directly, draws the same bits without a
    # wrapper frame per access.
    random = rng.random
    accesses = tuple([(oid, random() < pwrite) for oid in oids])
    return Transaction(kind, root, accesses, lock_set)


class SetOrientedAccess:
    """Breadth-first set access: every reachable object once, per level."""

    kind = "set"

    @staticmethod
    def trace(db: Database, root: int, depth: int) -> List[int]:
        visited = {root}
        order = [root]
        frontier = [root]
        # The flat reference lists, accessed directly: traversals visit
        # millions of objects per sweep and the ``refs()`` accessor
        # frame is the single biggest cost of workload materialization.
        obj_refs = db._obj_refs
        add = visited.add
        push = order.append
        for __ in range(depth):
            next_frontier: List[int] = []
            grow = next_frontier.append
            for oid in frontier:
                for target in obj_refs[oid]:
                    if target not in visited:
                        add(target)
                        push(target)
                        grow(target)
            if not next_frontier:
                break
            frontier = next_frontier
        return order


class SimpleTraversal:
    """Depth-first traversal re-accessing objects on every encounter."""

    kind = "simple"

    @staticmethod
    def trace(db: Database, root: int, depth: int) -> List[int]:
        order: List[int] = []
        # Explicit stack of (oid, remaining_depth); children pushed in
        # reverse so the visit order matches the recursive formulation.
        stack = [(root, depth)]
        pop = stack.pop
        push = stack.append
        grow = order.append
        obj_refs = db._obj_refs
        while stack:
            oid, remaining = pop()
            grow(oid)
            if remaining > 0:
                remaining -= 1
                for target in reversed(obj_refs[oid]):
                    push((target, remaining))
        return order


class HierarchyTraversal:
    """Follows all references of a single type, depth-limited."""

    kind = "hierarchy"

    @staticmethod
    def trace(db: Database, root: int, depth: int, ref_type: int) -> List[int]:
        visited = {root}
        order = [root]
        frontier = [root]
        obj_refs = db._obj_refs
        obj_ref_types = db._obj_ref_types
        add = visited.add
        push = order.append
        for __ in range(depth):
            next_frontier: List[int] = []
            grow = next_frontier.append
            for oid in frontier:
                # refs_of_type, fused: iterate the parallel lists
                # without materializing the filtered list per object.
                types = obj_ref_types[oid]
                for index, target in enumerate(obj_refs[oid]):
                    if types[index] == ref_type and target not in visited:
                        add(target)
                        push(target)
                        grow(target)
            if not next_frontier:
                break
            frontier = next_frontier
        return order


class StochasticTraversal:
    """Random walk: one randomly chosen reference per step."""

    kind = "stochastic"

    @staticmethod
    def trace(
        db: Database, root: int, depth: int, rng: RandomStream
    ) -> List[int]:
        order = [root]
        current = root
        obj_refs = db._obj_refs
        # ``randint(0, n - 1)``'s rejection sampling, inlined: the same
        # ``getrandbits(n.bit_length())`` draws, so walks replay bit for
        # bit, without a Python frame per step.  A step from an object
        # with one reference still consumes its draw.
        getrandbits = rng.getrandbits
        push = order.append
        for __ in range(depth):
            refs = obj_refs[current]
            if not refs:
                break
            n = len(refs)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            current = refs[r]
            push(current)
        return order


class TransactionGenerator:
    """Draws transactions according to the Table 5 mix.

    One generator per simulated user; the random stream determines both
    the mix and the root objects, so two replications with the same
    stream see the same workload (common random numbers).
    """

    KINDS = ("set", "simple", "hierarchy", "stochastic")

    def __init__(
        self, db: Database, config: OCBConfig, rng: RandomStream
    ) -> None:
        self.db = db
        self.config = config
        self.rng = rng
        self.generated = 0

    def next_root(self) -> int:
        """Draw a live root object.

        Uniform over the base by default; restricted to the hot
        ``root_region`` when set; Zipf-hot under ``root_skew``.  Deleted
        objects (dynamic workloads) are resampled away.
        """
        population = len(self.db)
        if self.config.root_region > 0:
            population = min(self.config.root_region, population)
        for __ in range(200):
            if self.config.root_skew > 0:
                root = self.rng.zipf_index(population, self.config.root_skew)
            else:
                root = self.rng.randint(0, population - 1)
            if not self.db.is_deleted(root):
                return root
        # Degenerate fallback (hot region wiped out): first live object.
        for oid in range(len(self.db)):
            if not self.db.is_deleted(oid):
                return oid
        raise RuntimeError("database has no live objects left")

    def next_transaction(self) -> Transaction:
        """Draw type + root, materialize the access trace.

        Dynamic operations (insert/delete) mutate the database at draw
        time — generators are consumed lazily by the user processes, so
        the mutation happens in execution order.
        """
        config = self.config
        choice = self.rng.discrete(config.transaction_probabilities)
        if choice == 4:
            return self._insert_transaction()
        if choice == 5:
            return self._delete_transaction()
        root = self.next_root()
        # Set-oriented and hierarchy traces visit each object once, so
        # the trace is the lock set; simple and stochastic ones may
        # repeat objects.  A lock set lives as long as its transaction,
        # so it is kept as a tuple: a set of the same oids takes several
        # times the memory.
        if choice == 0:
            oids = SetOrientedAccess.trace(self.db, root, config.setdepth)
            kind = SetOrientedAccess.kind
            lock_set = oids
        elif choice == 1:
            oids = SimpleTraversal.trace(self.db, root, config.simdepth)
            kind = SimpleTraversal.kind
            lock_set = tuple(set(oids))
        elif choice == 2:
            ref_type = self.rng.randint(0, config.nreft - 1)
            oids = HierarchyTraversal.trace(
                self.db, root, config.hiedepth, ref_type
            )
            kind = HierarchyTraversal.kind
            lock_set = oids
        else:
            oids = StochasticTraversal.trace(
                self.db, root, config.stodepth, self.rng
            )
            kind = StochasticTraversal.kind
            lock_set = tuple(set(oids))
        self.generated += 1
        return _traced(kind, root, oids, lock_set, config.pwrite, self.rng)

    def _insert_transaction(self) -> Transaction:
        """Create one object of a random class, wired like the generator.

        The trace writes the new object and reads every object it now
        references (pointer wiring touches them).
        """
        db, config = self.db, self.config
        cid = self.rng.randint(0, config.nc - 1)
        refs: List[int] = []
        ref_types: List[int] = []
        for class_ref in db.schema[cid].references:
            extent = db.instances_of(class_ref.target_cid)
            if not extent:
                continue
            refs.append(extent[self.rng.randint(0, len(extent) - 1)])
            ref_types.append(class_ref.ref_type)
        oid = db.insert_object(cid, refs, ref_types)
        self.generated += 1
        accesses = ((oid, True),) + tuple((target, False) for target in refs)
        return Transaction(kind="insert", root=oid, accesses=accesses)

    def _delete_transaction(self) -> Transaction:
        """Delete one live object, paying the reference-cleanup writes."""
        root = self.next_root()
        dirty = self.db.delete_object(root)
        self.generated += 1
        accesses = ((root, True),) + tuple((other, True) for other in dirty)
        return Transaction(kind="delete", root=root, accesses=accesses)

    def transactions(self, count: int) -> Iterator[Transaction]:
        """Yield ``count`` freshly drawn transactions."""
        for __ in range(count):
            yield self.next_transaction()

    def hierarchy_only(
        self, count: int, ref_type: int, depth: int
    ) -> Iterator[Transaction]:
        """The §4.4 DSTC workload: pure depth-``depth`` hierarchy traversals.

        At PWRITE = 0 a repeated root (§4.4's roots come from a small hot
        region) yields the transaction drawn for it earlier in this call,
        lock set included: the trace is a pure function of the root and
        the object graph, and the graph cannot change during the call,
        since every user of a phase draws from here, a phase drains
        before the next one starts and churn (OCB inserts and deletes)
        runs in phases of its own.  Every root is still drawn, so the
        stream is consumed as before.  A memo kept beyond one call would
        need ``db.mutations`` in its key.
        """
        pwrite = self.config.pwrite
        memo: dict[int, Transaction] = {}
        for __ in range(count):
            root = self.next_root()
            self.generated += 1
            txn = memo.get(root)
            if txn is None:
                oids = HierarchyTraversal.trace(self.db, root, depth, ref_type)
                txn = _traced(
                    HierarchyTraversal.kind, root, oids, oids, pwrite, self.rng
                )
                if pwrite <= 0.0:
                    memo[root] = txn
            yield txn
