"""The Transaction Manager (knowledge model, Figure 4).

"Transactions are generated by the Users, who submit them to the
Transaction Manager.  The Transaction Manager determines which objects
need to be accessed for the current transaction, and performs the
necessary operations on these objects."

Execution of one transaction, inside the architecture's transaction
envelope (a DB server's request and response messages; no work on the
other classes):

1. the envelope's request crosses;
2. enter the multiprogramming mix (Table 1's scheduler, MULTILVL:
   the admission resource this manager owns);
3. acquire locks on every distinct object of the trace (GETLOCK each,
   shared for reads / exclusive for writes, sorted order);
4. replay the access trace through the architecture's walk, which
   yields only what owes simulated time, feeding the Clustering
   Manager's statistics hook after each access;
5. pay the CPU time of the object operations;
6. release locks (RELLOCK each) and leave the mix;
7. let the Clustering Manager's automatic trigger run (Figure 4);
8. the envelope's response crosses.

A transaction's response time runs from the end of step 1 to the end
of step 6, so it excludes both envelope crossings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.despy.process import PARK, Hold, Request
from repro.despy.resource import Resource
from repro.core.architectures import Architecture
from repro.core.failures import NoFailures
from repro.core.clustering_manager import ClusteringManager
from repro.core.locks import LockManager
from repro.core.parameters import VOODBConfig
from repro.ocb.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class TransactionManager:
    """Executes transactions against the architecture's access path."""

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        architecture: Architecture,
        locks: LockManager,
        clustering: ClusteringManager,
        failures=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.architecture = architecture
        self.locks = locks
        #: Table 1's database scheduler: at most MULTILVL transactions
        #: execute at once, on one server or across a whole cluster.
        self.admission = Resource(sim, "scheduler", capacity=config.multilvl)
        #: shared immutable command for a contended admission, so the
        #: per-transaction enter allocates nothing.
        self.admission_request = Request(self.admission)
        self.clustering = clustering
        self.failures = failures if failures is not None else NoFailures()
        self._cpu_ticks = config.cpu_per_object_ticks
        self._next_txn_id = 0
        # Cumulative counters
        self.transactions_executed = 0
        self.objects_accessed = 0
        #: Per-transaction response times (ticks) in completion order —
        #: the series the steady-state pipeline (MSER-5 truncation +
        #: batch means, :mod:`repro.despy.stats`) analyzes per phase,
        #: and the phase's response-time sum and maximum.
        self.phase_response_series: list = []
        self.phase_kind_counts: Dict[str, int] = {}

    def begin_phase(self) -> None:
        """Reset the per-phase response-time and mix trackers."""
        self.phase_response_series = []
        self.phase_kind_counts = {}

    # ------------------------------------------------------------------
    def execute(self, txn: Transaction):
        """Process-generator running one transaction end to end, inside
        the architecture's transaction envelope: every source submits
        through here."""
        architecture = self.architecture
        step = architecture.begin_transaction_nowait()
        if step is not None:
            yield from step
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        started = self.sim.now

        # §5 hazards: a crash since the last boundary empties the buffer
        # and blocks this transaction for the recovery downtime.
        recovery = self.failures.crash_check()
        if recovery > 0:
            yield Hold(recovery)

        # OCB inserts create their object at draw time; give it disk
        # space before its first access resolves a page.
        if txn.kind == "insert":
            architecture.object_manager.allocate(
                txn.root, self.config.usable_page_bytes
            )

        admission = self.admission
        if not admission.try_acquire_inline():
            yield self.admission_request
        # The generator derived the lock set and the write set with
        # the trace; the acquire and release sweeps both consume them
        # as they are.
        distinct = txn.lock_set
        locks = self.locks
        step = locks.acquire_all_nowait(txn_id, distinct, txn.write_set)
        if step is not None:
            yield from step

        # The access loop is the whole simulation's inner loop: the
        # architecture walks the trace and yields only what owes time.
        # A policy that collects statistics sees each access through
        # the Clustering Manager once the access has finished.
        accesses = txn.accesses
        clustering = self.clustering
        if clustering.policy.tracks_accesses:
            accesses = clustering.tracked(accesses)
        for step in architecture.access_steps(accesses):
            yield from step
        self.objects_accessed += len(txn.accesses)

        cpu_time = self._cpu_ticks * len(txn.accesses)
        if cpu_time > 0:
            yield Hold(cpu_time)

        step = locks.release_all_nowait(txn_id, distinct)
        if step is not None:
            yield from step
        if not admission.release_inline():
            yield PARK

        self.transactions_executed += 1
        self.phase_response_series.append(self.sim.now - started)
        kind_counts = self.phase_kind_counts
        kind_counts[txn.kind] = kind_counts.get(txn.kind, 0) + 1

        # Figure 4: clustering treatments happen once the transaction's
        # object operations are over; the trigger may reorganize inline.
        step = clustering.after_transaction_nowait()
        if step is not None:
            yield from step
        step = architecture.end_transaction_nowait()
        if step is not None:
            yield from step

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TransactionManager executed={self.transactions_executed}>"
