"""The Users (knowledge model, Figure 4): transaction sources.

Closed system (the paper's Table 3 population model): NUSERS user
processes each draw transactions from their own OCB generator (common
random numbers: user *u* of phase *p* always sees the same stream for a
given replication seed) and submit them to the Transaction Manager,
thinking ``thinktime`` between transactions.

Open system (:meth:`Users.launch_open`): one arrival source draws
interarrival gaps from a named random stream
(:mod:`repro.despy.arrivals`) and spawns an independent submission
process per arrival — transactions enter at the configured rate whether
or not earlier ones have finished, with MULTILVL still bounding how
many execute concurrently.

Aggregated hybrid (:meth:`Users.launch_aggregated`): a large closed
population collapsed into one calibrated Poisson aggregate source plus
a small *probe cohort* of real closed-loop user processes — the
aggregate stream carries the population's load, the probes observe the
per-user latency the stream cannot.  Probe and aggregate draws live on
disjoint named streams, so resizing the cohort never perturbs the
aggregate arrival sequence.

Users are also where Figure 4's *external clustering demand* comes from;
the model surfaces that as
:meth:`repro.core.model.VOODBSimulation.demand_clustering`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.despy.arrivals import poisson_interarrivals, probe_rescaled_rate
from repro.despy.process import Hold, Process
from repro.despy.randomstream import RandomStream
from repro.despy.timebase import ms_to_ticks
from repro.core.parameters import AggregationConfig, ArrivalConfig, VOODBConfig
from repro.core.transaction_manager import TransactionManager
from repro.ocb.database import Database
from repro.ocb.transactions import Transaction, TransactionGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class Users:
    """Spawns NUSERS transaction-submitting processes per phase."""

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        db: Database,
        tm: TransactionManager,
    ) -> None:
        self.sim = sim
        self.config = config
        self.db = db
        self.tm = tm
        self.transactions_submitted = 0
        # Per-phase aggregated-tier trackers (reset by launch_aggregated).
        #: Response times (ticks) of probe-cohort transactions, in
        #: completion order — the per-user latency series of a hybrid
        #: phase.
        self.probe_response_ticks: List[int] = []
        #: Transactions completed by the aggregate source this phase.
        self.aggregate_completions = 0

    def launch(
        self,
        total_transactions: int,
        workload: str = "mix",
        stream_label: str = "workload",
        hierarchy_type: int = 0,
        hierarchy_depth: Optional[int] = None,
        ocb_override=None,
        thinktime: Optional[float] = None,
        nusers: Optional[int] = None,
    ) -> List[Process]:
        """Start the user processes for one phase (closed system).

        ``workload`` is ``"mix"`` (the Table 5 transaction mix) or
        ``"hierarchy"`` (§4.4's pure depth-``hierarchy_depth`` hierarchy
        traversals over reference type ``hierarchy_type``).

        ``stream_label`` names the workload random stream: two phases
        launched with the same label replay the identical transaction
        sequence — how §4.4 measures the same usage before and after
        clustering.

        ``ocb_override`` substitutes a different OCB workload definition
        for this phase only (e.g. a churn phase of pure inserts/deletes
        between two measured phases); ``thinktime`` overrides the OCB
        think time for this phase only, and ``nusers`` the configured
        user population (multiprogramming-ramp phases).
        """
        if total_transactions < 0:
            raise ValueError("total_transactions must be >= 0")
        if workload not in ("mix", "hierarchy"):
            raise ValueError(f"unknown workload {workload!r}")
        ocb = ocb_override if ocb_override is not None else self.config.ocb
        nusers = self.config.nusers if nusers is None else nusers
        if nusers < 1:
            raise ValueError(
                f"nusers must be >= 1, got {nusers}: a closed system needs at "
                "least one user process to submit transactions"
            )
        if thinktime is not None and thinktime < 0:
            raise ValueError(f"thinktime must be >= 0, got {thinktime}")
        share = total_transactions // nusers
        remainder = total_transactions % nusers
        processes: List[Process] = []
        for user in range(nusers):
            count = share + (1 if user < remainder else 0)
            if count == 0:
                continue
            rng = RandomStream(self.sim.seed, f"{stream_label}/user-{user}")
            generator = TransactionGenerator(self.db, ocb, rng)
            processes.append(
                self.sim.process(
                    self._user_process(
                        generator,
                        count,
                        workload,
                        hierarchy_type,
                        hierarchy_depth,
                        thinktime,
                    ),
                    name=f"user-{user}/{stream_label}",
                )
            )
        return processes

    def _materialize(
        self,
        generator: TransactionGenerator,
        count: int,
        workload: str,
        hierarchy_type: int,
        hierarchy_depth: Optional[int],
    ):
        """The phase's transaction stream (shared by closed and open
        launches, so the workload dispatch can never diverge)."""
        if workload == "hierarchy":
            depth = hierarchy_depth
            if depth is None:
                depth = self.config.ocb.hiedepth
            return generator.hierarchy_only(count, hierarchy_type, depth)
        return generator.transactions(count)

    def _user_process(
        self,
        generator: TransactionGenerator,
        count: int,
        workload: str,
        hierarchy_type: int,
        hierarchy_depth: Optional[int],
        thinktime: Optional[float] = None,
    ):
        think = generator.config.thinktime if thinktime is None else thinktime
        transactions = self._materialize(
            generator, count, workload, hierarchy_type, hierarchy_depth
        )
        # THINKTIME is quoted in ms (Table 3); the closed loop holds the
        # tick-rounded duration.
        think_hold = Hold(ms_to_ticks(think)) if think > 0 else None
        # The architecture envelope is spliced inline rather than
        # delegated to ``execute_with_envelope``: every yielded command
        # bubbles through each ``yield from`` frame on the way to the
        # kernel, so one less frame on the hottest chain is measurable.
        tm = self.tm
        execute = tm.execute
        arch = tm.architecture
        begin = arch.begin_transaction_nowait
        end = arch.end_transaction_nowait
        for txn in transactions:
            self.transactions_submitted += 1
            step = begin()
            if step is not None:
                yield from step
            yield from execute(txn)
            step = end()
            if step is not None:
                yield from step
            if think_hold is not None:
                yield think_hold

    # ------------------------------------------------------------------
    # Open-system arrivals
    # ------------------------------------------------------------------
    def launch_open(
        self,
        total_transactions: int,
        arrivals: ArrivalConfig,
        workload: str = "mix",
        stream_label: str = "open",
        hierarchy_type: int = 0,
        hierarchy_depth: Optional[int] = None,
        ocb_override=None,
    ) -> List[Process]:
        """Start one arrival source feeding ``total_transactions`` in.

        The source draws interarrival gaps from the
        ``{stream_label}/arrivals`` stream and the transactions
        themselves from ``{stream_label}/source`` — both pure functions
        of the replication seed, and independent of each other, so two
        configs compared under common random numbers see the same
        arrival instants *and* the same transaction sequence.

        Each arrival is submitted by its own process; the think time
        does not apply (there is no closed submit/think loop), and
        MULTILVL admission still bounds how many transactions execute
        concurrently once submitted.
        """
        if total_transactions < 0:
            raise ValueError("total_transactions must be >= 0")
        if workload not in ("mix", "hierarchy"):
            raise ValueError(f"unknown workload {workload!r}")
        if not arrivals.open:
            raise ValueError(
                "launch_open needs an open arrival mode (poisson or mmpp); "
                "use launch() for the closed NUSERS loop"
            )
        ocb = ocb_override if ocb_override is not None else self.config.ocb
        rng = RandomStream(self.sim.seed, f"{stream_label}/source")
        generator = TransactionGenerator(self.db, ocb, rng)
        transactions = self._materialize(
            generator, total_transactions, workload, hierarchy_type, hierarchy_depth
        )
        gaps = arrivals.interarrivals(
            RandomStream(self.sim.seed, f"{stream_label}/arrivals")
        )
        return [
            self.sim.process(
                self._arrival_source(
                    transactions,
                    gaps,
                    self.tm.execute_with_envelope,
                    "txn",
                    stream_label,
                ),
                name=f"arrivals/{stream_label}",
            )
        ]

    def _arrival_source(
        self,
        transactions,
        gaps: Iterator[int],
        submit: Callable[[Transaction], Iterator],
        prefix: str,
        stream_label: str,
    ):
        """Hold each gap, then start ``submit(txn)`` as its own process."""
        for index, txn in enumerate(transactions):
            yield Hold(next(gaps))
            self.transactions_submitted += 1
            self.sim.process(submit(txn), name=f"{prefix}-{index}/{stream_label}")

    # ------------------------------------------------------------------
    # Aggregated hybrid: calibrated open stream + probe cohort
    # ------------------------------------------------------------------
    def launch_aggregated(
        self,
        total_transactions: int,
        rate_tps: float,
        aggregation: AggregationConfig,
        workload: str = "mix",
        stream_label: str = "aggregated",
        hierarchy_type: int = 0,
        hierarchy_depth: Optional[int] = None,
        ocb_override=None,
    ) -> List[Process]:
        """Start the hybrid tier: aggregate source + probe cohort.

        ``rate_tps`` is the calibrated population rate (the fixed point
        of λ = N/(Z+R), see :mod:`repro.core.aggregation`); the
        aggregate source emits Poisson arrivals at the probe-rescaled
        share of it so the cohort's own closed-loop load keeps the total
        offered rate at λ.  Poisson gaps are what justifies collapsing
        the population in the first place: a superposition of many
        independent, sparse per-user renewal processes converges to a
        Poisson stream (Palm–Khintchine).

        The phase's transactions are split so every probe user gets at
        least one (at 10⁶ users a proportional share would starve the
        cohort and leave no latency observations), the remainder riding
        the aggregate stream.  Streams: the aggregate source draws from
        ``{stream_label}/aggregate-arrivals`` and
        ``{stream_label}/aggregate-source``; probe user *u* draws from
        ``{stream_label}/probe-{u}`` — all disjoint, so the aggregate
        arrival sequence is invariant under probe-cohort resizing.

        Probe users stagger their starts uniformly over one think time
        (capped at the expected aggregate window) instead of the closed
        launch's all-at-zero herd, think Z only *between* their own
        transactions, and never hold a trailing think — so a hybrid
        phase's elapsed time tracks the aggregate window, not Z.
        """
        if total_transactions < 0:
            raise ValueError("total_transactions must be >= 0")
        if workload not in ("mix", "hierarchy"):
            raise ValueError(f"unknown workload {workload!r}")
        if not aggregation.enabled:
            raise ValueError(
                "launch_aggregated needs an enabled AggregationConfig "
                "(population > 0); use launch() for the closed NUSERS loop"
            )
        self.probe_response_ticks = []
        self.aggregate_completions = 0
        ocb = ocb_override if ocb_override is not None else self.config.ocb
        population = aggregation.population
        probe_users = min(aggregation.probe_cohort, total_transactions)
        if probe_users > 0:
            probe_total = min(
                total_transactions,
                max(
                    probe_users,
                    total_transactions * aggregation.probe_cohort // population,
                ),
            )
        else:
            probe_total = 0
        aggregate_total = total_transactions - probe_total
        aggregate_rate = probe_rescaled_rate(
            rate_tps, population, aggregation.probe_cohort
        )
        processes: List[Process] = []
        if aggregate_total > 0:
            rng = RandomStream(
                self.sim.seed, f"{stream_label}/aggregate-source"
            )
            generator = TransactionGenerator(self.db, ocb, rng)
            transactions = self._materialize(
                generator,
                aggregate_total,
                workload,
                hierarchy_type,
                hierarchy_depth,
            )
            gaps = poisson_interarrivals(
                RandomStream(
                    self.sim.seed, f"{stream_label}/aggregate-arrivals"
                ),
                aggregate_rate,
            )
            processes.append(
                self.sim.process(
                    self._arrival_source(
                        transactions,
                        gaps,
                        self._aggregate_submission,
                        "agg-txn",
                        stream_label,
                    ),
                    name=f"aggregate/{stream_label}",
                )
            )
        # Stagger probe starts over one closed-loop think time — in
        # steady state the population's cycle phases are uniform — but
        # never past the aggregate window (at 10⁶ users Z dwarfs it).
        window_ticks = (
            ms_to_ticks(aggregate_total * 1000.0 / aggregate_rate)
            if aggregate_total > 0
            else 0
        )
        think_ticks = ms_to_ticks(ocb.thinktime)
        spread_ticks = min(think_ticks, window_ticks)
        share = probe_total // probe_users if probe_users else 0
        remainder = probe_total % probe_users if probe_users else 0
        for user in range(probe_users):
            count = share + (1 if user < remainder else 0)
            if count == 0:
                continue
            rng = RandomStream(self.sim.seed, f"{stream_label}/probe-{user}")
            generator = TransactionGenerator(self.db, ocb, rng)
            processes.append(
                self.sim.process(
                    self._probe_process(
                        generator,
                        count,
                        workload,
                        hierarchy_type,
                        hierarchy_depth,
                        think_ticks,
                        spread_ticks * user // probe_users,
                    ),
                    name=f"probe-{user}/{stream_label}",
                )
            )
        return processes

    def _aggregate_submission(self, txn: Transaction):
        yield from self.tm.execute_with_envelope(txn)
        self.aggregate_completions += 1

    def _probe_process(
        self,
        generator: TransactionGenerator,
        count: int,
        workload: str,
        hierarchy_type: int,
        hierarchy_depth: Optional[int],
        think_ticks: int,
        offset_ticks: int,
    ):
        transactions = self._materialize(
            generator, count, workload, hierarchy_type, hierarchy_depth
        )
        if offset_ticks > 0:
            yield Hold(offset_ticks)
        think_hold = Hold(think_ticks) if think_ticks > 0 else None
        sim = self.sim
        first = True
        for txn in transactions:
            if not first and think_hold is not None:
                yield think_hold
            first = False
            self.transactions_submitted += 1
            started = sim.now
            yield from self.tm.execute_with_envelope(txn)
            self.probe_response_ticks.append(sim.now - started)
