"""The Users (knowledge model, Figure 4): transaction sources.

:meth:`Users.launch` starts one phase's sources, and the config's
arrival process decides which:

* closed system (the paper's Table 3 population model, the default):
  NUSERS user processes each draw transactions from their own OCB
  generator (common random numbers: user *u* of phase *p* always sees
  the same stream for a given replication seed) and submit them to the
  Transaction Manager, thinking THINKTIME between transactions;
* open system (``arrivals`` mode poisson or mmpp): one arrival source
  draws interarrival gaps from a named random stream
  (:mod:`repro.despy.arrivals`) and spawns an independent submission
  process per arrival — transactions enter at the configured rate
  whether or not earlier ones have finished, with MULTILVL still
  bounding how many execute concurrently;
* aggregated hybrid (``aggregation`` enabled): a large closed
  population collapsed into one calibrated Poisson aggregate source
  plus a small *probe cohort* of real closed-loop user processes — the
  aggregate stream carries the population's load, the probes observe
  the per-user latency the stream cannot.  Probe and aggregate draws
  live on disjoint named streams, so resizing the cohort never perturbs
  the aggregate arrival sequence.

Every source submits each transaction to
:meth:`~repro.core.transaction_manager.TransactionManager.execute`,
which also carries the architecture's transaction envelope.

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
from repro.core.parameters import VOODBConfig
from repro.core.transaction_manager import TransactionManager
from repro.ocb.database import Database
from repro.ocb.transactions import Transaction, TransactionGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class Users:
    """Starts each phase's transaction sources."""

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
        # Per-phase aggregated-tier trackers (reset by each aggregated
        # launch).
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
    ) -> List[Process]:
        """Start one phase's sources and return their processes.

        The config's arrival process names the sources: the closed
        NUSERS loop, one open arrival source, or the aggregated tier
        (the calibrated stream plus its probe cohort).

        ``workload`` is ``"mix"`` (the Table 5 transaction mix) or
        ``"hierarchy"`` (§4.4's pure depth-``hierarchy_depth`` hierarchy
        traversals over reference type ``hierarchy_type``).

        ``stream_label`` prefixes every random stream of the phase: two
        phases launched with the same label replay the identical
        transaction sequence — how §4.4 measures the same usage before
        and after clustering.

        ``ocb_override`` substitutes a different OCB workload definition,
        think time included, for this phase only (e.g. a churn phase of
        pure inserts/deletes between two measured phases).
        """
        if total_transactions < 0:
            raise ValueError("total_transactions must be >= 0")
        if workload not in ("mix", "hierarchy"):
            raise ValueError(f"unknown workload {workload!r}")
        config = self.config
        ocb = ocb_override if ocb_override is not None else config.ocb
        if hierarchy_depth is None:
            hierarchy_depth = config.ocb.hiedepth
        seed = self.sim.seed
        db = self.db

        def source(stream: str, count: int) -> Iterator[Transaction]:
            """``count`` transactions drawn from ``{stream_label}/{stream}``."""
            rng = RandomStream(seed, f"{stream_label}/{stream}")
            generator = TransactionGenerator(db, ocb, rng)
            if workload == "hierarchy":
                return generator.hierarchy_only(count, hierarchy_type, hierarchy_depth)
            return generator.transactions(count)

        if config.aggregation.enabled:
            return self._launch_aggregated(
                total_transactions, source, ocb.thinktime, stream_label
            )
        if config.arrivals.open:
            # The gaps draw from ``{stream_label}/arrivals`` and the
            # transactions from ``{stream_label}/source``, independently:
            # two configs compared under common random numbers see the
            # same arrival instants *and* the same transaction sequence.
            gaps = config.arrivals.interarrivals(
                RandomStream(seed, f"{stream_label}/arrivals")
            )
            arrivals = self._arrival_source(
                source("source", total_transactions),
                gaps,
                self.tm.execute,
                "txn",
                stream_label,
            )
            return [self.sim.process(arrivals, name=f"arrivals/{stream_label}")]
        nusers = config.nusers
        if nusers < 1:
            raise ValueError(
                f"nusers must be >= 1, got {nusers}: a closed system needs at "
                "least one user process to submit transactions"
            )
        share, remainder = divmod(total_transactions, nusers)
        processes: List[Process] = []
        for user in range(nusers):
            count = share + (1 if user < remainder else 0)
            if count == 0:
                continue
            processes.append(
                self.sim.process(
                    self._user_process(source(f"user-{user}", count), ocb.thinktime),
                    name=f"user-{user}/{stream_label}",
                )
            )
        return processes

    def _user_process(self, transactions: Iterator[Transaction], think: float):
        """One closed-loop user: submit each transaction, then think."""
        # THINKTIME is quoted in ms (Table 3); the closed loop holds the
        # tick-rounded duration.
        think_hold = Hold(ms_to_ticks(think)) if think > 0 else None
        execute = self.tm.execute
        for txn in transactions:
            self.transactions_submitted += 1
            yield from execute(txn)
            if think_hold is not None:
                yield think_hold

    def _arrival_source(
        self,
        transactions: Iterator[Transaction],
        gaps: Iterator[int],
        submit: Callable[[Transaction], Iterator],
        prefix: str,
        stream_label: str,
    ):
        """Hold each gap, then start ``submit(txn)`` as its own process.

        The think time does not apply (there is no closed submit/think
        loop), and MULTILVL admission still bounds how many transactions
        execute concurrently once submitted.
        """
        for index, txn in enumerate(transactions):
            yield Hold(next(gaps))
            self.transactions_submitted += 1
            self.sim.process(submit(txn), name=f"{prefix}-{index}/{stream_label}")

    # ------------------------------------------------------------------
    # Aggregated hybrid: calibrated open stream + probe cohort
    # ------------------------------------------------------------------
    def _launch_aggregated(
        self,
        total_transactions: int,
        source: Callable[[str, int], Iterator[Transaction]],
        thinktime: float,
        stream_label: str,
    ) -> List[Process]:
        """Start the hybrid tier: aggregate source + probe cohort.

        The calibrated population rate λ is the fixed point of
        λ = N/(Z+R) (:func:`~repro.core.aggregation.calibrate_aggregate_rate`,
        memoized per config); the aggregate source emits Poisson
        arrivals at the probe-rescaled share of it so the cohort's own
        closed-loop load keeps the total offered rate at λ.  Poisson
        gaps are what justifies collapsing the population in the first
        place: a superposition of many independent, sparse per-user
        renewal processes converges to a Poisson stream
        (Palm–Khintchine).

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
        from repro.core.aggregation import calibrate_aggregate_rate

        aggregation = self.config.aggregation
        rate_tps = calibrate_aggregate_rate(self.config).rate_tps
        self.probe_response_ticks = []
        self.aggregate_completions = 0
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
            gaps = poisson_interarrivals(
                RandomStream(self.sim.seed, f"{stream_label}/aggregate-arrivals"),
                aggregate_rate,
            )
            aggregate = self._arrival_source(
                source("aggregate-source", aggregate_total),
                gaps,
                self._aggregate_submission,
                "agg-txn",
                stream_label,
            )
            processes.append(
                self.sim.process(aggregate, name=f"aggregate/{stream_label}")
            )
        # Stagger probe starts over one closed-loop think time — in
        # steady state the population's cycle phases are uniform — but
        # never past the aggregate window (at 10⁶ users Z dwarfs it).
        window_ticks = (
            ms_to_ticks(aggregate_total * 1000.0 / aggregate_rate)
            if aggregate_total > 0
            else 0
        )
        think_ticks = ms_to_ticks(thinktime)
        spread_ticks = min(think_ticks, window_ticks)
        share = probe_total // probe_users if probe_users else 0
        remainder = probe_total % probe_users if probe_users else 0
        for user in range(probe_users):
            count = share + (1 if user < remainder else 0)
            if count == 0:
                continue
            processes.append(
                self.sim.process(
                    self._probe_process(
                        source(f"probe-{user}", count),
                        think_ticks,
                        spread_ticks * user // probe_users,
                    ),
                    name=f"probe-{user}/{stream_label}",
                )
            )
        return processes

    def _aggregate_submission(self, txn: Transaction):
        yield from self.tm.execute(txn)
        self.aggregate_completions += 1

    def _probe_process(
        self,
        transactions: Iterator[Transaction],
        think_ticks: int,
        offset_ticks: int,
    ):
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
            yield from self.tm.execute(txn)
            self.probe_response_ticks.append(sim.now - started)
