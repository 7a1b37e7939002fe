"""One benchmark workload, run once in this (fresh) interpreter.

Usage::

    PYTHONPATH=src python perfbench/workload.py NAME --seed N --t0 T [--profile]

``T`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so ``setup_s`` and ``wall_s`` count interpreter
start-up too.  The workload's report goes to stdout, followed by one
JSON line: host timings, the calibration readings taken beside them
(see :func:`calibration_s`), the digest and invariant verdict of every
replication, and with ``--profile`` the cProfile layer buckets and the
simulated counters of every model the run built.

The replications always run on a serial executor without a replication
cache, whatever ``VOODB_JOBS`` and ``VOODB_CACHE_DIR`` say, so the
timings measure simulation and nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from typing import Dict, List, Optional


class Workload:
    """A fixed input size; the seed only moves the replication seeds."""

    def __init__(self, replications: int, points: int, transactions: int) -> None:
        self.replications = replications
        self.points = points
        self.transactions_per_replication = transactions

    @property
    def planned(self) -> int:
        """Replications per run: one operation each."""
        return self.replications * self.points

    @property
    def transactions(self) -> int:
        """Simulated transactions per run (the stated input size)."""
        return self.planned * self.transactions_per_replication

    def gain_error_pct(self, result) -> float:
        """Error against Table 8; zero where the workload runs no DSTC."""
        return 0.0


class ScenarioWorkload(Workload):
    """A library scenario lengthened with ``Scenario.scaled``."""

    def __init__(self, scenario: str, hotn: int, replications: int, points: int):
        super().__init__(replications, points, hotn)
        self.scenario_name = scenario
        self.hotn = hotn

    def prepare(self):
        from repro.core.model import build_database
        from repro.scenarios import get_scenario

        scenario = get_scenario(self.scenario_name).scaled(self.hotn)
        if len(scenario.points) != self.points:
            raise ValueError(f"{self.scenario_name} has {len(scenario.points)} points")
        if any(config.ocb.coldn for _, config in scenario.points):
            raise ValueError(f"{self.scenario_name} has a warm-up phase")
        db_start = time.perf_counter()
        for _, config in scenario.points:
            build_database(config.ocb)
        return scenario, time.perf_counter() - db_start

    def simulate(self, scenario, executor, base_seed: int):
        from repro.scenarios import run_scenario

        return run_scenario(
            scenario,
            executor=executor,
            replications=self.replications,
            base_seed=base_seed,
        )

    def format(self, scenario, result) -> str:
        from repro.experiments.report import format_scenario

        return format_scenario(scenario, result)

    def invariant(self, scenario, metrics: Dict[str, float]) -> bool:
        """What holds on every seed: all transactions ran, metrics reported."""
        expected = set(scenario.metrics) | {"transactions", "total_ios"}
        return expected <= set(metrics) and metrics["transactions"] == self.hotn


class DSTCWorkload(Workload):
    """The §4.4 DSTC protocol at 8 MB (Table 8), lengthened by replications.

    Each replication runs the paper's 1 000 traversals before and 1 000
    after the demanded reorganisation.
    """

    TRAVERSALS = 1000

    def __init__(self, memory_mb: float, replications: int):
        super().__init__(replications, 1, 2 * self.TRAVERSALS)
        self.memory_mb = memory_mb

    def prepare(self):
        from repro.core.model import build_database
        from repro.systems.dstc_experiment import texas_dstc_config

        config = texas_dstc_config(memory_mb=self.memory_mb)
        if config.ocb.hotn != self.TRAVERSALS:
            raise ValueError(f"DSTC protocol runs {config.ocb.hotn} traversals")
        db_start = time.perf_counter()
        build_database(config.ocb)
        return config, time.perf_counter() - db_start

    def simulate(self, config, executor, base_seed: int):
        from repro.experiments.tables import run_dstc_experiment

        return run_dstc_experiment(
            self.memory_mb,
            replications=self.replications,
            base_seed=base_seed,
            executor=executor,
        )

    def format(self, config, result) -> str:
        from repro.experiments.report import format_dstc_table

        return format_dstc_table(result)

    def invariant(self, config, metrics: Dict[str, float]) -> bool:
        expected = {
            "pre_clustering_ios",
            "clustering_overhead_ios",
            "post_clustering_ios",
            "gain",
            "clusters",
            "objects_per_cluster",
        }
        return (
            set(metrics) == expected
            and metrics["pre_clustering_ios"] > 0
            and metrics["post_clustering_ios"] > 0
        )

    def gain_error_pct(self, result) -> float:
        """Relative error of the mean simulated gain against Table 8's bench."""
        bench = result.reference.gain_bench
        return 100.0 * abs(result.gain.mean - bench) / bench


#: Each process simulates for one to four host seconds, so that a run
#: holds several processes and a slow spell of the host spoils few.
WORKLOADS: Dict[str, Workload] = {
    "paper-o2": ScenarioWorkload("paper-baseline", hotn=5_000, replications=4, points=1),
    "texas-dstc": DSTCWorkload(memory_mb=8.0, replications=8),
    "cluster-quorum": ScenarioWorkload(
        "stale-read-audit", hotn=400, replications=2, points=3
    ),
    # Partitions arrive at random, so the work per transaction varies
    # from seed to seed; four replications average it out.
    "cluster-chaos": ScenarioWorkload(
        "partition-storm", hotn=400, replications=4, points=2
    ),
}


#: Seconds :func:`calibration_s` reads on an idle reference host (a
#: 2-vCPU Intel Xeon KVM guest running CPython 3.11).
CALIBRATION_REF_S = 1.4e-3


def calibration_s() -> float:
    """Host time of a fixed pure-Python loop, best of three.

    A shared host has spells, often longer than a benchmark run, in
    which all code runs 30-40% slower.  The benchmark reads this loop
    next to each measurement and divides the measurement by the loop's
    slowdown against :data:`CALIBRATION_REF_S`, which turns host seconds
    into reference-host seconds.  The loop touches no repository code,
    so no change to the package can move it.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


#: Replication ``r`` of a run at ``--seed s`` uses seed ``s * SEED_STRIDE
#: + r``, so runs at two seeds share no replication.
SEED_STRIDE = 1000


def metrics_digest(metrics: Dict[str, float]) -> str:
    """Canonical hash of one replication's simulated metrics.

    Floats are written with ``float.hex`` over sorted metric names, so
    the digest changes with the last bit of any simulated statistic.
    """
    canonical = ";".join(
        f"{name}={float(metrics[name]).hex()}" for name in sorted(metrics)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ModelCounters:
    """Simulated counters read off every model a traced run builds."""

    def __init__(self) -> None:
        self.models: List[object] = []
        self.totals: Dict[str, float] = {}

    def install(self) -> None:
        from repro.core.model import VOODBSimulation

        original = VOODBSimulation.__init__
        models = self.models

        def recording_init(model, *args, **kwargs):
            original(model, *args, **kwargs)
            models.append(model)

        VOODBSimulation.__init__ = recording_init

    def collect(self) -> None:
        """Add the counters of the models built since the last call."""
        for model in self.models:
            for name, value in self._read(model).items():
                self.totals[name] = self.totals.get(name, 0) + value
        self.models.clear()

    @staticmethod
    def _read(model) -> Dict[str, float]:
        sim, report = model.sim, model.clustering.report
        counters = {
            "clustering.clusters": report.clusters,
            "clustering.overhead_ios": report.overhead_reads + report.overhead_writes,
            "despy.kernel.wheel_pushed": sim.events_wheel_pushed,
            "despy.kernel.pooled_reused": sim.events_pooled_reused,
            "despy.kernel.holds_warped": sim.events_holds_warped,
            "core.total_ios": model.io.total_ios,
            "core.lock_waits": model.locks.waits,
            "core.buffer_hits": model.memory.hits,
            "core.buffer_misses": model.memory.misses,
        }
        cluster = model.cluster
        for name in (
            "stale_reads",
            "remote_timeouts",
            "remote_retries",
            "abandoned_reads",
            "repair_pages",
            "read_repairs",
        ):
            counters[f"core.cluster.{name}"] = getattr(cluster, name, 0)
        counters["core.cluster.interconnect_messages"] = (
            cluster.interconnect.messages if cluster is not None else 0
        )
        return counters


def recording_executor(counters: Optional[ModelCounters]):
    """A serial, cache-less executor that times and keeps every replication.

    Untraced, it reads :func:`calibration_s` before each replication;
    traced, it does not, so the loop stays out of the profile.  The
    class is built here, not at module level, because ``run.py``
    imports this module without the package on its path.
    """
    from repro.experiments.executor import SerialExecutor

    class RecordingExecutor(SerialExecutor):
        def __init__(self) -> None:
            super().__init__(cache=None)
            self.metrics: List[Dict[str, float]] = []
            self.seconds: List[float] = []
            self.calibrations: List[float] = []
            self.error: Optional[str] = None

        def _execute(self, indexed_jobs):
            for index, job in indexed_jobs:
                if counters is None:
                    self.calibrations.append(calibration_s())
                start = time.perf_counter()
                try:
                    metrics = job.execute()
                except Exception as exc:
                    self.error = f"{type(exc).__name__}: {exc}"
                    raise
                finally:
                    if counters is not None:
                        counters.collect()
                self.seconds.append(time.perf_counter() - start)
                self.metrics.append(metrics)
                yield index, metrics

    return RecordingExecutor()


def run(name: str, seed: int, t0: float, profile: bool) -> dict:
    workload = WORKLOADS[name]
    calibrations = [calibration_s()]
    import repro.__main__  # noqa: F401  (the CLI's import cost is set-up)

    subject, db_gen_s = workload.prepare()
    setup_s = time.monotonic() - t0
    calibrations.append(calibration_s())

    counters = ModelCounters() if profile else None
    executor = recording_executor(counters)
    profiler = None
    if counters is not None:
        import cProfile

        counters.install()
        profiler = cProfile.Profile()
        profiler.enable()
    outcome: dict = {}
    try:
        result = workload.simulate(subject, executor, seed * SEED_STRIDE)
        format_start = time.perf_counter()
        report = workload.format(subject, result)
        outcome["format_s"] = time.perf_counter() - format_start
    except Exception as exc:  # a failed replication is a counted failure
        outcome["error"] = executor.error or f"{type(exc).__name__}: {exc}"
        report = None
    if profiler is not None:
        profiler.disable()
    if report is not None:
        print(report, flush=True)
        outcome["table8_gain_err_pct"] = workload.gain_error_pct(result)
    wall_s = time.monotonic() - t0
    calibrations.append(calibration_s())

    outcome.update(
        workload=name,
        seed=seed,
        setup_s=setup_s,
        db_gen_s=db_gen_s,
        job_s=executor.seconds,
        job_calibration_s=executor.calibrations,
        calibration_s=calibrations + executor.calibrations,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        replications=[
            {
                "digest": metrics_digest(metrics),
                "ok": workload.invariant(subject, metrics)
                and all(math.isfinite(v) for v in metrics.values()),
            }
            for metrics in executor.metrics
        ],
    )
    if profiler is not None:
        import pstats

        from layers import profile_buckets

        src_root = os.path.dirname(os.path.dirname(repro.__main__.__file__))
        outcome["layers"] = profile_buckets(pstats.Stats(profiler).stats, src_root)
        outcome["counters"] = counters.totals
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    outcome = run(args.workload, args.seed, args.t0, args.profile)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
