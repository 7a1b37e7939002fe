"""The repository benchmark: four simulator workloads, host-side metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-o2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cluster-chaos --trace 1
    python3 perfbench/run.py --pin --seed 1     # re-pin replication digests

Each measurement is one fresh interpreter (``workload.py``) that imports
the CLI, builds the OCB bases, simulates the workload at its stated size
and prints its report, which is what a CLI user waits for.  Untraced
runs (``--trace 0``) start such processes one after another until
``--seconds`` have passed (at least five) and report the end-to-end
metrics named in ``BENCHMARK.json`` (see :func:`end_to_end`).  Traced runs
(``--trace 1``) report the per-layer ledger instead, from a fixed set
of processes whatever ``--seconds`` says: the ``-X importtime`` split
of start-up, spans the benchmark times around its calls into the
package, and cProfile self time and call counts per layer (see
``layers.py``) from two profiled processes whose call counts and
simulated counters must agree exactly.

Every replication is checked: its simulated metrics must hash to the
digest pinned in ``pins.json`` for that workload and seed, and on a
seed without pins it must still finish and report its protocol's
metrics, all finite.  A replication that raises or fails the check
counts in ``failed``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import PROFILED_LAYERS, parse_importtime, startup_split
from workload import CALIBRATION_REF_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Untraced processes per run, whatever ``--seconds`` allows.
MIN_PROCESSES = 5
CHILD_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked."""


def child_env() -> Dict[str, str]:
    """The environment of every measured process.

    Only this checkout's ``src`` is importable, ``VOODB_*`` knobs are
    dropped so no run picks up a worker pool, a replication cache or
    another kernel, and the hash seed is fixed so profiled call counts
    repeat exactly.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("VOODB_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def python(args: List[str], cpu: Optional[int] = None) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args``, on one CPU when ``cpu`` is given."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )


def run_workload(
    name: str, seed: int, profile: bool = False, cpu: Optional[int] = None
) -> dict:
    """One fresh process running one workload; its JSON outcome."""
    args = [os.path.join(HERE, "workload.py"), name, "--seed", str(seed)]
    args += ["--profile"] if profile else []
    t0 = time.monotonic()
    done = python(args + ["--t0", repr(t0)], cpu)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"crashed": True}
    return json.loads(lines[-1])


def import_times() -> Dict[str, float]:
    """``-X importtime`` of ``import repro.__main__`` in a fresh interpreter."""
    done = python(["-X", "importtime", "-c", "import repro.__main__"])
    if done.returncode != 0:
        raise BenchmarkError(done.stderr)
    return startup_split(parse_importtime(done.stderr.splitlines()))


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def count_failures(outcome: dict, pins: dict, planned: int) -> int:
    """Failed replications of one process: raised, unchecked or wrong."""
    if outcome.get("crashed"):
        return planned
    replications = outcome["replications"]
    pinned = pins.get(outcome["workload"], {}).get(str(outcome["seed"]))
    failed = planned - len(replications)
    for index, replication in enumerate(replications):
        if pinned is not None:
            ok = index < len(pinned) and replication["digest"] == pinned[index]
        else:
            ok = replication["ok"]
        failed += not ok
    if "error" in outcome:
        sys.stderr.write(f"replication raised: {outcome['error']}\n")
    return failed


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def untraced_runs(name: str, seed: int, seconds: float) -> List[dict]:
    """Processes one after another for ``seconds``, each pinned to a CPU.

    Pinning keeps a measurement and its calibration reading on the
    same CPU; on a virtual machine each CPU has slow spells of its own.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    outcomes: List[dict] = []
    while len(outcomes) < MIN_PROCESSES or time.monotonic() - start < seconds:
        outcomes.append(run_workload(name, seed, cpu=cpus[len(outcomes) % len(cpus)]))
    return outcomes


def end_to_end(name: str, outcomes: List[dict]) -> Dict[str, float]:
    """The run's end-to-end metrics: medians over its processes.

    Host times are in reference-host seconds (see
    ``workload.calibration_s``): each replication's time is scaled by
    the calibration read just before it, and set-up and wall time by
    the median of the process's readings.  The simulation phase is the
    sum over replications of each one's median time in the run.
    """
    finished = [o for o in outcomes if len(o.get("job_s", ())) == WORKLOADS[name].planned]
    if not finished:
        raise BenchmarkError("no measured process finished its replications")

    def reference_s(seconds: float, calibration: float) -> float:
        return seconds * CALIBRATION_REF_S / calibration

    jobs = zip(*(map(reference_s, o["job_s"], o["job_calibration_s"]) for o in finished))
    sim_s = sum(statistics.median(times) for times in jobs)
    speeds = [statistics.median(o["calibration_s"]) for o in finished]
    return {
        "setup_s": statistics.median(map(reference_s, (o["setup_s"] for o in finished), speeds)),
        "sim_txn_per_s": WORKLOADS[name].transactions / sim_s,
        "wall_s": statistics.median(map(reference_s, (o["wall_s"] for o in finished), speeds)),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in finished),
    }


def deterministic_part(outcome: dict) -> dict:
    """What two profiled runs at one seed must repeat exactly."""
    calls = {layer: bucket["calls"] for layer, bucket in outcome["layers"].items()}
    return {"calls": calls, "counters": outcome["counters"]}


def per_layer(name: str, seed: int) -> tuple:
    """The traced ledger of one workload, and its processes' outcomes."""
    startup = import_times()
    plain = [run_workload(name, seed)]
    traced = [run_workload(name, seed, profile=True) for _ in range(2)]
    if any(o.get("crashed") for o in plain + traced):
        raise BenchmarkError("a traced or untraced process failed")
    first, second = (deterministic_part(o) for o in traced)
    repeatable = first == second
    if not repeatable:
        sys.stderr.write(
            "determinism check failed: two traced runs at seed "
            f"{seed} differ\n{json.dumps(first)}\n{json.dumps(second)}\n"
        )
    counters = first["counters"]
    accesses = counters["core.buffer_hits"] + counters["core.buffer_misses"]
    metrics = {
        "startup.import_s": startup["import_s"],
        "startup.import_scipy_s": startup["import_scipy_s"],
        "ocb.db_gen_s": plain[0]["db_gen_s"],
        "core.buffer_hit_ratio": counters["core.buffer_hits"] / accesses,
        "report.format_s": plain[0]["format_s"],
        "trace.overhead_s": statistics.median(o["wall_s"] for o in traced)
        - plain[0]["wall_s"],
        "table8_gain_err_pct": plain[0]["table8_gain_err_pct"],
    }
    for layer in PROFILED_LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            o["layers"][layer]["self_s"] for o in traced
        )
        metrics[f"{layer}.calls"] = first["calls"][layer]
    for counter, value in counters.items():
        if counter not in ("core.buffer_hits", "core.buffer_misses"):
            metrics[counter] = value
    return metrics, plain + traced, repeatable


def result_line(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    pins = load_pins()
    repeatable = True
    if trace:
        metrics, outcomes, repeatable = per_layer(name, seed)
    else:
        outcomes = untraced_runs(name, seed, seconds)
        metrics = end_to_end(name, outcomes)
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    planned = WORKLOADS[name].planned
    failed = sum(count_failures(o, pins, planned) for o in outcomes)
    for metric in units:
        print(f"{name}  {metric:>36} = {metrics[metric]:.6g} {units[metric]}")
    print(f"{name}  {len(outcomes)} processes, {planned * len(outcomes)} replications")
    return {
        "correct": failed == 0 and repeatable,
        "attempted": planned * len(outcomes),
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def pin(seed: int) -> None:
    """Record the replication digests of every workload at ``seed``."""
    pins = load_pins() if os.path.exists(PINS) else {}
    for name in WORKLOADS:
        outcome = run_workload(name, seed)
        if outcome.get("crashed") or len(outcome["replications"]) != WORKLOADS[name].planned:
            raise BenchmarkError(f"{name} failed at seed {seed}")
        if not all(r["ok"] for r in outcome["replications"]):
            raise BenchmarkError(f"{name} breaks its invariants at seed {seed}")
        pins.setdefault(name, {})[str(seed)] = [
            r["digest"] for r in outcome["replications"]
        ]
        print(f"pinned {name} seed {seed}")
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="VOODB repository benchmark.")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="re-pin every workload's digests at --seed"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"error: no VOODB sources under {SRC}", file=sys.stderr)
        return 2
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    try:
        # Untimed: compiles bytecode and warms the file cache, which a
        # returning CLI user has too.
        python(["-c", "import repro.__main__"]).check_returncode()
        if args.pin:
            pin(args.seed)
            return 0
        result = result_line(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
