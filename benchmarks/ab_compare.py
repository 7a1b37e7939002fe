"""Interleaved A/B benchmark comparison (the PR-2 methodology, as a tool).

Runs the benchmark suite N times on each of two *sides*, strictly
alternating A, B, A, B, ... so slow load drift on a shared machine
cancels out of the ratio, then reports the per-bench mean wall seconds
of both sides, their ratio, and the suite totals.

A side is either a **git ref** (checked out into a temporary worktree;
the literal ``WORKTREE`` means the current working tree, uncommitted
changes included) or a set of **environment flags** applied to the
current tree — so the same tool answers both "is this PR faster than
main?" and "is kernel flag X faster than flag Y?"::

    # HEAD~1 vs the current working tree, 3 interleaved pairs
    python benchmarks/ab_compare.py --refs HEAD~1 WORKTREE -n 3

    # serial vs 4-way parallel executor on the current tree
    python benchmarks/ab_compare.py --envs VOODB_JOBS=1 VOODB_JOBS=4

A ref may also be the path of another checkout, used as it is.

``--perfbench W`` compares the repository benchmark instead: each run
is one ``perfbench/run.py --workload W --seed N --seconds 1`` in the
side's own tree (``--seed``, default 1, checks a claim on a seed it was
not developed on), and the side that runs first alternates from pair to
pair.  Every run goes through one symlink in the tool's temporary
directory, pointed at its side's tree, so both sides run from the same
path (perfbench's peak RSS follows the checkout path's length).  The
report gives, for every end-to-end metric in
``BENCHMARK.json``, each side's median and quartiles, how many pairs
side B won, the median ratio (above 1 when B is better) and a verdict
against the metric's bound; every run's ``correct`` and ``failed`` are
printed as it ends::

    python benchmarks/ab_compare.py --perfbench cluster-chaos \
        --refs HEAD~1 WORKTREE -n 10 --out ab_chaos.json

Per-bench timings come from the ``VOODB_BENCH_JSON`` summary the bench
conftest writes (the same shape ``check_regression.py`` reads and CI
uploads).  Benches faster than ``--min-seconds`` on both sides are
reported but excluded from the headline ratio — they are scheduler noise
on shared runners.

The JSON report (``--out``) records the raw per-run timings of every
bench so a reviewer can recompute any statistic; CI uploads it as an
artifact next to the plain bench timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Sentinel ref meaning "the current working tree, as it is on disk".
WORKTREE = "WORKTREE"

#: ``--seconds`` of one perfbench run: one second runs the minimum of
#: five processes.
PERFBENCH_SECONDS = 1


class Side:
    """One side of the comparison: a source tree plus env overrides."""

    def __init__(self, label: str, root: Path, env: Optional[dict] = None):
        self.label = label
        self.root = root
        self.env = dict(env or {})
        #: bench name -> list of wall seconds, one per run
        self.runs: Dict[str, List[float]] = {}
        self.totals: List[float] = []

    def record(self, timings: Dict[str, float]) -> None:
        for name, secs in timings.items():
            self.runs.setdefault(name, []).append(secs)
        self.totals.append(sum(timings.values()))

    def means(self) -> Dict[str, float]:
        return {
            name: sum(vals) / len(vals)
            for name, vals in self.runs.items()
            if vals
        }


def _run_suite(side: Side, bench_args: List[str], quiet: bool) -> Dict[str, float]:
    """One full bench-suite run on a side; returns per-bench seconds."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        bench_json = handle.name
    env = os.environ.copy()
    env.update(side.env)
    env["VOODB_BENCH_JSON"] = bench_json
    src = str(side.root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cmd += bench_args or ["benchmarks/"]
    try:
        proc = subprocess.run(
            cmd,
            cwd=side.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            raise SystemExit(
                f"bench run failed on side {side.label!r} "
                f"(exit {proc.returncode})"
            )
        if not quiet:
            tail = proc.stdout.decode(errors="replace").strip().splitlines()
            print(f"    {tail[-1] if tail else '(no output)'}")
        with open(bench_json, encoding="utf-8") as fh:
            payload = json.load(fh)
        return {str(k): float(v) for k, v in payload["benches"].items()}
    finally:
        try:
            os.unlink(bench_json)
        except OSError:
            pass


def _make_ref_side(ref: str, tmpdir: Path) -> Side:
    if ref == WORKTREE:
        return Side("worktree", REPO_ROOT)
    if Path(ref).is_dir():
        return Side(ref, Path(ref).resolve())
    dest = tmpdir / f"ref-{ref.replace('/', '_')}"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(dest), ref],
        cwd=REPO_ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return Side(ref, dest)


def _cleanup_ref_side(side: Side) -> None:
    if side.root != REPO_ROOT:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(side.root)],
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        shutil.rmtree(side.root, ignore_errors=True)


def _parse_env_side(spec: str) -> Side:
    env = {}
    for assignment in spec.split(","):
        key, sep, value = assignment.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad env spec {spec!r}; expected KEY=VALUE[,...]")
        env[key.strip()] = value.strip()
    return Side(spec, REPO_ROOT, env)


def geomean_ratio(a: Side, b: Side, min_seconds: float) -> Optional[float]:
    """Geometric mean of the per-bench A/B ratios above the noise floor.

    The headline number: > 1.0 means side B is faster.  A geomean (of
    ratios, not a ratio of totals) weights every bench equally, so one
    long bench cannot mask regressions — or fake speedups — in the
    others.  ``None`` when no bench clears the floor on either side.
    """
    means_a, means_b = a.means(), b.means()
    logs = []
    for name in set(means_a) & set(means_b):
        ma, mb = means_a[name], means_b[name]
        if (ma < min_seconds and mb < min_seconds) or ma <= 0 or mb <= 0:
            continue
        logs.append(math.log(ma / mb))
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))


def format_report(a: Side, b: Side, min_seconds: float) -> str:
    """Aligned per-bench table: mean A, mean B, ratio, noise marker."""
    means_a, means_b = a.means(), b.means()
    shared = sorted(set(means_a) & set(means_b))
    rows = [["bench", f"{a.label}(s)", f"{b.label}(s)", "ratio", ""]]
    gated_a = gated_b = 0.0
    for name in shared:
        ma, mb = means_a[name], means_b[name]
        noisy = ma < min_seconds and mb < min_seconds
        if not noisy:
            gated_a += ma
            gated_b += mb
        ratio = ma / mb if mb else float("inf")
        rows.append(
            [name, f"{ma:.3f}", f"{mb:.3f}", f"{ratio:.2f}x",
             "(noise floor)" if noisy else ""]
        )
    total_a = sum(means_a[n] for n in shared)
    total_b = sum(means_b[n] for n in shared)
    rows.append(["TOTAL", f"{total_a:.3f}", f"{total_b:.3f}",
                 f"{total_a / total_b:.2f}x" if total_b else "-", ""])
    if gated_b and (gated_a, gated_b) != (total_a, total_b):
        rows.append(
            ["TOTAL>floor", f"{gated_a:.3f}", f"{gated_b:.3f}",
             f"{gated_a / gated_b:.2f}x", ""]
        )
    geomean = geomean_ratio(a, b, min_seconds)
    rows.append(
        ["GEOMEAN", "-", "-",
         f"{geomean:.2f}x" if geomean is not None else "-", ""]
    )
    return _align(rows)


def _align(rows: List[List[str]]) -> str:
    """Left-align the first column, right-align the rest."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                  for i, (cell, w) in enumerate(zip(row, widths))).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Perfbench mode
# ----------------------------------------------------------------------
def _run_perfbench(side: Side, workload: str, seed: int, link: Path) -> dict:
    """One ``perfbench/run.py`` run in a side's tree: its JSON result.

    The run goes through ``link``, a symlink pointed at the side's tree
    first, so both sides run and import from one path: ``run.py`` takes
    its root from ``abspath``, which keeps the link, and perfbench's
    peak RSS follows the length of the checkout path.
    """
    env = os.environ.copy()
    env.update(side.env)
    if link.is_symlink():
        link.unlink()
    link.symlink_to(side.root, target_is_directory=True)
    cmd = [
        sys.executable, str(link / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(PERFBENCH_SECONDS),
    ]
    proc = subprocess.run(cmd, cwd=link, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"perfbench run failed on side {side.label!r} "
            f"(exit {proc.returncode})"
        )
    return json.loads(lines[-1])


def _quartiles(values: List[float]) -> List[float]:
    """``[Q1, median, Q3]``; a single value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def perfbench_summary(
    end_to_end: List[dict], runs_a: List[dict], runs_b: List[dict]
) -> List[dict]:
    """One row per ``BENCHMARK.json`` end-to-end metric.

    Runs pair up by index.  ``ratio`` is above 1 when side B is better.
    The verdict is ``unresolved`` when either side's interquartile
    range exceeds the metric's bound as a share of its median (unless
    every B run beats every A run), ``worse`` when B's median is worse
    than A's by more than the bound, and ``ok`` otherwise.
    """
    rows = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        higher = spec["better"] == "higher"
        a = [run["metrics"][name]["value"] for run in runs_a]
        b = [run["metrics"][name]["value"] for run in runs_b]
        qa, qb = _quartiles(a), _quartiles(b)
        loss = qa[1] - qb[1] if higher else qb[1] - qa[1]
        spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
        dominates = min(b) > max(a) if higher else max(b) < min(a)
        if spread > bound and not dominates:
            verdict = "unresolved"
        elif loss > bound * qa[1]:
            verdict = "worse"
        else:
            verdict = "ok"
        rows.append({
            "metric": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": bound,
            "a": qa,
            "b": qb,
            "ratio": qb[1] / qa[1] if higher else qa[1] / qb[1],
            "b_wins": sum(
                vb > va if higher else vb < va for va, vb in zip(a, b)
            ),
            "pairs": len(a),
            "gap_exceeds_a_iqr": abs(qb[1] - qa[1]) > qa[2] - qa[0],
            "verdict": verdict,
        })
    return rows


def format_perfbench(a: Side, b: Side, rows: List[dict]) -> str:
    """The per-metric table of :func:`perfbench_summary`."""

    def cell(q: List[float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}-{q[2]:.5g}]"

    table = [[
        "metric", "A median [Q1-Q3]", "B median [Q1-Q3]", "ratio",
        "B wins", "bound", "gap>IQR(A)", "verdict",
    ]]
    for row in rows:
        table.append([
            row["metric"], cell(row["a"]), cell(row["b"]),
            f"{row['ratio']:.3f}x", f"{row['b_wins']}/{row['pairs']}",
            f"{row['bound']:.0%}", "yes" if row["gap_exceeds_a_iqr"] else "no",
            row["verdict"],
        ])
    return f"A = {a.label}\nB = {b.label}\n" + _align(table)


def compare_perfbench(
    side_a: Side,
    side_b: Side,
    workload: str,
    seed: int,
    pairs: int,
    out: Optional[str],
    link: Path,
) -> int:
    """Interleave ``pairs`` perfbench runs per side, alternating which
    side goes first, each through the symlink ``link``; exit 1 if any
    run is incorrect or fails."""
    sides = (side_a, side_b)
    runs: List[List[dict]] = [[], []]
    for pair in range(pairs):
        for index in (0, 1) if pair % 2 == 0 else (1, 0):
            result = _run_perfbench(sides[index], workload, seed, link)
            runs[index].append(result)
            print(
                f"pair {pair + 1}/{pairs}: {sides[index].label}  "
                f"correct={json.dumps(result['correct'])}  "
                f"failed={result['failed']}/{result['attempted']}"
            )
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = perfbench_summary(spec["end_to_end"], *runs)
    report = format_perfbench(side_a, side_b, rows)
    every = runs[0] + runs[1]
    bad = sum(not run["correct"] or run["failed"] > 0 for run in every)
    print(f"\n{workload}, seed {seed}, {pairs} pairs")
    print(report)
    print(
        f"\ncorrect: {len(every) - bad}/{len(every)} runs; failed "
        f"replications: {sum(run['failed'] for run in every)}"
    )
    if out:
        payload = {
            "workload": workload,
            "seed": seed,
            "pairs": pairs,
            "seconds": PERFBENCH_SECONDS,
            "sides": [
                {"label": side.label, "runs": side_runs}
                for side, side_runs in zip(sides, runs)
            ],
            "summary": rows,
            "table": report,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"\nreport written to {out}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Interleaved A/B comparison of the benchmark suite."
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--refs",
        nargs=2,
        metavar=("A", "B"),
        help=f"two git refs to compare ({WORKTREE!r} = current tree)",
    )
    group.add_argument(
        "--envs",
        nargs=2,
        metavar=("A", "B"),
        help="two KEY=VALUE[,KEY=VALUE...] env flag sets on the current tree",
    )
    parser.add_argument(
        "-n", "--pairs", type=int, default=3,
        help="interleaved A/B pairs to run (default 3)",
    )
    parser.add_argument(
        "--benches",
        help="comma-separated bench names (e.g. kernel,figure6); "
             "default: the whole benchmarks/ suite",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="noise floor: benches under this on both sides are excluded "
             "from the headline ratio (default 0.05)",
    )
    parser.add_argument(
        "--fail-below", type=float, metavar="RATIO",
        help="exit 1 unless the geomean A/B speedup is >= RATIO "
             "(e.g. 1.15 to assert side B at least 1.15x faster)",
    )
    parser.add_argument(
        "--perfbench", metavar="WORKLOAD",
        help="compare perfbench/run.py on one workload instead of the "
             "bench suite (needs --refs)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="--seed of every perfbench run (default 1)",
    )
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-run chatter"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.perfbench and not args.refs:
        parser.error("--perfbench compares two trees: give --refs")

    bench_args = []
    if args.benches:
        for name in args.benches.split(","):
            bench_args.append(f"benchmarks/test_bench_{name.strip()}.py")

    tmpdir = Path(tempfile.mkdtemp(prefix="voodb-ab-"))
    ref_sides: List[Side] = []
    try:
        if args.refs:
            side_a = _make_ref_side(args.refs[0], tmpdir)
            side_b = _make_ref_side(args.refs[1], tmpdir)
            # Only the worktrees made here are removed afterwards.
            ref_sides = [s for s in (side_a, side_b) if s.root.parent == tmpdir]
        else:
            side_a = _parse_env_side(args.envs[0])
            side_b = _parse_env_side(args.envs[1])
        if args.perfbench:
            return compare_perfbench(
                side_a,
                side_b,
                args.perfbench,
                args.seed,
                args.pairs,
                args.out,
                tmpdir / "side",
            )
        for pair in range(args.pairs):
            for side in (side_a, side_b):
                if not args.quiet:
                    print(f"pair {pair + 1}/{args.pairs}: running {side.label}")
                side.record(_run_suite(side, bench_args, args.quiet))
        report = format_report(side_a, side_b, args.min_seconds)
        geomean = geomean_ratio(side_a, side_b, args.min_seconds)
        print()
        print(report)
        if args.out:
            payload = {
                "pairs": args.pairs,
                "min_seconds": args.min_seconds,
                "geomean_ratio": geomean,
                "sides": [
                    {
                        "label": side.label,
                        "env": side.env,
                        "runs": side.runs,
                        "means": side.means(),
                        "totals": side.totals,
                    }
                    for side in (side_a, side_b)
                ],
                "table": report,
            }
            Path(args.out).write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
            print(f"\nreport written to {args.out}")
        if args.fail_below is not None:
            if geomean is None:
                print(
                    f"\nFAIL: no benches above the {args.min_seconds}s noise "
                    f"floor — cannot assert the {args.fail_below:.2f}x target",
                    file=sys.stderr,
                )
                return 1
            if geomean < args.fail_below:
                print(
                    f"\nFAIL: geomean speedup {geomean:.2f}x is below the "
                    f"{args.fail_below:.2f}x target",
                    file=sys.stderr,
                )
                return 1
            print(
                f"\nOK: geomean speedup {geomean:.2f}x meets the "
                f"{args.fail_below:.2f}x target"
            )
        return 0
    finally:
        for side in ref_sides:
            _cleanup_ref_side(side)
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
