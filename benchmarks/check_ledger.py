"""Call-count gate: compare a traced perfbench ledger with its pin.

``perfbench/run.py --trace 1`` already requires two profiled processes
to agree exactly on every layer's call count and on the model's
simulated counters.  This gate pins those numbers: it reads the
ledger's last line (the JSON result) and requires every metric whose
unit is ``count`` to equal the value committed for the ledger's
workload.  A change that adds or removes calls in a layer then fails
until it is re-pinned, and the review diff of the pin shows which layer
moved.

Usage (what CI's 3.11 leg runs, once per pinned workload)::

    python3 perfbench/run.py --workload cluster-quorum --trace 1 > ledger.txt
    python benchmarks/check_ledger.py ledger.txt \\
        --compare benchmarks/ledger_counts.json

The pin file maps each workload to its counts (the committed pins are
all four workloads at perfbench's default seed 1).  Re-pin
after an intended change with ``--out benchmarks/ledger_counts.json``,
which replaces only the ledger's workload entry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple


def load_ledger(path: str) -> Tuple[str, Dict[str, int]]:
    """The workload name and the ``count`` metrics of a traced ledger."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, TypeError, KeyError):
        raise ValueError(f"{path}: last line is not a perfbench result") from None
    counts = {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] == "count"
    }
    if not counts or len(lines) < 2:
        raise ValueError(f"{path}: no counts (was it run with --trace 1?)")
    # Every report line before the result starts with the workload name.
    return lines[0].split()[0], counts


def load_pins(path: str) -> Dict[str, Dict[str, int]]:
    """The committed counts, one entry per workload."""
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    if not isinstance(pins, dict) or not all(
        isinstance(counts, dict) for counts in pins.values()
    ):
        raise ValueError(f"{path}: not a map of workload -> counts")
    return pins


def compare_counts(
    workload: str, counts: Dict[str, int], pins: Dict[str, Dict[str, int]]
) -> List[str]:
    """Problems found (empty = every count matches), one per name."""
    if workload not in pins:
        return [f"workload: {workload} has no pin (pinned: {', '.join(pins)})"]
    problems = []
    pinned = pins[workload]
    for name in sorted(set(counts) | set(pinned)):
        value = counts.get(name, "<missing>")
        expected = pinned.get(name, "<missing>")
        if value != expected:
            problems.append(f"{name}: {value}, pinned {expected}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check a traced perfbench ledger's counts against a pin."
    )
    parser.add_argument("ledger", help="output of perfbench/run.py --trace 1")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--compare", metavar="FILE", help="pinned counts JSON")
    action.add_argument("--out", metavar="FILE", help="write (re-pin) the counts")
    args = parser.parse_args(argv)
    try:
        workload, counts = load_ledger(args.ledger)
        if args.out:
            pins = load_pins(args.out) if os.path.exists(args.out) else {}
            pins[workload] = counts
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(pins, handle, indent=2)
                handle.write("\n")
            print(f"pinned {len(counts)} {workload} counts to {args.out}")
            return 0
        pins = load_pins(args.compare)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = compare_counts(workload, counts, pins)
    if problems:
        print(f"FAIL: {len(problems)} count(s) differ from {args.compare}:")
        for problem in problems:
            print(f"  {problem}")
        print(f"re-pin an intended change with --out {args.compare}")
        return 1
    print(f"OK: all {len(counts)} {workload} counts match {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
