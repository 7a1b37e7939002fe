"""Unit tests for the perfbench mode of the A/B tool (``ab_compare.py``)."""

import json
import os
import subprocess
from pathlib import Path

import pytest

import ab_compare
from ab_compare import REPO_ROOT, Side, format_perfbench, perfbench_summary

SPEC = [
    {"name": "sim_txn_per_s", "unit": "txn/s", "better": "higher", "bound": 0.2},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def runs(**series):
    """Perfbench result lines, one per value of each metric series."""
    count = len(next(iter(series.values())))
    return [
        {
            "correct": True,
            "attempted": 5,
            "failed": 0,
            "metrics": {
                name: {"value": values[index], "unit": "-"}
                for name, values in series.items()
            },
        }
        for index in range(count)
    ]


def by_metric(rows):
    return {row["metric"]: row for row in rows}


def test_faster_side_b_wins_every_pair():
    a = runs(sim_txn_per_s=[800, 820, 810, 830], wall_s=[4.3, 4.2, 4.4, 4.3])
    b = runs(sim_txn_per_s=[1050, 1060, 1040, 1070], wall_s=[3.5, 3.4, 3.5, 3.6])
    rows = by_metric(perfbench_summary(SPEC, a, b))
    speed = rows["sim_txn_per_s"]
    assert speed["a"] == [807.5, 815.0, 822.5]
    assert speed["b_wins"] == 4 and speed["pairs"] == 4
    assert speed["ratio"] == pytest.approx(1055 / 815)
    assert speed["gap_exceeds_a_iqr"]
    assert speed["verdict"] == "ok"
    wall = rows["wall_s"]
    assert wall["b_wins"] == 4
    assert wall["ratio"] == pytest.approx(4.3 / 3.5)  # lower is better
    assert wall["verdict"] == "ok"


def test_worse_beyond_the_bound_and_wide_spread():
    a = runs(sim_txn_per_s=[1000, 1000, 1000], wall_s=[1.0, 1.0, 1.0])
    b = runs(sim_txn_per_s=[700, 710, 690], wall_s=[1.0, 3.0, 1.0])
    rows = by_metric(perfbench_summary(SPEC, a, b))
    assert rows["sim_txn_per_s"]["verdict"] == "worse"
    assert rows["sim_txn_per_s"]["b_wins"] == 0
    # B's interquartile range is wider than the 25% bound allows
    assert rows["wall_s"]["verdict"] == "unresolved"


def test_wide_spread_is_resolved_when_every_b_run_is_better():
    a = runs(sim_txn_per_s=[100, 200, 300], wall_s=[9.0, 9.5, 9.9])
    b = runs(sim_txn_per_s=[400, 800, 900], wall_s=[1.0, 3.0, 5.0])
    rows = by_metric(perfbench_summary(SPEC, a, b))
    assert rows["sim_txn_per_s"]["verdict"] == "ok"
    assert rows["wall_s"]["verdict"] == "ok"


def test_single_pair_is_its_own_quartiles():
    rows = perfbench_summary(
        SPEC, runs(sim_txn_per_s=[10], wall_s=[2.0]),
        runs(sim_txn_per_s=[11], wall_s=[2.0]),
    )
    table = format_perfbench(Side("base", REPO_ROOT), Side("new", REPO_ROOT), rows)
    assert "A = base" in table and "B = new" in table
    assert "11 [11-11]" in table
    assert by_metric(rows)["wall_s"]["b_wins"] == 0  # a tie is no win


def test_seed_reaches_every_run_and_the_report(monkeypatch, tmp_path):
    commands = []
    line = runs(
        setup_s=[0.3], sim_txn_per_s=[900], wall_s=[1.5], peak_rss_mb=[28]
    )[0]

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, json.dumps(line) + "\n", "")

    monkeypatch.setattr(ab_compare.subprocess, "run", fake_run)
    out = tmp_path / "ab.json"
    status = ab_compare.main([
        "--perfbench", "paper-o2", "--refs", "WORKTREE", "WORKTREE",
        "-n", "2", "--seed", "2", "--out", str(out),
    ])
    assert status == 0
    assert len(commands) == 4
    for cmd in commands:
        assert cmd[cmd.index("--seed") + 1] == "2"
    assert json.loads(out.read_text(encoding="utf-8"))["seed"] == 2


def test_both_sides_run_from_one_path(monkeypatch, tmp_path):
    # Two checkouts whose paths differ in length.
    roots = [tmp_path / "a", tmp_path / "checkout-b"]
    for root in roots:
        root.mkdir()
    line = runs(
        setup_s=[0.3], sim_txn_per_s=[900], wall_s=[1.5], peak_rss_mb=[28]
    )[0]
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs["cwd"], os.path.realpath(kwargs["cwd"])))
        return subprocess.CompletedProcess(cmd, 0, json.dumps(line) + "\n", "")

    monkeypatch.setattr(ab_compare.subprocess, "run", fake_run)
    status = ab_compare.main(
        ["--perfbench", "paper-o2", "--refs", *map(str, roots), "-n", "2"]
    )
    assert status == 0
    assert len(calls) == 4
    commands = {tuple(cmd) for cmd, __, __ in calls}
    assert len(commands) == 1
    assert len({cwd for __, cwd, __ in calls}) == 1
    script = Path(calls[0][0][1])
    assert script.parent.parent == Path(calls[0][1])
    # Pairs alternate which side runs first: A, B, then B, A.
    expected = [str(roots[index].resolve()) for index in (0, 1, 1, 0)]
    assert [real for __, __, real in calls] == expected
