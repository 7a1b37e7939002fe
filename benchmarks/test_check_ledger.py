"""Unit tests for the traced-ledger call-count gate (check_ledger.py)."""

import json

from check_ledger import main


def ledger(
    tmp_path, calls=1000, stale=28, name="ledger.txt", workload="cluster-quorum"
):
    """A ``perfbench/run.py --trace 1`` output with two counts."""
    units = {
        "despy.kernel.calls": ("count", calls),
        "core.cluster.stale_reads": ("count", stale),
        "core.self_s": ("s", 2.5),
    }
    lines = [
        f"{workload}  {metric:>36} = {value} {unit}"
        for metric, (unit, value) in units.items()
    ]
    result = {
        "correct": True,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (unit, value) in units.items()
        },
    }
    path = tmp_path / name
    path.write_text("\n".join(lines + [json.dumps(result)]) + "\n", encoding="utf-8")
    return str(path)


def pin(tmp_path, capsys, **counts):
    path = str(tmp_path / "pin.json")
    assert main([ledger(tmp_path, **counts), "--out", path]) == 0
    capsys.readouterr()
    return path


class TestCheckLedger:
    def test_matching_counts_pass(self, tmp_path, capsys):
        path = pin(tmp_path, capsys)
        assert main([ledger(tmp_path), "--compare", path]) == 0
        assert "OK: all 2 cluster-quorum counts match" in capsys.readouterr().out

    def test_mismatch_is_reported_by_name(self, tmp_path, capsys):
        path = pin(tmp_path, capsys)
        assert main([ledger(tmp_path, stale=29), "--compare", path]) == 1
        out = capsys.readouterr().out
        assert "core.cluster.stale_reads: 29, pinned 28" in out
        assert "despy.kernel.calls" not in out
        assert "core.self_s" not in out

    def test_repin_accepts_the_new_counts(self, tmp_path, capsys):
        path = pin(tmp_path, capsys)
        changed = ledger(tmp_path, calls=990, name="changed.txt")
        assert main([changed, "--compare", path]) == 1
        assert main([changed, "--out", path]) == 0
        assert main([changed, "--compare", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == {
                "cluster-quorum": {
                    "despy.kernel.calls": 990,
                    "core.cluster.stale_reads": 28,
                },
            }

    def test_each_workload_is_checked_against_its_own_entry(self, tmp_path, capsys):
        path = pin(tmp_path, capsys)
        other = ledger(tmp_path, calls=500, name="o2.txt", workload="paper-o2")
        assert main([other, "--compare", path]) == 1
        assert "paper-o2 has no pin (pinned: cluster-quorum)" in capsys.readouterr().out
        assert main([other, "--out", path]) == 0
        assert main([other, "--compare", path]) == 0
        assert "OK: all 2 paper-o2 counts match" in capsys.readouterr().out
        # Re-pinning one workload leaves the other's entry as it was.
        assert main([ledger(tmp_path, calls=990), "--out", path]) == 0
        with open(path, encoding="utf-8") as handle:
            pins = json.load(handle)
        assert list(pins) == ["cluster-quorum", "paper-o2"]
        assert pins["cluster-quorum"]["despy.kernel.calls"] == 990
        assert pins["paper-o2"]["despy.kernel.calls"] == 500
        assert main([other, "--compare", path]) == 0

    def test_repin_prints_each_moved_count(self, tmp_path, capsys):
        path = pin(tmp_path, capsys)
        changed = ledger(tmp_path, calls=990, name="changed.txt")
        assert main([changed, "--out", path]) == 0
        out = capsys.readouterr().out
        assert "  despy.kernel.calls: 1000 -> 990\n" in out
        assert "stale_reads" not in out
        assert "(1 moved)" in out

    def test_repin_of_a_moved_counter_writes_nothing(self, tmp_path, capsys):
        path = pin(tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            before = handle.read()
        changed = ledger(tmp_path, calls=990, stale=29, name="changed.txt")
        assert main([changed, "--out", path]) == 1
        out = capsys.readouterr().out
        assert "  core.cluster.stale_reads: 28 -> 29\n" in out
        assert "  despy.kernel.calls: 1000 -> 990\n" in out
        assert "FAIL: 1 count(s) other than calls moved" in out
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == before

    def test_a_new_workload_entry_moves_nothing(self, tmp_path, capsys):
        # So an intended change of the simulation re-pins a workload by
        # deleting its entry first.
        path = pin(tmp_path, capsys)
        other = ledger(tmp_path, stale=3, name="o2.txt", workload="paper-o2")
        assert main([other, "--out", path]) == 0
        assert "pinned 2 paper-o2 counts" in capsys.readouterr().out

    def test_untraced_output_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "plain.txt"
        path.write_text('{"correct": true}\n', encoding="utf-8")
        assert main([str(path), "--compare", str(tmp_path / "pin.json")]) == 2
        assert "error:" in capsys.readouterr().err
