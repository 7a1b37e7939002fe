"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

SRC = Path(__file__).resolve().parents[2] / "src"


class TestStartup:
    def test_cli_import_loads_no_scipy_or_numpy(self):
        """Importing the CLI loads nothing a default run may not need.

        scipy or numpy would add ~1 s to every run.  ``yaml`` is for
        parsing scenario files, which happens on a scenario's first
        lookup, and ``multiprocessing``/``concurrent`` are for the
        process pool, which only a parallel executor starts.
        """
        unused = ("scipy", "numpy", "yaml", "multiprocessing", "concurrent")
        probe = (
            "import sys, repro.__main__; "
            f"print(sorted(m for m in sys.modules if m.startswith({unused!r})))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_valid_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])

    def test_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.replications is None
        assert args.hotn is None  # -> 1000 for figures, unscaled scenarios
        assert args.output is None

    def test_replications_flag(self):
        args = build_parser().parse_args(["-r", "7", "tables"])
        assert args.replications == 7


class TestExecution:
    def test_single_figure_prints_report(self, capsys):
        assert main(["-r", "1", "--hotn", "50", "figure", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "paper bench" in out

    def test_tables_print_all_three(self, capsys):
        assert main(["-r", "1", "tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out
        assert "Table 7" in out
        assert "Table 8" in out

    def test_output_file_appended(self, tmp_path, capsys):
        sink = tmp_path / "report.txt"
        main(["-r", "1", "--hotn", "50", "-o", str(sink), "figure", "9"])
        capsys.readouterr()
        content = sink.read_text()
        assert "Figure 9" in content
