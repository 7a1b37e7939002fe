"""The layer map covers the package, and the start-up log parses."""

import os

import pytest

from layers import LAYER_PATTERNS, layer_matches, package_modules, parse_importtime, startup_split

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_module_is_in_exactly_one_layer():
    modules = package_modules(SRC)
    assert "repro.core.cluster" in modules
    unmapped = [m for m in modules if not layer_matches(m)]
    doubled = {
        m: layer_matches(m)
        for m in modules
        if len({layer for layer, _ in layer_matches(m)}) > 1
    }
    assert unmapped == [], f"modules missing from LAYER_PATTERNS: {unmapped}"
    assert doubled == {}, f"modules in two layers: {doubled}"


def test_every_pattern_names_a_module_or_package():
    modules = set(package_modules(SRC))
    for layer, patterns in LAYER_PATTERNS.items():
        for pattern in patterns:
            assert pattern.removesuffix(".*") in modules, (layer, pattern)


def test_specific_patterns_win_over_packages():
    assert layer_matches("repro.despy.stats") == [("report", "repro.despy.stats")]
    assert layer_matches("repro.despy.engine") == [("despy.kernel", "repro.despy.*")]
    assert layer_matches("repro.core.cluster") == [("core.cluster", "repro.core.cluster")]
    assert layer_matches("json") == []


IMPORTTIME_LOG = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | site
import time:      3000 |       3000 |         numpy
import time:      2000 |       5000 |       scipy
import time:       500 |        500 |       scipy.stats._warnings
import time:      1000 |       6500 |     scipy.stats
import time:       400 |       6900 |   repro.despy.stats
import time:       300 |       7200 | repro
import time:       800 |        800 | repro.__main__
"""


def test_startup_split_counts_outermost_imports_only():
    entries = parse_importtime(IMPORTTIME_LOG.splitlines())
    assert entries[1] == (4, "numpy", 0.003, 0.003)
    split = startup_split(entries)
    assert split["import_s"] == pytest.approx(0.008)
    assert split["import_scipy_s"] == pytest.approx(0.0065)
