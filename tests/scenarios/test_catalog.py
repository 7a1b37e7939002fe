"""Round-trip tests for the scenario catalog.

Every registry entry must compile to an experiment-engine spec, run a
short replication deterministically, and render through the report
layer — the guarantees behind the committed ``results/scenario_*.txt``
goldens.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.parameters import VOODBConfig
from repro.experiments.executor import SerialExecutor
from repro.experiments.report import (
    format_scenario,
    format_scenario_description,
    format_scenario_list,
    scenario_to_json,
)
from repro.experiments.specs import SweepSpec
from repro.scenarios import (
    Scenario,
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)

ALL = all_scenarios()
SRC = Path(__file__).resolve().parents[2] / "src"


def small(scenario: Scenario) -> Scenario:
    """A fast variant for round-trips: few transactions, one point set."""
    return scenario.scaled(hotn=20)


class TestRegistry:
    def test_catalog_has_twenty_six_scenarios(self):
        assert len(ALL) == 26

    def test_names_are_unique_and_kebab_case(self):
        names = scenario_names()
        assert len(set(names)) == len(names)
        for name in names:
            assert name == name.lower()
            assert " " not in name

    def test_get_scenario_round_trips(self):
        for scenario in ALL:
            assert get_scenario(scenario.name) is scenario

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(UnknownScenarioError, match="paper-baseline"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(ALL[0])

    def test_expected_catalog_entries(self):
        assert set(scenario_names()) == {
            "paper-baseline",
            "open-poisson",
            "open-bursty",
            "read-heavy",
            "write-heavy",
            "hot-key-skew",
            "multiprogramming-ramp",
            "failure-storm",
            "cold-cache",
            "warm-cache",
            "cluster-scale-out",
            "cluster-hot-shard",
            "cluster-replicated-read",
            "cluster-object-server",
            "replica-lag-storm",
            "failover-under-load",
            "stale-read-audit",
            "ocb-oo1-lookup",
            "ocb-oo7-traversal",
            "ocb-hypermodel-closure",
            "scale-10k",
            "scale-100k",
            "scale-1m",
            "partition-storm",
            "gray-failure-drag",
            "anti-entropy-catchup",
        }


class TestLazyRegistry:
    """The built-ins are registered by name and parsed on first lookup.

    Checked in a fresh interpreter: in this one, ``ALL`` has loaded
    every file already.
    """

    PROBE = """
import json, sys
from repro.core.parameters import VOODBConfig
from repro.scenarios import (
    Scenario, all_scenarios, get_scenario, load_scenario_file,
    register_scenario, scenario_names,
)
from repro.scenarios.builtin import LIBRARY_DIR, MANIFEST

seen = {"names": list(scenario_names()), "yaml_after_names": "yaml" in sys.modules}
try:
    register_scenario(
        Scenario(name="open-poisson", title="t", description="d",
                 points=(("x", VOODBConfig()),))
    )
except ValueError as exc:
    seen["register_error"] = str(exc)
seen["yaml_after_register"] = "yaml" in sys.modules
first = get_scenario("paper-baseline")
seen["lookup_cached"] = get_scenario("paper-baseline") is first
loaded = all_scenarios()
seen["all_keeps_loaded"] = loaded[0] is first
seen["all_equals_files"] = loaded == tuple(
    load_scenario_file(LIBRARY_DIR / f"{name}.yaml") for name in MANIFEST
)
print(json.dumps(seen))
"""

    def test_fresh_process_parses_on_first_lookup(self):
        from repro.scenarios.builtin import MANIFEST

        done = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "names": list(MANIFEST),
            "yaml_after_names": False,
            "register_error": "scenario 'open-poisson' is already registered",
            "yaml_after_register": False,
            "lookup_cached": True,
            "all_keeps_loaded": True,
            "all_equals_files": True,
        }


class TestValidation:
    def test_rejects_bad_name(self):
        with pytest.raises(ValueError, match="kebab-case"):
            Scenario(
                name="Bad Name",
                title="t",
                description="d",
                points=(("x", VOODBConfig()),),
            )

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError, match="points"):
            Scenario(name="empty", title="t", description="d", points=())

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError, match="replications"):
            Scenario(
                name="zero-reps",
                title="t",
                description="d",
                points=(("x", VOODBConfig()),),
                replications=0,
            )

    def test_scaled_rejects_bad_hotn(self):
        with pytest.raises(ValueError, match="hotn"):
            ALL[0].scaled(hotn=0)


@pytest.mark.parametrize("scenario", ALL, ids=lambda s: s.name)
class TestCompilation:
    def test_compiles_to_sweep_spec(self, scenario):
        spec = scenario.compile()
        assert isinstance(spec, SweepSpec)
        assert spec.name == f"scenario/{scenario.name}"
        assert len(spec.points) == len(scenario.points)
        # Pinned protocol: never the VOODB_REPLICATIONS default.
        assert spec.replications == scenario.replications
        assert spec.base_seed == scenario.base_seed

    def test_every_point_is_a_valid_config(self, scenario):
        for _, config in scenario.points:
            assert isinstance(config, VOODBConfig)

    def test_metrics_exist_in_replication_output(self, scenario):
        from repro.experiments.executor import standard_replication

        _, config = small(scenario).points[0]
        metrics = standard_replication(config, seed=1)
        for metric in scenario.metrics:
            assert metric in metrics


@pytest.mark.parametrize("scenario", ALL, ids=lambda s: s.name)
class TestRoundTrip:
    def test_runs_one_short_replication_deterministically(self, scenario):
        fast = small(scenario)
        first = run_scenario(fast, executor=SerialExecutor(), replications=1)
        second = run_scenario(fast, executor=SerialExecutor(), replications=1)
        for metric in scenario.metrics:
            assert first.means(metric) == second.means(metric)

    def test_report_renders(self, scenario):
        fast = small(scenario)
        result = run_scenario(fast, executor=SerialExecutor(), replications=1)
        text = format_scenario(fast, result)
        assert text.startswith(f"Scenario {scenario.name}:")
        for metric in scenario.metrics:
            assert metric in text
        payload = scenario_to_json(fast, result)
        assert payload["scenario"] == scenario.name
        assert payload["replications"] == 1
        assert set(payload["metrics"]) == set(scenario.metrics)

    def test_json_exposes_kernel_counters(self, scenario):
        """``scenario run --json`` reports the kernel fast-path counters."""
        fast = small(scenario)
        result = run_scenario(fast, executor=SerialExecutor(), replications=1)
        payload = scenario_to_json(fast, result)
        kernel = payload["kernel"]
        assert set(kernel) == {
            "events_wheel_pushed",
            "events_pooled_reused",
            "ticks_overflowed",
            "wheel_recalibrations",
            "holds_warped",
        }
        for counter in kernel.values():
            assert len(counter["means"]) == len(payload["x_values"])
        # Every replication advances time: its timed holds either route
        # through the wheel or warp the clock in place.
        assert all(
            wheel + warped > 0
            for wheel, warped in zip(
                kernel["events_wheel_pushed"]["means"],
                kernel["holds_warped"]["means"],
            )
        )


class TestDescriptions:
    def test_list_table_contains_every_name(self):
        table = format_scenario_list(ALL)
        for name in scenario_names():
            assert name in table

    def test_describe_block_mentions_golden(self):
        scenario = get_scenario("open-bursty")
        block = format_scenario_description(scenario)
        assert "results/scenario_open_bursty.txt" in block
        assert "mmpp" in block
