"""Steady-state rendering in the scenario report layer.

Open-system points gain an MSER-5 + batch-means line in the text report
and a ``steady_state`` entry in the JSON payload; closed scenarios must
render exactly as before (the committed goldens depend on it).
"""

import pytest

from repro.experiments.executor import SerialExecutor
from repro.experiments.report import (
    format_scenario,
    format_scenario_description,
    format_scenario_list,
    scenario_to_json,
)
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.schema import scenario_from_dict, scenario_to_dict

STEADY_HEADER = "steady-state response time (MSER-5 truncation + batch means"


@pytest.fixture(scope="module")
def open_run():
    scenario = get_scenario("open-poisson").scaled(hotn=30)
    return scenario, run_scenario(scenario, executor=SerialExecutor())


class TestOpenScenarios:
    def test_text_report_includes_steady_block(self, open_run):
        scenario, result = open_run
        text = format_scenario(scenario, result)
        assert STEADY_HEADER in text
        assert "truncated" in text
        assert "batches" in text

    def test_json_includes_steady_section(self, open_run):
        scenario, result = open_run
        payload = scenario_to_json(scenario, result)
        steady = payload["steady_state"]
        assert steady["method"] == "mser5+batch-means"
        assert steady["metric"] == "response_time_ms"
        n_points = len(payload["x_values"])
        assert len(steady["points"]) == n_points
        assert len(steady["batch_half_widths"]) == n_points
        assert len(steady["truncated"]) == n_points
        assert len(steady["batches"]) == n_points

    def test_steady_estimates_are_positive_where_present(self, open_run):
        scenario, result = open_run
        steady = scenario_to_json(scenario, result)["steady_state"]
        present = [p for p in steady["points"] if p is not None]
        assert present, "expected at least one steady-state estimate"
        assert all(p > 0 for p in present)

    def test_raw_mean_still_reported_alongside(self, open_run):
        """The honest pipeline reports *next to* the raw mean — the
        steady block must not replace mean_response_time_ms."""
        scenario, result = open_run
        payload = scenario_to_json(scenario, result)
        assert "mean_response_time_ms" in payload["metrics"]


class TestClosedScenarios:
    def test_closed_scenario_has_no_steady_block(self):
        scenario = get_scenario("paper-baseline").scaled(hotn=20)
        result = run_scenario(scenario, executor=SerialExecutor())
        text = format_scenario(scenario, result)
        assert STEADY_HEADER not in text
        payload = scenario_to_json(scenario, result)
        assert "steady_state" not in payload


class TestTooFewObservations:
    def test_small_point_reports_na_not_crash(self):
        """A point with fewer transactions than MIN_STEADY_OBSERVATIONS
        must degrade to an explicit n/a line, never an exception."""
        scenario = get_scenario("open-poisson").scaled(hotn=4)
        result = run_scenario(scenario, executor=SerialExecutor(), replications=1)
        text = format_scenario(scenario, result)
        assert "n/a (too few observations" in text
        payload = scenario_to_json(scenario, result)
        assert all(p is None for p in payload["steady_state"]["points"])


def mixed_scenario(order):
    """``open-poisson`` rebuilt with one point per arrival mode in ``order``."""
    data = scenario_to_dict(get_scenario("open-poisson"))
    points = {
        "closed": {"x": "closed", "config": {"arrivals": {"mode": "closed"}}},
        "poisson": {"x": "poisson"},
    }
    data["points"] = [points[x] for x in order]
    return scenario_from_dict(data).scaled(hotn=40)


class TestMixedArrivalModes:
    @pytest.mark.parametrize("order", [("closed", "poisson"), ("poisson", "closed")])
    def test_only_the_open_point_is_estimated(self, order):
        """The estimate follows each point's arrival mode, not the
        first point's."""
        scenario = mixed_scenario(order)
        result = run_scenario(scenario, executor=SerialExecutor(), replications=2)
        text = format_scenario(scenario, result)
        assert STEADY_HEADER in text
        block = text.split(STEADY_HEADER)[1].splitlines()[1:]
        assert [line.split(":")[0].strip() for line in block] == ["poisson"]
        steady = scenario_to_json(scenario, result)["steady_state"]
        assert [p is not None for p in steady["points"]] == [
            x == "poisson" for x in order
        ]

    @pytest.mark.parametrize("order", [("closed", "poisson"), ("poisson", "closed")])
    def test_arrival_mode_names_every_point(self, order):
        """The header, the list row, ``describe`` and the JSON name both
        modes in point order, not only the first point's."""
        scenario = mixed_scenario(order)
        mode = "+".join(order)
        assert scenario.arrival_mode == mode
        row = format_scenario_list([scenario]).splitlines()[1].split()
        assert row[:3] == ["open-poisson", mode, "2"]
        assert f"arrival mode:  {mode}\n" in format_scenario_description(scenario)
        result = run_scenario(scenario, executor=SerialExecutor(), replications=1)
        assert f"(arrivals: {mode}; " in format_scenario(scenario, result)
        assert scenario_to_json(scenario, result)["arrival_mode"] == mode
