"""Eager, named validation of the declarative scenario schema.

A scenario file must fail loudly — naming the file, the key path and
the closest valid spelling — before any simulation runs.  These tests
drive :mod:`repro.scenarios.schema` and the YAML/TOML loader through
every rejection path: unknown keys at every nesting level, bad format
tags, preset misuse, type errors, and semantic errors surfaced by the
config dataclasses.
"""

import math
import sys

import pytest

from repro.core.parameters import SystemClass, VOODBConfig
from repro.scenarios import (
    ScenarioSchemaError,
    load_scenario_text,
    scenario_from_dict,
)
from repro.scenarios.schema import SCENARIO_FORMAT, scenario_to_dict


def minimal(**extra):
    data = {
        "format": SCENARIO_FORMAT,
        "name": "test-study",
        "title": "A test study",
        "description": "Schema test fixture.",
    }
    data.update(extra)
    return data


class TestTopLevel:
    def test_minimal_scenario_compiles(self):
        scenario = scenario_from_dict(minimal())
        assert scenario.name == "test-study"
        assert scenario.points == (("baseline", VOODBConfig()),)
        assert scenario.replications == 3

    def test_missing_format_rejected(self):
        data = minimal()
        del data["format"]
        with pytest.raises(ScenarioSchemaError, match="format"):
            scenario_from_dict(data)

    def test_wrong_format_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="voodb-scenario/v1"):
            scenario_from_dict(minimal(format="voodb-scenario/v2"))

    def test_unknown_top_level_key_suggests_spelling(self):
        with pytest.raises(ScenarioSchemaError, match="did you mean 'replications'"):
            scenario_from_dict(minimal(replicatons=5))

    def test_missing_name_rejected(self):
        data = minimal()
        del data["name"]
        with pytest.raises(ScenarioSchemaError, match="name"):
            scenario_from_dict(data)

    def test_source_appears_in_message(self):
        with pytest.raises(ScenarioSchemaError, match="my-file.yaml"):
            scenario_from_dict({"format": "x"}, source="my-file.yaml")

    def test_bad_metrics_type_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="metrics"):
            scenario_from_dict(minimal(metrics="total_ios"))

    def test_scenario_validation_still_applies(self):
        with pytest.raises(ScenarioSchemaError, match="kebab-case"):
            scenario_from_dict(minimal(name="Bad Name"))


class TestConfigBlock:
    def test_unknown_config_key_names_key_and_suggestion(self):
        with pytest.raises(ScenarioSchemaError) as excinfo:
            scenario_from_dict(minimal(config={"buffsiz": 100}))
        message = str(excinfo.value)
        assert "buffsiz" in message
        assert "buffsize" in message
        assert "config" in message

    def test_unknown_ocb_key_names_path(self):
        with pytest.raises(ScenarioSchemaError) as excinfo:
            scenario_from_dict(minimal(config={"ocb": {"hotnn": 10}}))
        message = str(excinfo.value)
        assert "config.ocb" in message
        assert "did you mean 'hotn'" in message

    def test_unknown_arrivals_key_names_path(self):
        with pytest.raises(ScenarioSchemaError, match="config.arrivals"):
            scenario_from_dict(minimal(config={"arrivals": {"rate_tp": 10.0}}))

    def test_unknown_cluster_key_names_path(self):
        with pytest.raises(ScenarioSchemaError, match="config.cluster"):
            scenario_from_dict(minimal(config={"cluster": {"server": 2}}))

    def test_unknown_failures_key_names_path(self):
        with pytest.raises(ScenarioSchemaError, match="config.failures"):
            scenario_from_dict(minimal(config={"failures": {"crash_mtbf": 1.0}}))

    def test_semantic_errors_carry_the_path(self):
        with pytest.raises(ScenarioSchemaError, match="pgsize"):
            scenario_from_dict(minimal(config={"pgsize": 1000}))

    def test_enum_strings_coerce(self):
        scenario = scenario_from_dict(minimal(config={"sysclass": "object_server"}))
        assert scenario.points[0][1].sysclass is SystemClass.OBJECT_SERVER

    def test_section_must_be_mapping(self):
        with pytest.raises(ScenarioSchemaError, match="mapping"):
            scenario_from_dict(minimal(config={"ocb": [1, 2]}))


class TestPresets:
    def test_o2_preset_matches_python_helper(self):
        from repro.systems.o2 import o2_config

        scenario = scenario_from_dict(minimal(config={"base": "o2"}))
        assert scenario.points[0][1] == o2_config()

    def test_texas_preset_matches_python_helper(self):
        from repro.systems.texas import texas_config

        scenario = scenario_from_dict(minimal(config={"base": "texas"}))
        assert scenario.points[0][1] == texas_config()

    def test_cache_mb_resolves_buffsize(self):
        scenario = scenario_from_dict(minimal(config={"base": "o2", "cache_mb": 0.5}))
        assert scenario.points[0][1].buffsize == 120

    def test_memory_mb_requires_texas(self):
        with pytest.raises(ScenarioSchemaError, match="memory_mb"):
            scenario_from_dict(minimal(config={"base": "o2", "memory_mb": 32}))

    def test_cache_mb_requires_o2(self):
        with pytest.raises(ScenarioSchemaError, match="cache_mb"):
            scenario_from_dict(minimal(config={"base": "texas", "cache_mb": 2.0}))

    def test_unknown_preset_suggests(self):
        with pytest.raises(ScenarioSchemaError, match="did you mean 'texas'"):
            scenario_from_dict(minimal(config={"base": "texa"}))

    def test_presets_rejected_per_point(self):
        with pytest.raises(ScenarioSchemaError, match="scenario-level"):
            scenario_from_dict(
                minimal(
                    points=[{"x": 1, "config": {"base": "o2"}}],
                )
            )


class TestPoints:
    def test_points_merge_over_shared_config(self):
        scenario = scenario_from_dict(
            minimal(
                config={"multilvl": 4, "ocb": {"hotn": 50}},
                points=[
                    {"x": 1},
                    {"x": 2, "config": {"nusers": 2, "ocb": {"hotn": 60}}},
                ],
            )
        )
        (x1, c1), (x2, c2) = scenario.points
        assert (x1, x2) == (1, 2)
        assert c1.multilvl == c2.multilvl == 4
        assert c1.nusers == 1 and c2.nusers == 2
        assert c1.ocb.hotn == 50 and c2.ocb.hotn == 60

    def test_point_requires_x(self):
        with pytest.raises(ScenarioSchemaError, match=r"points\[0\]"):
            scenario_from_dict(minimal(points=[{"config": {}}]))

    def test_unknown_point_key_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="did you mean 'config'"):
            scenario_from_dict(minimal(points=[{"x": 1, "confg": {}}]))

    def test_empty_points_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="non-empty"):
            scenario_from_dict(minimal(points=[]))

    def test_unknown_point_config_key_names_index(self):
        with pytest.raises(ScenarioSchemaError, match=r"points\[1\]\.config"):
            scenario_from_dict(
                minimal(points=[{"x": 1}, {"x": 2, "config": {"nuser": 2}}])
            )


class TestLoaderFormats:
    YAML = (
        "format: voodb-scenario/v1\n"
        "name: yaml-study\n"
        "title: A YAML study\n"
        "description: Loaded from YAML text.\n"
        "config:\n"
        "  netthru: .inf\n"
        "  ocb:\n"
        "    hotn: 50\n"
    )

    TOML = (
        'format = "voodb-scenario/v1"\n'
        'name = "toml-study"\n'
        'title = "A TOML study"\n'
        'description = "Loaded from TOML text."\n'
        "[config]\n"
        "netthru = inf\n"
        "[config.ocb]\n"
        "hotn = 50\n"
    )

    def test_yaml_text_loads(self):
        scenario = load_scenario_text(self.YAML)
        assert scenario.name == "yaml-study"
        assert math.isinf(scenario.points[0][1].netthru)
        assert scenario.points[0][1].ocb.hotn == 50

    def test_toml_text_loads(self):
        pytest.importorskip("tomllib")
        scenario = load_scenario_text(self.TOML, suffix=".toml")
        assert scenario.name == "toml-study"
        assert math.isinf(scenario.points[0][1].netthru)
        assert scenario.points[0][1].ocb.hotn == 50

    def test_yaml_and_toml_compile_identically(self):
        pytest.importorskip("tomllib")
        a = load_scenario_text(self.YAML)
        b = load_scenario_text(self.TOML, suffix=".toml")
        assert a.points[0][1] == b.points[0][1]

    def test_toml_without_tomllib_names_the_file(self, tmp_path, monkeypatch):
        """Before Python 3.11 there is no tomllib: a schema error naming
        the file and the way out, not an uncaught ModuleNotFoundError."""
        from repro.scenarios import load_scenario_file

        monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "study.toml"
        path.write_text(self.TOML, encoding="utf-8")
        with pytest.raises(ScenarioSchemaError, match=r"study\.toml: .*3\.11"):
            load_scenario_file(path)

    def test_invalid_yaml_reports_source(self):
        with pytest.raises(ScenarioSchemaError, match="bad.yaml"):
            load_scenario_text("{unclosed", source="bad.yaml")

    def test_non_mapping_yaml_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="mapping"):
            load_scenario_text("- just\n- a\n- list\n")

    def test_unsupported_suffix_rejected(self, tmp_path):
        from repro.scenarios import load_scenario_file

        path = tmp_path / "scenario.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ScenarioSchemaError, match="suffix"):
            load_scenario_file(path)

    def test_quoted_no_key_round_trips(self):
        """YAML 1.1 treats bare ``no`` as a boolean; the canonical dump
        quotes it so the OCB ``no`` field survives."""
        scenario = scenario_from_dict(minimal(config={"ocb": {"no": 500, "hotn": 10}}))
        from repro.scenarios import dump_scenario, load_scenario_text

        text = dump_scenario(scenario)
        assert "'no': 500" in text
        assert load_scenario_text(text) == scenario


class TestCanonicalDict:
    def test_default_scenario_serializes_minimal(self):
        scenario = scenario_from_dict(minimal())
        data = scenario_to_dict(scenario)
        assert set(data) == {"format", "name", "title", "description"}

    def test_x_values_keep_their_types(self):
        scenario = scenario_from_dict(minimal(points=[{"x": 1}, {"x": "two"}]))
        data = scenario_to_dict(scenario)
        assert [p["x"] for p in data["points"]] == [1, "two"]
