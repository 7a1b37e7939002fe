"""Loading and saving scenario files (YAML / TOML).

The file layer is deliberately thin: parse the text into a plain
mapping, then hand it to :mod:`repro.scenarios.schema` — every rule
about what a scenario *is* lives there, so a YAML file, a TOML file and
a Python-registered scenario compile through one code path.

``load_scenario_file`` is what ``voodb scenario run path/to/file.yaml``
calls: no registry edit, no Python, just a committed data file.  The
built-in catalog itself loads through here (see
:mod:`repro.scenarios.builtin`), which keeps the schema honest — if the
file format cannot express a scenario, the catalog breaks loudly.

``dump_scenario`` writes the canonical minimal-diff form
(:func:`repro.scenarios.schema.scenario_to_dict`) as YAML with stable
key order, so dump -> load -> dump is byte-stable.

``yaml`` is imported by the first parse or dump, not with this module:
a run of a figure, a table or the DSTC protocol reads no scenario file.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Union

from repro.scenarios.catalog import Scenario
from repro.scenarios.schema import (
    ScenarioSchemaError,
    scenario_from_dict,
    scenario_to_dict,
)

#: File suffixes the loader recognizes, mapped to their parser.
SCENARIO_SUFFIXES = (".yaml", ".yml", ".toml")


def _parse_yaml(text: str, source: str) -> Mapping:
    import yaml

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioSchemaError(source, f"invalid YAML: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ScenarioSchemaError(
            source,
            "a scenario file must hold one mapping, got "
            f"{type(data).__name__}",
        )
    return data


def _parse_toml(text: str, source: str) -> Mapping:
    try:
        import tomllib  # in the standard library from Python 3.11
    except ModuleNotFoundError:
        raise ScenarioSchemaError(
            source,
            "TOML scenario files need Python >= 3.11 (tomllib); use the YAML form",
        ) from None

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioSchemaError(source, f"invalid TOML: {exc}") from exc


def load_scenario_text(
    text: str, source: str = "<string>", suffix: str = ".yaml"
) -> Scenario:
    """Compile scenario-file text (YAML by default, TOML by suffix)."""
    if suffix == ".toml":
        data = _parse_toml(text, source)
    else:
        data = _parse_yaml(text, source)
    return scenario_from_dict(data, source=source)


def load_scenario_file(path: Union[str, os.PathLike]) -> Scenario:
    """Load one scenario definition file (``.yaml``/``.yml``/``.toml``).

    Raises :class:`ScenarioSchemaError` for schema violations (the
    message carries the path) and :class:`OSError` for unreadable files.
    """
    path = os.fspath(path)
    suffix = os.path.splitext(path)[1].lower()
    if suffix not in SCENARIO_SUFFIXES:
        raise ScenarioSchemaError(
            path,
            f"unsupported scenario file suffix {suffix!r}; expected one of "
            f"{', '.join(SCENARIO_SUFFIXES)}",
        )
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return load_scenario_text(text, source=path, suffix=suffix)


def looks_like_scenario_path(name: str) -> bool:
    """Whether a CLI argument names a file rather than a catalog entry.

    A registered name is bare kebab-case; anything with a recognized
    suffix, a path separator, or an existing file at that path is a
    file reference.
    """
    if name.lower().endswith(SCENARIO_SUFFIXES):
        return True
    if os.sep in name or (os.altsep and os.altsep in name):
        return True
    return os.path.isfile(name)


def dump_scenario(scenario: Scenario) -> str:
    """The canonical YAML text of a scenario (stable under round trips)."""
    import yaml

    return yaml.safe_dump(
        _plain(scenario_to_dict(scenario)),
        sort_keys=False,
        default_flow_style=False,
        allow_unicode=True,
        width=72,
    )


def save_scenario_file(scenario: Scenario, path: Union[str, os.PathLike]) -> None:
    """Write the canonical YAML form of a scenario to ``path``."""
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(dump_scenario(scenario))


def _plain(value: Any) -> Any:
    """Recursively reduce to YAML-native types (dict/list/scalars)."""
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


__all__ = [
    "SCENARIO_SUFFIXES",
    "dump_scenario",
    "load_scenario_file",
    "load_scenario_text",
    "looks_like_scenario_path",
    "save_scenario_file",
]
