"""scenarios — the declarative scenario catalog.

A :class:`Scenario` names a complete usage study — workload mix,
arrival process, topology, fault plan, replication protocol — and
compiles to the experiment engine's sweep specs, so every catalog entry
runs through the same executors, cache and statistics as the paper's
figures.

Scenarios are *data*: the built-in catalog is a set of committed
``.yaml`` files under ``scenarios/library/`` in the schema of
:mod:`repro.scenarios.schema`.  :mod:`repro.scenarios.builtin` registers
their names on import and parses each file on its first lookup, so a
run parses only the files it names; ``voodb scenario run path/to/file.yaml``
runs any file in the same format with no registry edit.  ``python -m
repro scenario list|describe|run|validate`` is the command-line face,
and each built-in's report is pinned byte-for-byte under
``results/scenario_*.txt``.
"""

from repro.scenarios.catalog import (
    DEFAULT_METRICS,
    Scenario,
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.schema import (
    SCENARIO_FORMAT,
    ScenarioSchemaError,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenarios.loader import (
    dump_scenario,
    load_scenario_file,
    load_scenario_text,
    looks_like_scenario_path,
    save_scenario_file,
)
from repro.scenarios import builtin as _builtin  # noqa: F401  (registers the catalog)

__all__ = [
    "DEFAULT_METRICS",
    "SCENARIO_FORMAT",
    "Scenario",
    "ScenarioSchemaError",
    "UnknownScenarioError",
    "all_scenarios",
    "dump_scenario",
    "get_scenario",
    "load_scenario_file",
    "load_scenario_text",
    "looks_like_scenario_path",
    "register_scenario",
    "run_scenario",
    "save_scenario_file",
    "scenario_from_dict",
    "scenario_names",
    "scenario_to_dict",
]
