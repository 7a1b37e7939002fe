"""Command-line regeneration of the paper's evaluation.

Usage::

    python -m repro figures              # Figures 6-11
    python -m repro figure 8             # one figure
    python -m repro tables               # Tables 6-8
    python -m repro all                  # everything
    python -m repro -r 10 all            # 10 replications per point
    python -m repro -j 4 figure 6        # fan replications over 4 workers
    python -m repro --cache-dir .voodb-cache all   # memoize replications
    python -m repro -o out.txt figure 11 # also write the report to a file

    python -m repro scenario list        # the scenario catalog
    python -m repro scenario describe open-bursty
    python -m repro scenario run open-bursty         # golden text report
    python -m repro scenario run -r 10 --json failure-storm
    python -m repro scenario run my-study.yaml       # no registry edit
    python -m repro scenario validate src/repro/scenarios/library/*.yaml

``scenario describe``/``run`` accept either a registered catalog name
or a path to a declarative scenario file (``.yaml``/``.yml``/``.toml``,
see :mod:`repro.scenarios.schema`); ``scenario validate`` schema-checks
files without running them (exit 2 on the first invalid file).

Every command prints the paper's published series (benchmark and
simulation) next to this reproduction's means with 95% confidence
intervals — the same reports the benchmark harness writes under
``results/``.  ``--jobs``/``VOODB_JOBS`` select the executor (serial vs
process pool); ``--cache-dir``/``VOODB_CACHE_DIR`` enable the on-disk
replication cache.  Both paths produce bit-identical statistics for the
same seeds; ``scenario run`` with the default replication protocol
reproduces the committed ``results/scenario_*.txt`` goldens exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments.cache import ReplicationCache
from repro.experiments.executor import Executor, make_executor
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.specs import resolve_replications
from repro.experiments.report import (
    format_dstc_table,
    format_scenario,
    format_scenario_description,
    format_scenario_list,
    format_series,
    format_table7,
    scenario_to_json,
)
from repro.experiments.tables import table6, table8
from repro.scenarios import (
    ScenarioSchemaError,
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    load_scenario_file,
    looks_like_scenario_path,
    run_scenario,
)


def _emit(report: str, output: Optional[str]) -> None:
    print(report)
    print()
    if output:
        with open(output, "a", encoding="utf-8") as sink:
            sink.write(report + "\n\n")


def run_figures(
    numbers: List[str],
    replications: Optional[int],
    hotn: int,
    output: Optional[str],
    executor: Optional[Executor] = None,
) -> None:
    for number in numbers:
        series = ALL_FIGURES[number](
            replications=replications, hotn=hotn, executor=executor
        )
        _emit(format_series(series), output)


def run_tables(
    replications: Optional[int],
    output: Optional[str],
    executor: Optional[Executor] = None,
) -> None:
    result6 = table6(replications=replications, executor=executor)
    _emit(format_dstc_table(result6), output)
    _emit(format_table7(result6), output)
    result8 = table8(replications=replications, executor=executor)
    _emit(format_dstc_table(result8), output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the VOODB paper's figures and tables.",
    )
    parser.add_argument(
        "-r",
        "--replications",
        type=int,
        default=None,
        help="replications per experiment point "
        "(default: VOODB_REPLICATIONS or 5; the paper used 100)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes for replications "
        "(default: VOODB_JOBS or 1 = serial; results are identical)",
    )
    parser.add_argument(
        "--hotn",
        type=int,
        default=None,
        help="transactions per replication (default 1000, the Table 5 "
        "value; for scenarios: set every point's HOTN to this, up or down, "
        "and cap its COLDN warm-up at it)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk replication cache "
        "(default: VOODB_CACHE_DIR, unset = no cache)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="append the reports to this file as well",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("figures", help="regenerate Figures 6-11")
    sub.add_parser("tables", help="regenerate Tables 6-8")
    sub.add_parser("all", help="regenerate everything")
    one = sub.add_parser("figure", help="regenerate a single figure")
    one.add_argument("number", choices=sorted(ALL_FIGURES, key=int))
    scenario = sub.add_parser("scenario", help="the scenario catalog")
    action = scenario.add_subparsers(dest="scenario_command", required=True)
    action.add_parser("list", help="list the registered scenarios")
    name_help = "catalog name or path to a scenario file (.yaml/.yml/.toml)"
    describe = action.add_parser("describe", help="describe one scenario")
    describe.add_argument("name", help=name_help)
    run = action.add_parser("run", help="run one scenario and print its report")
    run.add_argument("name", help=name_help)
    run.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON summary instead of the text table",
    )
    validate = action.add_parser(
        "validate", help="schema-check scenario files without running them"
    )
    validate.add_argument(
        "paths", nargs="+", help="scenario files to validate"
    )
    return parser


def make_cli_executor(
    jobs: Optional[int] = None, cache_dir: Optional[str] = None
) -> Executor:
    """Executor from CLI flags, falling back to the environment knobs."""
    cache = ReplicationCache(cache_dir) if cache_dir else None
    return make_executor(jobs=jobs, cache=cache)  # None -> VOODB_CACHE_DIR


def resolve_scenario(name: str):
    """A scenario from either the registry or a file path."""
    if looks_like_scenario_path(name):
        return load_scenario_file(name)
    return get_scenario(name)


def validate_scenario_files(paths: List[str], output: Optional[str]) -> int:
    """Schema-check scenario files; exit 2 on the first invalid one."""
    for path in paths:
        try:
            scenario = load_scenario_file(path)
        except (ScenarioSchemaError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit(
            f"{path}: ok (scenario {scenario.name!r}, "
            f"{len(scenario.points)} point(s), "
            f"{scenario.replications} replications)",
            output,
        )
    return 0


def run_scenario_command(args, executor: Executor) -> int:
    if args.scenario_command == "list":
        _emit(format_scenario_list(all_scenarios()), args.output)
        return 0
    if args.scenario_command == "validate":
        return validate_scenario_files(args.paths, args.output)
    scenario = resolve_scenario(args.name)
    if args.scenario_command == "describe":
        _emit(format_scenario_description(scenario), args.output)
        return 0
    if args.hotn is not None:
        scenario = scenario.scaled(args.hotn)
    result = run_scenario(scenario, executor=executor, replications=args.replications)
    if args.json:
        report = json.dumps(scenario_to_json(scenario, result), indent=2)
    else:
        report = format_scenario(scenario, result)
    _emit(report, args.output)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "scenario" or args.replications is not None:
            # Fail fast on a bad -r / VOODB_REPLICATIONS.  Scenarios pin
            # their own replication count, so a missing -r there must
            # not drag the environment default in.
            resolve_replications(args.replications)
        if args.hotn is not None and args.hotn < 1:
            raise ValueError(f"--hotn must be >= 1, got {args.hotn}")
        executor = make_cli_executor(args.jobs, args.cache_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    hotn = args.hotn if args.hotn is not None else 1000
    figure_numbers = sorted(ALL_FIGURES, key=int)
    if args.command == "scenario":
        try:
            return run_scenario_command(args, executor)
        except (UnknownScenarioError, ScenarioSchemaError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "figure":
        run_figures([args.number], args.replications, hotn, args.output, executor)
    elif args.command == "figures":
        run_figures(figure_numbers, args.replications, hotn, args.output, executor)
    elif args.command == "tables":
        run_tables(args.replications, args.output, executor)
    else:  # all
        run_figures(figure_numbers, args.replications, hotn, args.output, executor)
        run_tables(args.replications, args.output, executor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
