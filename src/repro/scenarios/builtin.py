"""The built-in scenario catalog, loaded from committed scenario files.

Every built-in scenario is a ``.yaml`` file under
``src/repro/scenarios/library/`` in the declarative schema of
:mod:`repro.scenarios.schema` — the same format ``voodb scenario run
path/to/file.yaml`` accepts, so adding a study to the catalog is a data
change: drop a file in ``library/`` and list it in :data:`MANIFEST`.
The files are the source of truth; this module only registers their
names on import and loads each file on its scenario's first lookup
(:func:`load_builtin`), which keeps the schema honest (a scenario the
file format cannot express cannot hide in the catalog) and keeps a run
from parsing the files it never names.

Twenty-six ready-made studies over the O2 instantiation, spanning the
axes the ROADMAP's "as many scenarios as you can imagine" asks for: the
paper-faithful closed system, open-system arrivals (steady Poisson and
bursty MMPP), OLTP read/write mixes, hot-key skew, a multiprogramming
ramp, a failure storm, the cold-vs-warm cache pair, the cluster quartet
(scale-out ramp, skewed hot shard, replicated read fan-out,
object-server forwarding) driving open-system load against sharded
multi-server topologies, the consistency-spectrum trio (async
replica-lag storm, crash failover under load, quorum stale-read
audit — see :class:`~repro.core.parameters.ReplicationConfig`), the
OCB genericity trio mapping the classic
OO1 / OO7 / HyperModel workloads onto OCB's parameters, the
flow-aggregated scale trio (10⁴ / 10⁵ / 10⁶ users collapsed into
calibrated open streams with probe cohorts — see
:mod:`repro.core.aggregation`), and the fault-tolerance trio
(partition storm, gray-failure drag, anti-entropy catch-up — see
:class:`~repro.core.failures.FaultConfig`).

Every scenario is deliberately small (NC=20, NO=2000, a few hundred
transactions, 3 pinned replications) so the whole catalog regenerates
in seconds: each one's report is committed under
``results/scenario_*.txt`` and re-derived byte-for-byte by the CI drift
gate on every run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

from repro.scenarios.catalog import Scenario, reserve_scenarios
from repro.scenarios.loader import load_scenario_file
from repro.scenarios.schema import ScenarioSchemaError

#: Directory holding the committed built-in scenario files.
LIBRARY_DIR = Path(__file__).resolve().parent / "library"

#: The catalog, in registration (listing) order.  Each entry names one
#: ``library/<name>.yaml`` file whose ``name:`` field must match.
MANIFEST: Tuple[str, ...] = (
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
)


def load_builtin(name: str) -> Scenario:
    """Parse and compile ``library/<name>.yaml``.

    Raises :class:`ScenarioSchemaError`, naming the file, when it does
    not fit the schema or its ``name:`` is not ``name``.
    """
    path = LIBRARY_DIR / f"{name}.yaml"
    scenario = load_scenario_file(path)
    if scenario.name != name:
        raise ScenarioSchemaError(
            str(path),
            f"declares name {scenario.name!r}, expected {name!r} "
            "(file name and scenario name must match)",
        )
    return scenario


reserve_scenarios(MANIFEST, load_builtin)
