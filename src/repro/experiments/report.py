"""Text and JSON rendering of regenerated figures, tables and scenarios.

The benchmark harness prints "the same rows/series the paper reports":
for each figure, the x sweep with the paper's benchmark series, the
paper's simulation series and this reproduction side by side; for the
DSTC tables, the pre/overhead/post/gain rows.  EXPERIMENTS.md is built
from this output.

The scenario renderers (:func:`format_scenario`,
:func:`scenario_to_json`, :func:`format_scenario_list`) take any object
with the :class:`~repro.scenarios.catalog.Scenario` shape — they are
duck-typed on purpose so this module stays import-cycle-free below the
scenarios package.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.results import KERNEL_COUNTERS
from repro.experiments.figures import ExperimentSeries
from repro.experiments.specs import SweepResult
from repro.experiments.tables import TABLE_7_REFERENCE, DSTCExperimentResult


def _format_row(columns: List[str], widths: List[int]) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(columns, widths))


def format_sweep(
    result: SweepResult,
    metrics: Sequence[str] = ("total_ios",),
    x_label: str = "x",
) -> str:
    """Render any engine sweep as an aligned x-by-metric table.

    Unlike :func:`format_series`, this needs no paper reference — it is
    the generic renderer for ad-hoc :class:`SweepSpec` grids (examples,
    exploratory sweeps beyond the published figures).
    """
    spec = result.spec
    replications = result.analyzers[0].replications if result.analyzers else 0
    lines = [
        f"Sweep {spec.name}: mean of {replications} replications, "
        f"{spec.confidence:.0%} CI",
    ]
    header = [x_label]
    for metric in metrics:
        header.extend([metric, "±CI"])
    widths = [max(len(x_label), 10)] + [14, 8] * len(metrics)
    lines.append(_format_row(header, widths))
    for x, analyzer in zip(result.x_values, result.analyzers):
        row: List[str] = [str(x)]
        for metric in metrics:
            ci = analyzer.interval(metric)
            row.extend([f"{ci.mean:.1f}", f"{ci.half_width:.1f}"])
        lines.append(_format_row(row, widths))
    return "\n".join(lines)


def _metric_value(value: float) -> str:
    """Compact, deterministic number rendering for mixed-scale metrics.

    Scenario tables mix counts (hundreds of I/Os), rates (fractions) and
    times (milliseconds); four significant digits keep them all readable
    in one table without per-metric format strings.
    """
    return f"{value:.4g}"


#: The fault-layer counters with their report labels: the text prints
#: one line per row, the document one column per counter.
_FAULT_LINES = (
    (
        ("partitions", "partitions"),
        ("partition_ms", "partition ms"),
        ("gray_episodes", "gray episodes"),
        ("degraded_reads", "degraded reads"),
    ),
    (
        ("remote_timeouts", "timeouts"),
        ("remote_retries", "retries"),
        ("abandoned_reads", "abandoned"),
        ("elections", "elections"),
        ("promotions", "promotions"),
        ("repair_pages", "repaired pages"),
        ("read_repairs", "read repairs"),
    ),
)

#: The per-node hazard counters of the failover section.
_FAILOVER_METRICS = (
    "crashes",
    "downtime_ms",
    "transient_faults",
    "read_failovers",
    "write_recovery_waits",
)


def scenario_to_json(scenario, result: SweepResult) -> Dict[str, Any]:
    """The document of one executed scenario (CLI ``--json``).

    The only code here that reads the analyzers; :func:`format_scenario`
    renders the golden text from this document alone.  Each section
    after ``metrics`` holds columns of one value per point, ``None``
    where the point does not run the section's feature, and is present
    when at least one point runs it.
    """
    analyzers = result.analyzers
    configs = [config for _x, config in scenario.points]

    def column(metric: str, gates: List[bool], part: str = "mean") -> List[Any]:
        """The metric's interval ``part`` per point, ``None`` where the
        gate is shut or the point did not report the metric."""
        return [
            getattr(analyzer.interval(metric), part)
            if gate and metric in analyzer.metrics()
            else None
            for gate, analyzer in zip(gates, analyzers)
        ]

    metrics: Dict[str, Any] = {}
    for metric in scenario.metrics:
        intervals = result.intervals(metric)
        metrics[metric] = {
            "means": [ci.mean for ci in intervals],
            "half_widths": [ci.half_width for ci in intervals],
        }
    payload: Dict[str, Any] = {
        "scenario": scenario.name,
        "title": scenario.title,
        "arrival_mode": scenario.arrival_mode,
        "x_label": scenario.x_label,
        "x_values": [str(x) for x in result.x_values],
        "replications": analyzers[0].replications if analyzers else 0,
        "base_seed": scenario.base_seed,
        "metrics": metrics,
    }
    # Fixed names and order: a cache replay's metric dicts come back
    # with sorted keys.
    kernel: Dict[str, Any] = {}
    for name, _counter in KERNEL_COUNTERS:
        metric = f"kernel_{name}"
        if all(metric in analyzer.metrics() for analyzer in analyzers):
            kernel[name] = {"means": [a.mean(metric) for a in analyzers]}
    if kernel:
        payload["kernel"] = kernel
    aggregated = [config.aggregation.enabled for config in configs]
    if any(aggregated):
        probe = "probe_mean_response_time_ms"
        payload["aggregation"] = {
            "populations": column("aggregation_population", aggregated),
            "calibrated_rates_tps": column("calibrated_rate_tps", aggregated),
            "calibration_iterations": column("calibration_iterations", aggregated),
            "calibration_converged": [
                None if value is None else value >= 1.0
                for value in column("calibration_converged", aggregated)
            ],
            "aggregate_transactions": column("aggregate_transactions", aggregated),
            "probe_transactions": column("probe_transactions", aggregated),
            "probe_mean_response_times_ms": column(probe, aggregated),
            "probe_p95_response_times_ms": column(
                "probe_p95_response_time_ms", aggregated
            ),
            "probe_mean_half_widths_ms": column(probe, aggregated, "half_width"),
        }
    open_points = [
        config.arrivals.open or config.aggregation.enabled for config in configs
    ]
    if any(open_points):
        point = "steady_response_time_ms"
        payload["steady_state"] = {
            "method": "mser5+batch-means",
            "metric": "response_time_ms",
            "points": column(point, open_points),
            "replication_half_widths": column(point, open_points, "half_width"),
            "batch_half_widths": column("steady_response_ci_ms", open_points),
            "truncated": column("steady_truncated", open_points),
            "batches": column("steady_batches", open_points),
            "observations": column("transactions", open_points),
        }
    servers = [config.cluster.servers for config in configs]

    def per_server(metric: str) -> List[List[float]]:
        """Each point's ``server{i}_{metric}`` means, over the servers
        that reported one."""
        table = []
        for count, analyzer in zip(servers, analyzers):
            names = [f"server{i}_{metric}" for i in range(count)]
            table.append(
                [analyzer.mean(name) for name in names if name in analyzer.metrics()]
            )
        return table

    if any(servers):
        payload["cluster"] = {
            "servers": servers,
            "per_server_utilization": per_server("utilization"),
            "per_server_accesses": per_server("accesses"),
        }
    replication = [config.replication for config in configs]
    async_points = [rep.is_async for rep in replication]
    if any(async_points):
        payload["replication"] = {
            "modes": [rep.mode for rep in replication],
            "read_quorums": [rep.read_quorum for rep in replication],
            "write_quorums": [rep.write_quorum for rep in replication],
            "replica_lag_ms": column("replica_lag_ms", async_points),
            "replica_applies": column("replica_applies", async_points),
            "stale_reads": column("stale_reads", async_points),
            "stale_reads_per_1000_reads": column(
                "stale_reads_per_1000_reads", async_points
            ),
            "apply_queue_peaks": [
                max(peaks, default=0.0) if is_async else None
                for is_async, peaks in zip(async_points, per_server("apply_queue_peak"))
            ],
        }
    faulted = [
        config.cluster.enabled and config.faults.enabled for config in configs
    ]
    if any(faulted):
        payload["faults"] = {
            metric: column(metric, faulted)
            for line in _FAULT_LINES
            for metric, _label in line
        }
    payload["confidence"] = result.spec.confidence
    hazards = [
        config.cluster.enabled and config.failures.enabled for config in configs
    ]
    if any(hazards):
        payload["failover"] = {
            metric: column(metric, hazards) for metric in _FAILOVER_METRICS
        }
    return payload


# The text blocks: each renders one point's row of its document section
# (the section's columns read at that point), or None to skip the point.
def _cluster_cell(row: Dict[str, Any]) -> Optional[str]:
    """Each server's mean disk utilization and share of the accesses."""
    if not row["servers"]:
        return None
    accesses = row["per_server_accesses"]
    total = sum(accesses) or 1.0
    return "  ".join(
        f"s{i} {_metric_value(utilization)} ({served / total:.1%})"
        for i, (utilization, served) in enumerate(
            zip(row["per_server_utilization"], accesses)
        )
    )


def _replication_cell(row: Dict[str, Any]) -> Optional[str]:
    """The quorum pair, the mean lag over the applies, the stale reads
    (with their rate per 1000 served reads) and the deepest apply queue."""
    if row["modes"] != "async":
        return "sync"
    stale = f"stale reads {_metric_value(row['stale_reads'])}"
    if row["stale_reads_per_1000_reads"] is not None:
        rate = _metric_value(row["stale_reads_per_1000_reads"])
        stale += f" ({rate}/1k reads)"
    return (
        f"R{row['read_quorums']}/W{row['write_quorums']}, "
        f"lag {_metric_value(row['replica_lag_ms'])} ms over "
        f"{_metric_value(row['replica_applies'])} applies, {stale}, "
        f"peak queue {_metric_value(row['apply_queue_peaks'])}"
    )


def _failover_cell(row: Dict[str, Any]) -> Optional[str]:
    """Crashes and their downtime, transient faults, and how the cluster
    routed around the outages."""
    if row["crashes"] is None:
        return None
    value = {metric: _metric_value(row[metric]) for metric in _FAILOVER_METRICS}
    return (
        f"crashes {value['crashes']} (downtime {value['downtime_ms']} ms), "
        f"transient faults {value['transient_faults']}, "
        f"read failovers {value['read_failovers']}, "
        f"write recovery waits {value['write_recovery_waits']}"
    )


def _faults_cell(row: Dict[str, Any]) -> Optional[str]:
    """The fault pressure, then how the recovery machinery absorbed it."""
    if row["partitions"] is None:
        return None
    return "\n     ".join(
        ", ".join(f"{label} {_metric_value(row[metric])}" for metric, label in line)
        for line in _FAULT_LINES
    )


def _aggregation_cell(row: Dict[str, Any]) -> Optional[str]:
    """The population, the calibrated rate, the aggregate/probe split and
    the probe cohort's latency."""
    if row["populations"] is None:
        return None
    converged = "converged" if row["calibration_converged"] else "NOT converged"
    cell = (
        f"N={row['populations']:.0f}, "
        f"rate {_metric_value(row['calibrated_rates_tps'])} tps "
        f"({row['calibration_iterations']:.0f} pilot iters, {converged}), "
        f"aggregate/probe txns {_metric_value(row['aggregate_transactions'])}/"
        f"{_metric_value(row['probe_transactions'])}"
    )
    if row["probe_mean_response_times_ms"] is not None:
        cell += (
            f", probe {_metric_value(row['probe_mean_response_times_ms'])} ms "
            f"±{_metric_value(row['probe_mean_half_widths_ms'])} "
            f"(p95 {_metric_value(row['probe_p95_response_times_ms'])})"
        )
    return cell


def _steady_cell(row: Dict[str, Any]) -> Optional[str]:
    """The MSER-5 truncated batch-means estimate of an open point."""
    if row["observations"] is None:
        return None
    if row["points"] is None:
        return "n/a (too few observations for a steady-state estimate)"
    value = {key: _metric_value(number) for key, number in row.items()}
    return (
        f"{value['points']} ms ±{value['replication_half_widths']} across "
        f"replications (batch CI ±{value['batch_half_widths']}, "
        f"truncated {value['truncated']}/{value['observations']} obs, "
        f"{value['batches']} batches)"
    )


#: The text report's blocks in print order: the document section each
#: renders, its header line and its per-point cell.
_TEXT_BLOCKS = (
    ("cluster", "per-server disk utilization (share of accesses):", _cluster_cell),
    (
        "replication",
        "async replication (apply queues, lag, staleness):",
        _replication_cell,
    ),
    ("failover", "failover (per-node hazards on the cluster):", _failover_cell),
    ("faults", "fault tolerance (partitions, gray nodes, recovery):", _faults_cell),
    (
        "aggregation",
        "flow aggregation (calibrated open stream + probe cohort):",
        _aggregation_cell,
    ),
    (
        "steady_state",
        "steady-state response time "
        "(MSER-5 truncation + batch means, per replication):",
        _steady_cell,
    ),
)


def format_scenario(scenario, result: SweepResult) -> str:
    """Render one executed scenario as its golden text report.

    Every number comes from the :func:`scenario_to_json` document, so
    ``--json`` carries all that the text prints.
    """
    doc = scenario_to_json(scenario, result)
    lines = [
        f"Scenario {doc['scenario']}: {doc['title']}",
        f"(arrivals: {doc['arrival_mode']}; mean of {doc['replications']} "
        f"replications, {doc['confidence']:.0%} CI)",
    ]
    header = [doc["x_label"]]
    widths = [max(len(doc["x_label"]), 10)]
    for metric in doc["metrics"]:
        header.extend([metric, "±CI"])
        widths.extend([max(len(metric), 12), 8])
    lines.append(_format_row(header, widths))
    for i, x in enumerate(doc["x_values"]):
        row = [x]
        for values in doc["metrics"].values():
            row.append(_metric_value(values["means"][i]))
            row.append(_metric_value(values["half_widths"][i]))
        lines.append(_format_row(row, widths))
    for key, title, cell in _TEXT_BLOCKS:
        if key not in doc:
            continue
        lines += ["", title]
        columns = {
            name: values
            for name, values in doc[key].items()
            if isinstance(values, list)
        }
        for i, x in enumerate(doc["x_values"]):
            text = cell({name: values[i] for name, values in columns.items()})
            if text is not None:
                lines.append(f"  {x}: {text}")
    return "\n".join(lines)


def format_scenario_list(scenarios: Sequence[Any]) -> str:
    """The ``voodb scenario list`` table: name, arrivals, points, title."""
    header = ["name", "arrivals", "points", "title"]
    rows = [
        [s.name, s.arrival_mode, str(len(s.points)), s.title] for s in scenarios
    ]
    table = [header] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def format_scenario_description(scenario) -> str:
    """The ``voodb scenario describe`` block for one scenario."""
    lines = [
        f"Scenario {scenario.name}: {scenario.title}",
        "",
        scenario.description,
        "",
        f"arrival mode:  {scenario.arrival_mode}",
        f"points:        {len(scenario.points)} "
        f"({scenario.x_label}: {', '.join(str(x) for x, _ in scenario.points)})",
        f"replications:  {scenario.replications} (base seed {scenario.base_seed})",
        f"metrics:       {', '.join(scenario.metrics)}",
        f"golden output: results/{scenario.golden_name}.txt",
    ]
    first = scenario.points[0][1]
    ocb = first.ocb
    lines += [
        "",
        "first point:",
        f"  system:    {first.sysclass.value}, buffer {first.buffsize} pages "
        f"x {first.pgsize} B, {first.pgrep} replacement",
        f"  database:  NC={ocb.nc}, NO={ocb.no}",
        f"  workload:  HOTN={ocb.hotn}, COLDN={ocb.coldn}, mix "
        f"set/simple/hier/stoch/ins/del = {ocb.pset:.2f}/{ocb.psimple:.2f}/"
        f"{ocb.phier:.2f}/{ocb.pstoch:.2f}/{ocb.pinsert:.2f}/{ocb.pdelete:.2f}, "
        f"pwrite={ocb.pwrite:.2f}",
        f"  users:     NUSERS={first.nusers}, MULTILVL={first.multilvl}",
        f"  failures:  {'on' if first.failures.enabled else 'off'}",
    ]
    if first.aggregation.enabled:
        aggregation = first.aggregation
        lines.append(
            f"  aggregated: population {aggregation.population}, probe "
            f"cohort {aggregation.probe_cohort}, tolerance "
            f"{aggregation.tolerance:g}, max {aggregation.max_iterations} "
            f"pilot iterations x {aggregation.pilot_transactions} txns"
        )
    if first.cluster.enabled:
        topology = first.cluster
        interconnect = (
            "free"
            if topology.interconnect_mbps == float("inf")
            else f"{topology.interconnect_mbps:g} MB/s"
        )
        lines.append(
            f"  cluster:   {topology.servers} servers, {topology.placement} "
            f"placement, replication {topology.replication}, "
            f"interconnect {interconnect}"
        )
        if first.replication.is_async:
            rep = first.replication
            guarantees = [
                label
                for flag, label in (
                    (rep.read_your_writes, "read-your-writes"),
                    (rep.monotonic_reads, "monotonic-reads"),
                )
                if flag
            ]
            lines.append(
                f"  consistency: async, R={rep.read_quorum}/"
                f"W={rep.write_quorum}, apply delay "
                f"{rep.apply_delay_ms:g} ms"
                + (", " + ", ".join(guarantees) if guarantees else "")
            )
        if first.faults.enabled:
            fault = first.faults
            retry = first.retry
            kinds = []
            if fault.partition_mtbf_ms > 0:
                kinds.append(
                    f"partitions (mtbf {fault.partition_mtbf_ms:g} ms, "
                    f"heal {fault.partition_heal_ms:g} ms)"
                )
            if fault.gray_mtbf_ms > 0:
                kinds.append(
                    f"gray x{fault.gray_slowdown:g} "
                    f"(mtbf {fault.gray_mtbf_ms:g} ms, "
                    f"heal {fault.gray_heal_ms:g} ms)"
                )
            if fault.repair_interval_ms > 0:
                kinds.append(
                    f"anti-entropy every {fault.repair_interval_ms:g} ms"
                )
            lines.append(f"  fault plan: {'; '.join(kinds)}")
            lines.append(
                f"  retry:     timeout {retry.timeout_ms:g} ms x "
                f"{retry.max_retries + 1} attempts, backoff "
                f"{retry.backoff_base_ms:g} ms "
                f"x{retry.backoff_multiplier:g} (jitter {retry.jitter:g}); "
                f"election delay {fault.election_delay_ms:g} ms"
            )
    return "\n".join(lines)


def format_series(series: ExperimentSeries) -> str:
    """Render one figure as an aligned paper-vs-reproduction table."""
    ref = series.reference
    lines = [
        f"Figure {ref.figure}: {ref.title}",
        f"(paper series digitized from the plot; reproduction = mean of "
        f"{series.replications} replications, 95% CI)",
    ]
    header = [ref.x_label, "paper bench", "paper sim", "repro", "±CI"]
    widths = [max(len(header[0]), 10), 12, 12, 12, 8]
    lines.append(_format_row(header, widths))
    for x, bench, sim, ci in zip(
        series.x_values, ref.benchmark, ref.simulation, series.intervals
    ):
        lines.append(
            _format_row(
                [
                    x,
                    f"{bench:.0f}",
                    f"{sim:.0f}",
                    f"{ci.mean:.1f}",
                    f"{ci.half_width:.1f}",
                ],
                widths,
            )
        )
    return "\n".join(lines)


def format_dstc_table(result: DSTCExperimentResult) -> str:
    """Render a Table 6/8-style block (pre / overhead / post / gain)."""
    ref = result.reference
    lines = [
        f"Table {ref.table}: effects of DSTC on the performances "
        f"(mean number of I/Os) - memory {result.memory_mb:.0f} MB, "
        f"{result.replications} replications",
    ]
    header = ["row", "paper bench", "paper sim", "repro", "±CI"]
    widths = [22, 12, 12, 12, 8]
    lines.append(_format_row(header, widths))

    def row(name: str, bench, sim, ci) -> str:
        return _format_row(
            [
                name,
                "-" if bench is None else f"{bench:.2f}",
                "-" if sim is None else f"{sim:.2f}",
                f"{ci.mean:.2f}",
                f"{ci.half_width:.2f}",
            ],
            widths,
        )

    lines.append(
        row(
            "pre-clustering usage",
            ref.pre_clustering_bench,
            ref.pre_clustering_sim,
            result.pre_clustering,
        )
    )
    if ref.overhead_sim is not None:
        lines.append(
            row(
                "clustering overhead",
                ref.overhead_bench,
                ref.overhead_sim,
                result.clustering_overhead,
            )
        )
    lines.append(
        row(
            "post-clustering usage",
            ref.post_clustering_bench,
            ref.post_clustering_sim,
            result.post_clustering,
        )
    )
    lines.append(row("gain", ref.gain_bench, ref.gain_sim, result.gain))
    return "\n".join(lines)


def format_table7(result: DSTCExperimentResult) -> str:
    """Render the Table 7 block (cluster count and mean size)."""
    ref = TABLE_7_REFERENCE
    lines = [
        f"Table 7: DSTC clustering ({result.replications} replications)",
    ]
    header = ["row", "paper bench", "paper sim", "repro", "±CI"]
    widths = [26, 12, 12, 12, 8]
    lines.append(_format_row(header, widths))
    lines.append(
        _format_row(
            [
                "mean number of clusters",
                f"{ref['mean_clusters_bench']:.2f}",
                f"{ref['mean_clusters_sim']:.2f}",
                f"{result.clusters.mean:.2f}",
                f"{result.clusters.half_width:.2f}",
            ],
            widths,
        )
    )
    lines.append(
        _format_row(
            [
                "mean number of obj./clust.",
                f"{ref['mean_objects_per_cluster_bench']:.2f}",
                f"{ref['mean_objects_per_cluster_sim']:.2f}",
                f"{result.objects_per_cluster.mean:.2f}",
                f"{result.objects_per_cluster.half_width:.2f}",
            ],
            widths,
        )
    )
    return "\n".join(lines)
