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

from typing import Any, Dict, List, Sequence

from repro.experiments.figures import ExperimentSeries
from repro.experiments.specs import SweepResult
from repro.experiments.tables import TABLE_7_REFERENCE, DSTCExperimentResult


#: Kernel perf counters surfaced in the ``scenario run --json`` payload
#: (recorded per replication by ``VOODBSimulation.run``; see
#: :mod:`repro.despy.events` for what each one measures).
_KERNEL_COUNTERS = (
    "events_wheel_pushed",
    "events_pooled_reused",
    "ticks_overflowed",
    "wheel_recalibrations",
    "holds_warped",
)


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


def _cluster_servers_per_point(scenario) -> List[int]:
    """Server count of every point (0 = no cluster layer at that point)."""
    return [config.cluster.servers for _x, config in scenario.points]


def format_cluster_detail(scenario, result: SweepResult) -> List[str]:
    """Per-server utilization/throughput rows for cluster scenarios.

    One line per point: each server's mean disk utilization with its
    share of the point's service operations — how a hot shard or a
    clean scale-out actually reads in the golden report.
    """
    servers_per_point = _cluster_servers_per_point(scenario)
    if not any(servers_per_point):
        return []
    lines = ["", "per-server disk utilization (share of accesses):"]
    for (x, _config), servers, analyzer in zip(
        scenario.points, servers_per_point, result.analyzers
    ):
        if not servers:
            continue
        accesses = [
            analyzer.mean(f"server{i}_accesses") for i in range(servers)
        ]
        total_accesses = sum(accesses) or 1.0
        cells = [
            f"s{i} {_metric_value(analyzer.mean(f'server{i}_utilization'))}"
            f" ({accesses[i] / total_accesses:.1%})"
            for i in range(servers)
        ]
        lines.append(f"  {x}: " + "  ".join(cells))
    return lines


def _replication_async_per_point(scenario) -> List[bool]:
    """Whether each point runs async replication (consistency spectrum)."""
    return [config.replication.is_async for _x, config in scenario.points]


def format_replication(scenario, result: SweepResult) -> List[str]:
    """The async-replication block of a consistency-spectrum report.

    One line per async point: its quorum pair, the mean replication lag
    over how many replica applies, the stale reads the staleness window
    let through, and the deepest any node's apply queue got.
    """
    async_per_point = _replication_async_per_point(scenario)
    if not any(async_per_point):
        return []
    lines = ["", "async replication (apply queues, lag, staleness):"]
    for (x, config), is_async, analyzer in zip(
        scenario.points, async_per_point, result.analyzers
    ):
        if not is_async:
            lines.append(f"  {x}: sync")
            continue
        rep = config.replication
        metrics = set(analyzer.metrics())
        lag = analyzer.mean("replica_lag_ms")
        applies = analyzer.mean("replica_applies")
        stale = analyzer.mean("stale_reads")
        stale_cell = f"stale reads {_metric_value(stale)}"
        if "stale_reads_per_1000_reads" in metrics:
            # The rate next to the raw counter: comparable across
            # workload sizes (per 1000 served page reads).
            rate = analyzer.mean("stale_reads_per_1000_reads")
            stale_cell += f" ({_metric_value(rate)}/1k reads)"
        peak = max(
            (
                analyzer.mean(f"server{i}_apply_queue_peak")
                for i in range(config.cluster.servers)
                if f"server{i}_apply_queue_peak" in metrics
            ),
            default=0.0,
        )
        lines.append(
            f"  {x}: R{rep.read_quorum}/W{rep.write_quorum}, "
            f"lag {_metric_value(lag)} ms over "
            f"{_metric_value(applies)} applies, "
            f"{stale_cell}, "
            f"peak queue {_metric_value(peak)}"
        )
    return lines


def _failover_per_point(scenario) -> List[bool]:
    """Whether each point composes per-node hazards with a cluster."""
    return [
        config.cluster.enabled and config.failures.enabled
        for _x, config in scenario.points
    ]


def format_failover(scenario, result: SweepResult) -> List[str]:
    """The failover block of a hazards-on-cluster report.

    One line per hazard point: crash count and downtime, transient
    faults, and how the cluster routed around the outages (reads that
    failed over to a live replica; writes that queued behind a down
    primary's recovery).
    """
    failover_per_point = _failover_per_point(scenario)
    if not any(failover_per_point):
        return []
    lines = ["", "failover (per-node hazards on the cluster):"]
    for (x, _config), active, analyzer in zip(
        scenario.points, failover_per_point, result.analyzers
    ):
        if not active:
            continue
        lines.append(
            f"  {x}: crashes {_metric_value(analyzer.mean('crashes'))} "
            f"(downtime {_metric_value(analyzer.mean('downtime_ms'))} ms), "
            f"transient faults "
            f"{_metric_value(analyzer.mean('transient_faults'))}, "
            f"read failovers "
            f"{_metric_value(analyzer.mean('read_failovers'))}, "
            f"write recovery waits "
            f"{_metric_value(analyzer.mean('write_recovery_waits'))}"
        )
    return lines


def _faults_per_point(scenario) -> List[bool]:
    """Whether each point runs the fault-tolerance layer."""
    return [
        config.cluster.enabled and config.faults.enabled
        for _x, config in scenario.points
    ]


#: The fault-layer counters the degradation block reports, in order:
#: ``(metric, label)`` pairs grouped into the two report lines.
_FAULT_LINE_ONE = (
    ("partitions", "partitions"),
    ("partition_ms", "partition ms"),
    ("gray_episodes", "gray episodes"),
    ("degraded_reads", "degraded reads"),
)
_FAULT_LINE_TWO = (
    ("remote_timeouts", "timeouts"),
    ("remote_retries", "retries"),
    ("abandoned_reads", "abandoned"),
    ("elections", "elections"),
    ("promotions", "promotions"),
    ("repair_pages", "repaired pages"),
    ("read_repairs", "read repairs"),
)


def format_faults(scenario, result: SweepResult) -> List[str]:
    """The degradation block of a fault-tolerance report.

    Two lines per fault point: the fault pressure (partitions and
    their total active time, gray episodes, degraded reads) and how
    the recovery machinery absorbed it (the retry ladder's timeouts/
    retries/abandons, elections and promotions, anti-entropy and
    read-repair traffic).
    """
    faults_per_point = _faults_per_point(scenario)
    if not any(faults_per_point):
        return []
    lines = ["", "fault tolerance (partitions, gray nodes, recovery):"]
    for (x, _config), active, analyzer in zip(
        scenario.points, faults_per_point, result.analyzers
    ):
        if not active:
            continue
        for pairs, indent in ((_FAULT_LINE_ONE, f"  {x}: "), (
            _FAULT_LINE_TWO,
            "     ",
        )):
            cells = [
                f"{label} {_metric_value(analyzer.mean(metric))}"
                for metric, label in pairs
            ]
            lines.append(indent + ", ".join(cells))
    return lines


#: Metric names the aggregated source tier flattens per replication
#: (see :meth:`repro.core.results.PhaseResults.to_metrics`).
_AGGREGATION_METRICS = (
    "aggregation_population",
    "calibrated_rate_tps",
    "calibration_iterations",
    "calibration_converged",
    "aggregate_transactions",
    "probe_transactions",
)


def _scenario_is_aggregated(scenario) -> bool:
    """Whether the scenario runs the flow-aggregated source tier."""
    return scenario.arrival_mode == "aggregated"


def _has_aggregation_metrics(analyzer) -> bool:
    metrics = set(analyzer.metrics())
    return all(name in metrics for name in _AGGREGATION_METRICS)


def format_aggregation(scenario, result: SweepResult) -> List[str]:
    """The flow-aggregation block of a scale scenario report.

    One line per point: the population the aggregate stream stood in
    for, the calibrated fixed-point rate (with how many pilot
    iterations it took and whether it converged within tolerance), the
    aggregate/probe transaction split, and the probe cohort's latency
    (mean and p95) — the per-user numbers only the probes can observe.
    """
    if not _scenario_is_aggregated(scenario):
        return []
    lines = [
        "",
        "flow aggregation (calibrated open stream + probe cohort):",
    ]
    for (x, _config), analyzer in zip(scenario.points, result.analyzers):
        if not _has_aggregation_metrics(analyzer):
            lines.append(f"  {x}: n/a (no aggregated phase metrics)")
            continue
        population = analyzer.mean("aggregation_population")
        rate = analyzer.mean("calibrated_rate_tps")
        iterations = analyzer.mean("calibration_iterations")
        converged = analyzer.mean("calibration_converged") >= 1.0
        aggregate = analyzer.mean("aggregate_transactions")
        probe = analyzer.mean("probe_transactions")
        line = (
            f"  {x}: N={population:.0f}, rate {_metric_value(rate)} tps "
            f"({iterations:.0f} pilot iters, "
            f"{'converged' if converged else 'NOT converged'}), "
            f"aggregate/probe txns {_metric_value(aggregate)}/"
            f"{_metric_value(probe)}"
        )
        metrics = set(analyzer.metrics())
        if "probe_mean_response_time_ms" in metrics:
            mean_ms = analyzer.interval("probe_mean_response_time_ms")
            p95_ms = analyzer.mean("probe_p95_response_time_ms")
            line += (
                f", probe {_metric_value(mean_ms.mean)} ms "
                f"±{_metric_value(mean_ms.half_width)} "
                f"(p95 {_metric_value(p95_ms)})"
            )
        lines.append(line)
    return lines


#: Metric names the steady-state pipeline flattens per replication
#: (see :meth:`repro.core.results.PhaseResults.to_metrics`).
_STEADY_METRICS = (
    "steady_response_time_ms",
    "steady_response_ci_ms",
    "steady_truncated",
    "steady_batches",
)


def _scenario_is_open(scenario) -> bool:
    """Whether the scenario drives an open (source-driven) system."""
    return scenario.arrival_mode != "closed"


def _has_steady_metrics(analyzer) -> bool:
    metrics = set(analyzer.metrics())
    return all(name in metrics for name in _STEADY_METRICS)


def format_steady_state(scenario, result: SweepResult) -> List[str]:
    """The steady-state block of an open-system scenario report.

    One line per point: the MSER-5 truncated batch-means response-time
    estimate with two half-widths — the across-replication CI of the
    per-replication point estimates, and the mean within-replication
    batch-means CI — plus how much warm-up MSER deleted and how many
    batches the within-run CI used.  The raw (transient-contaminated)
    mean stays in the table above; this block is the defensible number.
    """
    if not _scenario_is_open(scenario):
        return []
    lines = [
        "",
        "steady-state response time "
        "(MSER-5 truncation + batch means, per replication):",
    ]
    for (x, _config), analyzer in zip(scenario.points, result.analyzers):
        if not _has_steady_metrics(analyzer):
            lines.append(
                f"  {x}: n/a (too few observations for a steady-state estimate)"
            )
            continue
        point = analyzer.interval("steady_response_time_ms")
        batch_ci = analyzer.mean("steady_response_ci_ms")
        truncated = analyzer.mean("steady_truncated")
        observations = analyzer.mean("transactions")
        batches = analyzer.mean("steady_batches")
        lines.append(
            f"  {x}: {_metric_value(point.mean)} ms "
            f"±{_metric_value(point.half_width)} across replications "
            f"(batch CI ±{_metric_value(batch_ci)}, "
            f"truncated {_metric_value(truncated)}/"
            f"{_metric_value(observations)} obs, "
            f"{_metric_value(batches)} batches)"
        )
    return lines


def format_scenario(scenario, result: SweepResult) -> str:
    """Render one executed scenario as its golden text report."""
    spec = result.spec
    replications = result.analyzers[0].replications if result.analyzers else 0
    lines = [
        f"Scenario {scenario.name}: {scenario.title}",
        f"(arrivals: {scenario.arrival_mode}; mean of {replications} "
        f"replications, {spec.confidence:.0%} CI)",
    ]
    header = [scenario.x_label]
    widths = [max(len(scenario.x_label), 10)]
    for metric in scenario.metrics:
        header.extend([metric, "±CI"])
        widths.extend([max(len(metric), 12), 8])
    lines.append(_format_row(header, widths))
    for x, analyzer in zip(result.x_values, result.analyzers):
        row: List[str] = [str(x)]
        for metric in scenario.metrics:
            ci = analyzer.interval(metric)
            row.extend([_metric_value(ci.mean), _metric_value(ci.half_width)])
        lines.append(_format_row(row, widths))
    lines.extend(format_cluster_detail(scenario, result))
    lines.extend(format_replication(scenario, result))
    lines.extend(format_failover(scenario, result))
    lines.extend(format_faults(scenario, result))
    lines.extend(format_aggregation(scenario, result))
    lines.extend(format_steady_state(scenario, result))
    return "\n".join(lines)


def scenario_to_json(scenario, result: SweepResult) -> Dict[str, Any]:
    """JSON-ready summary of one executed scenario (CLI ``--json``)."""
    replications = result.analyzers[0].replications if result.analyzers else 0
    metrics: Dict[str, Any] = {}
    for metric in scenario.metrics:
        intervals = result.intervals(metric)
        metrics[metric] = {
            "means": [ci.mean for ci in intervals],
            "half_widths": [ci.half_width for ci in intervals],
        }
    payload = {
        "scenario": scenario.name,
        "title": scenario.title,
        "arrival_mode": scenario.arrival_mode,
        "x_label": scenario.x_label,
        "x_values": [str(x) for x in result.x_values],
        "replications": replications,
        "base_seed": scenario.base_seed,
        "metrics": metrics,
    }
    kernel: Dict[str, Any] = {}
    for counter in _KERNEL_COUNTERS:
        metric = f"kernel_{counter}"
        if all(metric in analyzer.metrics() for analyzer in result.analyzers):
            kernel[counter] = {
                "means": [
                    analyzer.mean(metric) for analyzer in result.analyzers
                ]
            }
    if kernel:
        payload["kernel"] = kernel
    if _scenario_is_aggregated(scenario):
        aggregation: Dict[str, Any] = {
            "populations": [],
            "calibrated_rates_tps": [],
            "calibration_iterations": [],
            "calibration_converged": [],
            "aggregate_transactions": [],
            "probe_transactions": [],
            "probe_mean_response_times_ms": [],
            "probe_p95_response_times_ms": [],
        }
        for analyzer in result.analyzers:
            if not _has_aggregation_metrics(analyzer):
                for values in aggregation.values():
                    values.append(None)
                continue
            metrics_present = set(analyzer.metrics())
            aggregation["populations"].append(
                analyzer.mean("aggregation_population")
            )
            aggregation["calibrated_rates_tps"].append(
                analyzer.mean("calibrated_rate_tps")
            )
            aggregation["calibration_iterations"].append(
                analyzer.mean("calibration_iterations")
            )
            aggregation["calibration_converged"].append(
                analyzer.mean("calibration_converged") >= 1.0
            )
            aggregation["aggregate_transactions"].append(
                analyzer.mean("aggregate_transactions")
            )
            aggregation["probe_transactions"].append(
                analyzer.mean("probe_transactions")
            )
            for key, metric in (
                ("probe_mean_response_times_ms", "probe_mean_response_time_ms"),
                ("probe_p95_response_times_ms", "probe_p95_response_time_ms"),
            ):
                aggregation[key].append(
                    analyzer.mean(metric) if metric in metrics_present else None
                )
        payload["aggregation"] = aggregation
    if _scenario_is_open(scenario):
        steady: Dict[str, Any] = {
            "method": "mser5+batch-means",
            "metric": "response_time_ms",
            "points": [],
            "replication_half_widths": [],
            "batch_half_widths": [],
            "truncated": [],
            "batches": [],
        }
        for analyzer in result.analyzers:
            if not _has_steady_metrics(analyzer):
                for key in (
                    "points",
                    "replication_half_widths",
                    "batch_half_widths",
                    "truncated",
                    "batches",
                ):
                    steady[key].append(None)
                continue
            interval = analyzer.interval("steady_response_time_ms")
            steady["points"].append(interval.mean)
            steady["replication_half_widths"].append(interval.half_width)
            steady["batch_half_widths"].append(analyzer.mean("steady_response_ci_ms"))
            steady["truncated"].append(analyzer.mean("steady_truncated"))
            steady["batches"].append(analyzer.mean("steady_batches"))
        payload["steady_state"] = steady
    servers_per_point = _cluster_servers_per_point(scenario)
    if any(servers_per_point):
        payload["cluster"] = {
            "servers": servers_per_point,
            "per_server_utilization": [
                [
                    analyzer.mean(f"server{i}_utilization")
                    for i in range(servers)
                ]
                for servers, analyzer in zip(servers_per_point, result.analyzers)
            ],
        }
    async_per_point = _replication_async_per_point(scenario)
    if any(async_per_point):
        replication: Dict[str, Any] = {
            "modes": [
                config.replication.mode for _x, config in scenario.points
            ],
            "read_quorums": [
                config.replication.read_quorum
                for _x, config in scenario.points
            ],
            "write_quorums": [
                config.replication.write_quorum
                for _x, config in scenario.points
            ],
            "replica_lag_ms": [],
            "replica_applies": [],
            "stale_reads": [],
            "stale_reads_per_1000_reads": [],
        }
        for is_async, analyzer in zip(async_per_point, result.analyzers):
            present = set(analyzer.metrics())
            for key, metric in (
                ("replica_lag_ms", "replica_lag_ms"),
                ("replica_applies", "replica_applies"),
                ("stale_reads", "stale_reads"),
                (
                    "stale_reads_per_1000_reads",
                    "stale_reads_per_1000_reads",
                ),
            ):
                replication[key].append(
                    analyzer.mean(metric)
                    if is_async and metric in present
                    else None
                )
        payload["replication"] = replication
    faults_per_point = _faults_per_point(scenario)
    if any(faults_per_point):
        fault_metrics = [metric for metric, _label in _FAULT_LINE_ONE] + [
            metric for metric, _label in _FAULT_LINE_TWO
        ]
        faults: Dict[str, Any] = {metric: [] for metric in fault_metrics}
        for active, analyzer in zip(faults_per_point, result.analyzers):
            present = set(analyzer.metrics())
            for metric in fault_metrics:
                faults[metric].append(
                    analyzer.mean(metric)
                    if active and metric in present
                    else None
                )
        payload["faults"] = faults
    return payload


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
