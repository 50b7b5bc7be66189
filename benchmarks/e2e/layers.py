"""Per-layer metrics of one traced run, by the names in BENCHMARK.json.

Three sources, never mixed in one number:

- **spans** (:mod:`spans`): host seconds a layer was busy inside the
  workload's own run — ``<layer>.self_s`` and the timings of calls the
  run itself made (``jobs.run_epoch_ms``, ``serving.advance_ms`` …);
- **counts and simulated-clock values** read off the run's result at
  the same boundaries (``serving.requests``, ``cluster.sim_sync_s`` …),
  exact by seed;
- **probes** (:mod:`probes`): controlled repetitions of one entry point
  on the workload's model and batch shape (``nn.step_eager_ms`` …).

A metric a workload does not exercise is reported as ``0`` — the layer
did no such work there — so every run prints every name.
"""

from __future__ import annotations

from collections import defaultdict

from probes import percentile

__all__ = ["LAYERS", "layer_metrics"]

#: the ``repro.<package>`` layers that own spans, plus the harness itself
LAYERS = ("nn", "quant", "comm", "cluster", "core", "jobs", "serving",
          "telemetry", "data", "harness", "bench")


def _p50(values: "list[float]") -> float:
    return percentile(values, 50) if values else 0.0


def _total_ms(recorder, name: str) -> float:
    return sum(recorder.durations_ms(name))


def _train_metrics(m: dict, result, state: dict) -> None:
    extra = result.extra
    breakdown = result.breakdown
    alpha, cpu_share = extra["alpha_history"][-1]
    m["quant.alpha"] = alpha
    m["quant.cpu_fraction"] = cpu_share
    sync_s = breakdown.get("sync", 0.0)
    m["comm.sync_hidden_share"] = (extra["sync_hidden_s"] / sync_s
                                   if sync_s else 0.0)
    m["cluster.sim_compute_s"] = breakdown.get("compute", 0.0)
    m["cluster.sim_sync_s"] = sync_s
    m["cluster.sim_update_s"] = breakdown.get("update", 0.0)
    m["cluster.sim_energy_kj"] = result.energy.total_kj
    m["cluster.network_retries"] = extra["network_retries"]
    m["core.recoveries"] = len(extra.get("recoveries", []))
    m["core.num_cgs"] = extra["num_cgs"]
    m["core.final_accuracy"] = result.final_accuracy
    for precision_stats in (extra.get("graph_stats") or {}).values():
        m["nn.graph_captures"] += precision_stats["captures"]
        m["nn.graph_replays"] += precision_stats["replays"]
        m["nn.graph_fallbacks"] += precision_stats["fallbacks"]
    telemetry = state["config"].telemetry
    if telemetry is not None:
        nic_bytes = sum(row["value"] for row in telemetry.metrics.collect()
                        if row["name"] == "nic.bytes")
        m["comm.nic_bytes_per_epoch"] = nic_bytes / max(result.epochs_run, 1)
        m["telemetry.records"] = len(telemetry.tracer.records)
        m["telemetry.trace_bytes"] = state["trace_bytes"]
        m["telemetry.critical_path_coverage"] = state["report"].coverage


def _day_metrics(m: dict, report, recorder, table: dict) -> None:
    records = list(report.jobs.values())
    m["jobs.rounds"] = report.rounds
    m["jobs.resizes"] = sum(r.resizes for r in records)
    m["jobs.preemptions"] = sum(r.preemptions for r in records)
    m["jobs.idle_utilisation"] = report.utilisation
    m["core.final_accuracy"] = (sum(r.final_accuracy for r in records)
                                / len(records))
    run_self_s = table["spans"].get(
        "jobs.ElasticScheduler.run", {}).get("self_s", 0.0)
    m["jobs.round_overhead_ms"] = run_self_s * 1e3 / max(report.rounds, 1)
    m["jobs.run_epoch_ms"] = _p50(recorder.durations_ms("jobs.run_epoch"))
    m["jobs.resize_ms"] = _p50(recorder.durations_ms("jobs.resize"))

    # per-job cost clocks and energy meters, summed over tenants
    executions = list(recorder.executions.values())
    hidden_s = 0.0
    for execution in executions:
        clock, energy = execution.cost.clock, execution.cost.energy
        phases = clock.breakdown()
        m["cluster.sim_compute_s"] += phases.get("compute", 0.0)
        m["cluster.sim_sync_s"] += phases.get("sync", 0.0)
        m["cluster.sim_update_s"] += phases.get("update", 0.0)
        m["cluster.sim_energy_kj"] += energy.report.total_kj
        m["cluster.network_retries"] += execution.cost.fabric.total_retries
        hidden_s += clock.attributed_breakdown().get("sync", 0.0)
        m["core.num_cgs"] = max(m["core.num_cgs"],
                                execution.plan.num_cgs
                                if execution.plan is not None else 0)
    if m["cluster.sim_sync_s"]:
        m["comm.sync_hidden_share"] = hidden_s / m["cluster.sim_sync_s"]
    mixed = [e for e in executions if e.job.mixed]
    if mixed:
        m["quant.alpha"] = mixed[0].controller.alpha
        m["quant.cpu_fraction"] = mixed[0].controller.cpu_share

    serving = report.extra.get("serving")
    if serving is None:
        return
    advance_ms = recorder.durations_ms("serving.advance")
    m["serving.arrivals_gen_s"] = _total_ms(
        recorder, "serving.ArrivalProcess") / 1e3
    m["serving.requests"] = serving["requests"]
    m["serving.dispatch_us_per_request"] = (
        sum(advance_ms) * 1e3 / max(serving["requests"], 1))
    m["serving.advance_ms"] = _p50(advance_ms)
    m["serving.advance_max_ms"] = max(advance_ms, default=0.0)
    m["serving.shed"] = serving["dropped"]
    m["serving.scale_ups"] = serving["scale_ups"]
    m["serving.scale_downs"] = serving["scale_downs"]
    m["serving.preempted_socs"] = serving["preempted_socs"]
    m["serving.replica_soc_hours"] = serving["replica_soc_hours"]
    m["serving.p99_ms"] = serving["max_p99_ms"]
    m["serving.slo_violation_windows"] = serving["violation_windows"]


def layer_metrics(names: "list[str]", recorder, table: dict, state: dict,
                  result, probe_metrics: dict, kind: str) -> dict:
    """Every per-layer metric in ``names`` for one traced run
    (``table`` is ``recorder.table()``).

    Raises ``KeyError`` for a value computed under a name BENCHMARK.json
    does not list: the two must not drift apart silently.
    """
    m: dict = defaultdict(float, probe_metrics)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table["layers"].get(layer, {}).get(
            "self_s", 0.0)
    m["bench.spans"] = len(recorder.spans)
    m["core.train_samples"] = recorder.work("core.train_batch")
    m["core.recovery_ms"] = _total_ms(recorder, "core.reform_groups")
    m["data.load_dataset_ms"] = _total_ms(recorder, "data.load_dataset")
    # make_run_config nests load_dataset: report its own share only
    m["harness.make_run_config_ms"] = table["spans"].get(
        "harness.make_run_config", {}).get("self_s", 0.0) * 1e3
    m["cluster.session_sim_ms"] = _total_ms(recorder, "cluster.simulate_day")
    m["telemetry.export_jsonl_ms"] = _total_ms(recorder,
                                               "telemetry.write_trace")
    m["telemetry.analyze_ms"] = _total_ms(recorder,
                                          "telemetry.analyze_trace")
    train = table["spans"].get("core.SoCFlow.train")
    if train is not None:
        m["core.epoch_overhead_share"] = train["self_s"] / train["total_s"]
    if kind == "train":
        _train_metrics(m, result, state)
    else:
        _day_metrics(m, result, recorder, table)

    unlisted = sorted(set(m) - set(names))
    if unlisted:
        raise KeyError(f"computed but not in BENCHMARK.json: {unlisted}")
    return {name: float(m[name]) for name in names}
