"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``       train one workload with one method and print the summary
``compare``   run several methods on one workload, print a table
``jobs``      schedule a multi-tenant job file over the tidal trace
``list``      show available workloads, methods, presets and models
``trace``     print the tidal utilisation trace and idle windows
``analyze``   diagnose exported traces: ``analyze report <trace.jsonl>``
              prints the critical-path/straggler/anomaly report,
              ``analyze diff <a.jsonl> <b.jsonl>`` compares two runs
              phase-by-phase (``--format table|json|markdown``)

``run``/``compare`` accept ``--faults SPEC`` to inject unplanned
faults: semicolon-separated clauses like
``crash:epoch=1,soc=3``, ``flap:epoch=2,pcb=0,mult=0.2,until=4``,
``straggler:epoch=1,soc=7,factor=0.5``, ``storm:epoch=3,groups=2`` or
``random:seed=7,epochs=8,crashes=4,flaps=1``.  ``--fault-mode``
selects how *baselines* react (``fail-stop`` aborts, ``continue``
keeps the survivors); SoCFlow always recovers.  ``jobs --faults``
takes ``crash`` clauses only: the job scheduler prices nothing else.

Telemetry: ``--trace PATH`` records every simulated span (compute,
allreduce, leader sync, NIC waits, recovery, ...) and writes a Chrome
``chrome://tracing``/Perfetto trace (or a JSONL event log with
``--trace-format jsonl``); ``--metrics PATH`` writes the metrics
registry as JSONL.  Either flag also prints the per-epoch breakdown
table, and traced runs print the live bottleneck summary at exit.
Paths ending in ``.gz`` are gzip-compressed transparently.
``compare`` writes one file per method (``run.ring.json``).

Examples
--------
::

    python -m repro.cli list
    python -m repro.cli run --workload vgg11 --method socflow --socs 32
    python -m repro.cli run --workload vgg11 --faults "crash:epoch=1,soc=3"
    python -m repro.cli run --workload vgg11 --trace run.json \
        --metrics run-metrics.jsonl
    python -m repro.cli compare --workload resnet18 --methods ring,socflow
    python -m repro.cli jobs --spec examples/jobs.yaml --report report.json
    python -m repro.cli trace --threshold 0.25
    python -m repro.cli analyze report run.jsonl.gz --format markdown
    python -m repro.cli analyze diff eager.jsonl graph.jsonl
"""

from __future__ import annotations

import argparse
import sys

from .cluster import (ClusterTopology, FaultSpecError, SoCCrash, TidalTrace,
                      parse_fault_spec)
from .cluster.faults import event_summary
from .core import SoCFlow, SoCFlowOptions
from .distributed import STRATEGY_REGISTRY, build_strategy
from .harness import SCALE_PRESETS, WORKLOADS, format_table, make_run_config
from .nn.models import MODEL_REGISTRY
from .telemetry import Telemetry, render_epoch_table, write_trace

__all__ = ["main", "build_parser"]

_ALL_METHODS = sorted(STRATEGY_REGISTRY) + ["socflow"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SoCFlow reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one workload with one method")
    _add_run_args(run)
    run.add_argument("--method", default="socflow", choices=_ALL_METHODS)

    compare = sub.add_parser("compare",
                             help="run several methods on one workload")
    _add_run_args(compare)
    compare.add_argument("--methods", default="ring,fedavg,socflow",
                         help="comma-separated method names")

    jobs = sub.add_parser(
        "jobs", help="schedule a multi-tenant job file over the tidal trace")
    jobs.add_argument("--spec", required=True, metavar="PATH",
                      help="YAML/JSON job file ({cluster: ..., jobs: [...]})")
    jobs.add_argument("--socs", type=int, default=None,
                      help="cluster size (overrides the file's cluster "
                           "section; default 32)")
    jobs.add_argument("--seed", type=int, default=None,
                      help="session-trace seed (overrides the file)")
    jobs.add_argument("--horizon", type=float, default=None,
                      help="scheduling horizon in hours (default 24)")
    jobs.add_argument("--start-hour", type=float, default=None,
                      help="simulation start on the tidal day (default 0)")
    jobs.add_argument("--quantum", type=float, default=None,
                      help="minimum scheduling-round length, hours "
                           "(default 0.25)")
    jobs.add_argument("--sessions-per-hour", type=float, default=None,
                      help="peak user-session arrival rate (default 60)")
    jobs.add_argument("--static-window", default=None, metavar="START:HOURS",
                      help="disable elasticity: jobs run only inside the "
                           "fixed window, e.g. '22:8'")
    jobs.add_argument("--workers", type=_positive_int, default=1,
                      help="host processes for logical-group real math")
    jobs.add_argument("--faults", default=None, metavar="SPEC",
                      help="fault-injection spec (epochs = rounds)")
    jobs.add_argument("--serve", action="store_true",
                      help="co-schedule with the request-level serving "
                           "plane: inference replicas bid for SoCs under "
                           "an SLO and preempt training on pressure")
    jobs.add_argument("--serve-model", default=None, metavar="MODEL",
                      help="model the replicas serve (default resnet18)")
    jobs.add_argument("--peak-rps", type=float, default=None,
                      help="peak aggregate request rate (default 60)")
    jobs.add_argument("--slo-ms", type=float, default=None,
                      help="p99 latency SLO per check window "
                           "(default 600 ms)")
    jobs.add_argument("--flash-crowd", action="append", default=None,
                      metavar="START:DUR:MULT",
                      help="inject a flash crowd (hours, hours, rate "
                           "multiplier); repeatable")
    jobs.add_argument("--min-replicas", type=int, default=None,
                      help="serving floor (default 1)")
    jobs.add_argument("--max-replicas", type=int, default=None,
                      help="serving ceiling (default: the cluster)")
    jobs.add_argument("--report", default=None, metavar="PATH",
                      help="write the schedule report as JSON")
    _add_fusion_args(jobs)
    _add_telemetry_args(jobs)

    sub.add_parser("list", help="show workloads, methods, presets, models")

    trace = sub.add_parser("trace", help="print the tidal trace")
    trace.add_argument("--threshold", type=float, default=0.25)
    trace.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser(
        "analyze",
        help="diagnose exported JSONL traces (critical path, stragglers, "
             "run-vs-run diffs)")
    analyze_sub = analyze.add_subparsers(dest="analyze_command",
                                         required=True)
    report = analyze_sub.add_parser(
        "report", help="bottleneck report for one trace")
    report.add_argument("trace_file", metavar="TRACE.jsonl",
                        help="JSONL trace exported with --trace-format "
                             "jsonl (.gz accepted)")
    report.add_argument("--top", type=_positive_int, default=8,
                        help="critical-path segments to show (default 8)")
    _add_analyze_args(report)
    diff = analyze_sub.add_parser(
        "diff", help="compare two traces (A = baseline, B = new)")
    diff.add_argument("trace_a", metavar="A.jsonl")
    diff.add_argument("trace_b", metavar="B.jsonl")
    diff.add_argument("--threshold", type=float, default=0.02,
                      help="relative significance floor (default 0.02)")
    _add_analyze_args(diff)
    return parser


def _add_analyze_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", default="table",
                        choices=("table", "json", "markdown"),
                        help="output format (default: table)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the rendered report to PATH instead "
                             "of stdout")


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="vgg11",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--preset", default="quick",
                        choices=sorted(SCALE_PRESETS))
    parser.add_argument("--socs", type=int, default=32)
    parser.add_argument("--groups", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="host processes training logical groups in "
                             "parallel (SoCFlow real math); results are "
                             "bit-identical for any value (default: 1)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection spec, e.g. "
                             "'crash:epoch=1,soc=3;flap:epoch=2,pcb=0,"
                             "mult=0.2,until=4'")
    parser.add_argument("--fault-mode", default="fail-stop",
                        choices=("fail-stop", "continue"),
                        help="baseline reaction to dead SoCs "
                             "(SoCFlow always recovers)")
    _add_fusion_args(parser)
    _add_telemetry_args(parser)


def _add_fusion_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fusion-threshold-mb", type=float, default=None,
                        metavar="MB",
                        help="bucketed gradient fusion: close a bucket at "
                             "this many MiB of simulated-scale gradients "
                             "and overlap its collective with backward "
                             "(default: whole-model sync)")
    parser.add_argument("--fusion-max-ops", type=_positive_int, default=None,
                        metavar="N",
                        help="bucketed gradient fusion: at most N tensors "
                             "per bucket (combines with the MiB threshold; "
                             "either knob alone enables fusion)")
    parser.add_argument("--graph", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="compile the training step: trace once, replay "
                             "many with a preallocated tensor arena "
                             "(bit-identical to eager; default: off)")


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a trace of the simulated run "
                             "(open chrome format in Perfetto)")
    parser.add_argument("--trace-format", default="chrome",
                        choices=("chrome", "jsonl"),
                        help="trace file format (default: chrome)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the metrics registry as JSONL")


def _parse_faults(args):
    """Parse ``--faults``; raises FaultSpecError on malformed specs."""
    if args.faults is None:
        return None
    return parse_fault_spec(args.faults,
                            ClusterTopology(num_socs=args.socs))


def _telemetry_for(args) -> Telemetry | None:
    if args.trace is None and args.metrics is None:
        return None
    return Telemetry.active()


def _train(args, method: str, fault_schedule=None, telemetry=None):
    groups = args.groups or max(2, args.socs // 4)
    config = make_run_config(args.workload, args.preset,
                             num_socs=args.socs, num_groups=groups,
                             max_epochs=args.epochs, seed=args.seed,
                             fault_schedule=fault_schedule,
                             fault_mode=getattr(args, "fault_mode",
                                                "fail-stop"),
                             telemetry=telemetry,
                             workers=getattr(args, "workers", 1),
                             fusion_threshold_mb=getattr(
                                 args, "fusion_threshold_mb", None),
                             fusion_max_ops=getattr(
                                 args, "fusion_max_ops", None),
                             graph=bool(getattr(args, "graph", None)))
    if method == "socflow":
        return SoCFlow(SoCFlowOptions()).train(config)
    return build_strategy(method).train(config)


def _result_row(method: str, result) -> list:
    shares = result.phase_shares()
    return [method, f"{result.best_accuracy:.1%}",
            round(result.sim_time_hours, 4),
            round(result.energy.total_kj, 1),
            f"{shares.get('sync', 0.0):.0%}"]


_HEADERS = ["method", "best_acc", "sim_hours", "energy_kJ", "sync_share"]


def _fault_summary(result) -> str:
    if result.extra.get("aborted"):
        return (f"faults: run ABORTED at epoch "
                f"{result.extra['abort_epoch']} "
                f"(dead SoCs: {result.extra['dead_socs']})")
    recoveries = result.extra.get("recoveries", [])
    if "all_dead_epoch" in result.extra:
        parts = [f"faults: every SoC dead at epoch "
                 f"{result.extra['all_dead_epoch']}; stopped with "
                 f"{len(recoveries)} recovery step(s)"]
    else:
        parts = [f"faults: completed with {len(recoveries)} "
                 f"recovery step(s)"]
    for r in recoveries:
        parts.append(f"  epoch {r['epoch']}: dead={r['dead_socs']} "
                     f"-> {r['num_groups']} groups "
                     f"(rolled back to epoch {r['rolled_back_to']})")
    return "\n".join(parts)


def _network_summary(result) -> str:
    """One-line NIC health report for the run summary."""
    degraded = result.extra.get("degraded_pcbs") or {}
    if degraded:
        detail = ", ".join(f"{pcb}@{mult:.2f}"
                           for pcb, mult in sorted(degraded.items()))
    else:
        detail = "none"
    retries = result.extra.get("network_retries", 0)
    return f"network: retries={retries}, degraded PCBs: {detail}"


def _method_path(path: str, method: str) -> str:
    """Insert the method name before the extension: run.json -> run.ring.json."""
    base, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.{method}"
    return f"{base}.{method}.{ext}"


def _emit_telemetry(args, telemetry, out, method: str | None = None) -> None:
    """Write trace/metrics files, print the per-epoch table and the
    live bottleneck summary.

    Analysis runs before the metrics file is written so any ``health.*``
    anomaly series it emits land in the export.
    """
    if telemetry is None:
        return
    if telemetry.epoch_rows:
        title = f"per-epoch breakdown ({method})" if method \
            else "per-epoch breakdown"
        print(f"[{title}]", file=out)
        print(render_epoch_table(telemetry.epoch_rows), file=out)
    if telemetry.tracer.enabled and len(telemetry.tracer.records):
        from .telemetry import analyze_records
        from .telemetry.analysis import render_live_summary
        report = analyze_records(telemetry.tracer.records,
                                 metrics=telemetry.metrics)
        print(render_live_summary(report), file=out)
    if args.trace is not None:
        path = (args.trace if method is None
                else _method_path(args.trace, method))
        write_trace(telemetry.tracer, path, fmt=args.trace_format)
        print(f"trace: {len(telemetry.tracer.records)} records -> {path} "
              f"({args.trace_format})", file=out)
    if args.metrics is not None:
        path = (args.metrics if method is None
                else _method_path(args.metrics, method))
        telemetry.metrics.write_jsonl(path)
        print(f"metrics: {len(telemetry.metrics)} series -> {path}",
              file=out)
        for row in telemetry.metrics.collect():
            if row["name"] == "sync.fusion_clamped":
                print(f"fusion: {int(row['value'])} bucketed step(s) clamped "
                      "to the whole-model sync", file=out)


def cmd_run(args, out) -> int:
    try:
        fault_schedule = _parse_faults(args)
    except FaultSpecError as err:
        print(f"bad --faults spec: {err}", file=sys.stderr)
        return 2
    telemetry = _telemetry_for(args)
    result = _train(args, args.method, fault_schedule, telemetry)
    print(format_table(_HEADERS, [_result_row(args.method, result)]),
          file=out)
    print("accuracy per epoch: "
          + " ".join(f"{a:.2f}" for a in result.accuracy_history), file=out)
    print(_network_summary(result), file=out)
    if fault_schedule is not None:
        print(_fault_summary(result), file=out)
    _emit_telemetry(args, telemetry, out)
    return 0


def cmd_compare(args, out) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in _ALL_METHODS]
    if unknown:
        print(f"unknown methods: {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        fault_schedule = _parse_faults(args)
    except FaultSpecError as err:
        print(f"bad --faults spec: {err}", file=sys.stderr)
        return 2
    rows = []
    for method in methods:
        telemetry = _telemetry_for(args)
        rows.append(_result_row(method,
                                _train(args, method, fault_schedule,
                                       telemetry)))
        _emit_telemetry(args, telemetry, out, method=method)
    print(format_table(_HEADERS, rows), file=out)
    return 0


def _parse_static_window(spec: str) -> tuple[float, float]:
    """``'22:8'`` -> (start hour 22.0, duration 8.0 h)."""
    start_s, sep, hours_s = spec.partition(":")
    try:
        start, hours = float(start_s), float(hours_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --static-window {spec!r}; expected START:HOURS") from None
    if not sep or hours <= 0:
        raise argparse.ArgumentTypeError(
            f"bad --static-window {spec!r}; expected START:HOURS")
    return start, hours


def _job_row(record) -> list:
    return [record.job.id, record.status, record.job.priority,
            f"{record.epochs_done}/{record.job.epochs}",
            f"{record.final_accuracy:.1%}",
            round(record.soc_hours, 1), record.resizes, record.preemptions]


_JOB_HEADERS = ["job", "status", "prio", "epochs", "accuracy", "soc_h",
                "resizes", "preempts"]


def cmd_jobs(args, out) -> int:
    from .cluster.workload import SessionSimulator
    from .jobs import ElasticScheduler, JobAdmissionError, JobSpecError, \
        load_job_file
    try:
        jobs, cluster = load_job_file(args.spec)
    except (JobSpecError, OSError) as err:
        print(f"bad job file: {err}", file=sys.stderr)
        return 2

    def setting(cli_value, key, default):
        if cli_value is not None:
            return cli_value
        return cluster.get(key, default)

    socs = int(setting(args.socs, "socs", 32))
    seed = int(setting(args.seed, "seed", 0))
    peak = float(setting(args.sessions_per_hour,
                         "peak_sessions_per_hour", 60.0))
    horizon = float(setting(args.horizon, "horizon_hours", 24.0))
    start_hour = float(setting(args.start_hour, "start_hour", 0.0))
    quantum = float(setting(args.quantum, "quantum_hours", 0.25))
    topology = ClusterTopology(num_socs=socs)
    try:
        fault_schedule = (None if args.faults is None
                          else parse_fault_spec(args.faults, topology))
        unpriced = sorted({event_summary(event)["fault"]
                           for event in fault_schedule or ()
                           if not isinstance(event, SoCCrash)})
        if unpriced:
            raise FaultSpecError(
                "the job scheduler honours SoC crashes only (a crashed "
                "SoC leaves the idle pool); "
                f"{', '.join(unpriced)} would never be priced")
    except FaultSpecError as err:
        print(f"bad --faults spec: {err}", file=sys.stderr)
        return 2
    window = None
    if args.static_window is not None:
        try:
            window = _parse_static_window(args.static_window)
        except argparse.ArgumentTypeError as err:
            print(str(err), file=sys.stderr)
            return 2
    telemetry = _telemetry_for(args)
    fusion_threshold = setting(args.fusion_threshold_mb,
                               "fusion_threshold_mb", None)
    fusion_max_ops = setting(args.fusion_max_ops, "fusion_max_ops", None)
    graph = setting(args.graph, "graph", False)
    common = dict(
        quantum_hours=quantum, horizon_hours=horizon,
        start_hour=start_hour, elastic=window is None, window=window,
        fault_schedule=fault_schedule, telemetry=telemetry,
        workers=args.workers,
        fusion_threshold_mb=(None if fusion_threshold is None
                             else float(fusion_threshold)),
        fusion_max_ops=(None if fusion_max_ops is None
                        else int(fusion_max_ops)),
        graph=bool(graph))
    if args.serve:
        from .serving import (ArrivalProcess, FlashCrowd, Region,
                              ServiceModel, ServingCoScheduler,
                              ServingPlane)
        if telemetry is not None and telemetry.metrics.enabled \
                and telemetry.metrics.histogram_reservoir is None:
            # request-resolution latencies: bound the histograms before
            # any instrument exists so a day of traffic stays O(4k)
            telemetry.metrics.histogram_reservoir = 4096
        try:
            crowds = [FlashCrowd.parse(spec)
                      for spec in (args.flash_crowd or
                                   cluster.get("flash_crowds", []))]
        except ValueError as err:
            print(f"bad --flash-crowd spec: {err}", file=sys.stderr)
            return 2
        serve_model = str(setting(args.serve_model, "serve_model",
                                  "resnet18"))
        arrivals = ArrivalProcess(
            [Region("global",
                    float(setting(args.peak_rps, "peak_rps", 60.0)))],
            start_hour=start_hour, horizon_hours=horizon,
            flash_crowds=crowds, seed=seed)
        try:
            service = ServiceModel.for_model(serve_model,
                                             soc=topology.soc, max_batch=4)
        except (KeyError, ValueError):
            print(f"unknown --serve-model {serve_model!r}",
                  file=sys.stderr)
            return 2
        max_replicas = setting(args.max_replicas, "max_replicas", None)
        plane = ServingPlane(
            arrivals, service,
            slo_ms=float(setting(args.slo_ms, "slo_ms", 600.0)),
            min_replicas=int(setting(args.min_replicas,
                                     "min_replicas", 1)),
            max_replicas=(None if max_replicas is None
                          else int(max_replicas)),
            check_interval_hours=min(quantum, 0.25),
            telemetry=telemetry)
        scheduler = ServingCoScheduler(topology, plane, **common)
    else:
        simulator = SessionSimulator(topology, peak_sessions_per_hour=peak,
                                     seed=seed)
        sessions = simulator.simulate_day()
        if telemetry is not None and telemetry.metrics.enabled:
            # overload on the session side used to be invisible
            telemetry.metrics.counter("serving.dropped_sessions").inc(
                simulator.dropped_sessions)
        scheduler = ElasticScheduler(topology, sessions, **common)
    admitted = 0
    for job in jobs:
        try:
            scheduler.submit(job)
            admitted += 1
        except JobAdmissionError as err:
            print(f"rejected: {err}", file=out)
    if not admitted:
        print("no jobs admitted", file=sys.stderr)
        return 1
    report = scheduler.run()
    rows = [_job_row(report.jobs[job_id]) for job_id in sorted(report.jobs)]
    print(format_table(_JOB_HEADERS, rows), file=out)
    mode = "elastic" if window is None else \
        f"static window {window[0]:g}h+{window[1]:g}h"
    print(f"{mode}: {len(report.completed)}/{len(report.jobs)} jobs "
          f"completed over {report.horizon_hours:g} h in {report.rounds} "
          f"rounds", file=out)
    print(f"idle-capacity utilisation: {report.utilisation:.1%} "
          f"({report.used_soc_hours:.1f} of "
          f"{report.available_soc_hours:.1f} SoC-hours)", file=out)
    serving = report.extra.get("serving")
    if serving is not None:
        p99 = serving.get("max_p99_ms")
        print(f"serving: {serving['served']}/{serving['requests']} requests "
              f"served ({serving['dropped']} shed), worst window p99 "
              f"{'-' if p99 is None else f'{p99:.0f}ms'} vs SLO "
              f"{serving['slo_ms']:.0f}ms, "
              f"{serving['violation_windows']} violation window(s), "
              f"replicas up to {serving['max_replicas_seen']} "
              f"({serving['scale_ups']} scale-ups, "
              f"{serving['preempted_socs']} preempted from training)",
              file=out)
    if args.report is not None:
        import json
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.report}", file=out)
    _emit_telemetry(args, telemetry, out)
    return 0


def cmd_list(args, out) -> int:
    del args
    print("workloads:", ", ".join(sorted(WORKLOADS)), file=out)
    print("methods:  ", ", ".join(_ALL_METHODS), file=out)
    print("presets:  ", ", ".join(sorted(SCALE_PRESETS)), file=out)
    print("models:   ", ", ".join(sorted(MODEL_REGISTRY)), file=out)
    return 0


def cmd_trace(args, out) -> int:
    trace = TidalTrace(seed=args.seed)
    rows = [[hour, f"{trace.busy_ratio(hour):.0%}"]
            for hour in range(0, 24, 2)]
    print(format_table(["hour", "busy"], rows), file=out)
    window = trace.longest_idle_window(args.threshold)
    print(f"longest idle window: {window.duration_hours:.1f} h "
          f"(threshold {args.threshold:.0%})", file=out)
    return 0


def cmd_analyze(args, out) -> int:
    from .telemetry import analyze_trace, diff_reports
    from .telemetry.analysis import render_diff, render_report
    try:
        if args.analyze_command == "report":
            rendered = render_report(analyze_trace(args.trace_file),
                                     fmt=args.format, top=args.top)
        else:
            diff = diff_reports(analyze_trace(args.trace_a),
                                analyze_trace(args.trace_b),
                                threshold=args.threshold)
            rendered = render_diff(diff, fmt=args.format)
    except (OSError, ValueError) as err:
        print(f"analyze: {err}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(rendered)
        print(f"analysis -> {args.out}", file=out)
    else:
        print(rendered, end="", file=out)
    return 0


_COMMANDS = {"run": cmd_run, "compare": cmd_compare, "jobs": cmd_jobs,
             "list": cmd_list, "trace": cmd_trace, "analyze": cmd_analyze}


def main(argv: list[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
