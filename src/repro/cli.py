"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``       train one workload with one method and print the summary
``compare``   run several methods on one workload, print a table
``jobs``      schedule a multi-tenant job file over the tidal trace
``list``      show available workloads, methods, presets and models
``trace``     print the tidal utilisation trace and idle windows
``analyze``   diagnose exported JSONL traces: ``analyze report`` prints
              the critical-path/straggler/anomaly report of one,
              ``analyze diff`` compares two phase by phase

The flags of ``run``, ``compare`` and ``jobs`` are the rows of
:data:`repro.options.OPTIONS` (``repro <command> --help`` lists them);
a command reads each value once, through :func:`repro.options.resolve`.
README.md gives the ``--faults`` grammar and the telemetry files.  Exit
codes: 0 done, 1 no job admitted, 2 a bad flag, spec or job file.

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
from .distributed import build_strategy
from .harness import SCALE_PRESETS, WORKLOADS, format_table, make_run_config
from .nn.models import MODEL_REGISTRY
from .options import Option, methods, options_for, resolve
from .telemetry import Telemetry, render_epoch_table, write_trace

__all__ = ["main", "build_parser"]


#: every subcommand and its help, in ``repro --help`` order
_COMMANDS_HELP = {
    "run": "train one workload with one method",
    "compare": "run several methods on one workload",
    "jobs": "schedule a multi-tenant job file over the tidal trace",
    "list": "show workloads, methods, presets, models",
    "trace": "print the tidal trace",
    "analyze": "diagnose exported JSONL traces (critical path, stragglers, "
               "run-vs-run diffs)",
    "analyze report": "bottleneck report for one trace",
    "analyze diff": "compare two traces (A = baseline, B = new)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SoCFlow reproduction CLI")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, help in _COMMANDS_HELP.items():
        group, _, name = command.rpartition(" ")
        sub = groups[group].add_parser(name, help=help)
        if command == "analyze":
            groups[command] = sub.add_subparsers(dest="analyze_command",
                                                 required=True)
        _add_options(sub, command)
    return parser


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """One argument per :data:`~repro.options.OPTIONS` row ``command``
    takes.

    A flag not given parses to its declared default, except where the
    value is still to be settled (:func:`~repro.options.resolve`): a
    ``jobs`` option the job file may set, and a ``--x/--no-x`` switch,
    parse to ``None``.
    """
    for option in options_for(command):
        default = option.defaults[command]
        kwargs = {"help": _help(option, command)}
        if option.action == "switch":
            kwargs["action"], default = argparse.BooleanOptionalAction, None
        else:
            if option.action:
                kwargs["action"] = option.action
            if option.convert:
                kwargs["type"] = option.convert
        if option.key and command == "jobs":
            default = None
        if option.choices:
            kwargs["choices"] = (option.choices() if callable(option.choices)
                                 else option.choices)
        if option.metavar:
            kwargs["metavar"] = option.metavar
        if option.required:
            kwargs["required"] = True
        parser.add_argument(option.flag, default=default, **kwargs)


def _help(option: Option, command: str) -> str:
    """The row's help, noting the command's declared default and, on
    ``jobs``, the job-file key that may set it."""
    default, notes = option.defaults[command], []
    if option.action == "switch":
        notes.append(f"default: {'on' if default else 'off'}")
    elif default is not None and not option.action:
        notes.append(f"default: {default:g}" if isinstance(default, float)
                     else f"default: {default}")
    if option.key and command == "jobs":
        notes.append(f"job file: {option.key}")
    return f"{option.help} ({'; '.join(notes)})" if notes else option.help


def _parse_faults(args):
    """Parse ``--faults``; raises FaultSpecError (exit 2, see
    :func:`main`) on malformed specs."""
    if args.faults is None:
        return None
    return parse_fault_spec(args.faults,
                            ClusterTopology(num_socs=args.socs))


def _telemetry_for(args) -> Telemetry | None:
    if args.trace is None and args.metrics is None:
        return None
    return Telemetry.active()


def _train(args, method: str, fault_schedule=None, telemetry=None):
    groups = max(2, args.socs // 4) if args.groups is None else args.groups
    config = make_run_config(args.workload, args.preset,
                             num_socs=args.socs, num_groups=groups,
                             max_epochs=args.epochs, seed=args.seed,
                             fault_schedule=fault_schedule,
                             fault_mode=args.fault_mode, telemetry=telemetry,
                             workers=args.workers,
                             fusion_threshold_mb=args.fusion_threshold_mb,
                             fusion_max_ops=args.fusion_max_ops,
                             graph=args.graph)
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
    args = resolve("run", args)
    fault_schedule = _parse_faults(args)
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
    args = resolve("compare", args)
    fault_schedule = _parse_faults(args)
    rows = []
    for method in args.methods:
        telemetry = _telemetry_for(args)
        rows.append(_result_row(method,
                                _train(args, method, fault_schedule,
                                       telemetry)))
        _emit_telemetry(args, telemetry, out, method=method)
    print(format_table(_HEADERS, rows), file=out)
    return 0


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
    args = resolve("jobs", args, cluster)
    fault_schedule = _parse_faults(args)
    unpriced = sorted({event_summary(event)["fault"]
                       for event in fault_schedule or ()
                       if not isinstance(event, SoCCrash)})
    if unpriced:
        raise FaultSpecError(
            "the job scheduler honours SoC crashes only (a crashed SoC "
            f"leaves the idle pool); {', '.join(unpriced)} would never be "
            "priced")
    topology = ClusterTopology(num_socs=args.socs)
    window = args.static_window
    telemetry = _telemetry_for(args)
    common = dict(
        quantum_hours=args.quantum, horizon_hours=args.horizon,
        start_hour=args.start_hour, elastic=window is None, window=window,
        fault_schedule=fault_schedule, telemetry=telemetry,
        workers=args.workers, fusion_threshold_mb=args.fusion_threshold_mb,
        fusion_max_ops=args.fusion_max_ops, graph=args.graph)
    if args.serve:
        from .serving import (ArrivalProcess, Region, ServiceModel,
                              ServingCoScheduler, ServingPlane)
        if telemetry is not None and telemetry.metrics.enabled \
                and telemetry.metrics.histogram_reservoir is None:
            # request-resolution latencies: bound the histograms before
            # any instrument exists so a day of traffic stays O(4k)
            telemetry.metrics.histogram_reservoir = 4096
        arrivals = ArrivalProcess(
            [Region("global", args.peak_rps)], start_hour=args.start_hour,
            horizon_hours=args.horizon, flash_crowds=args.flash_crowd,
            seed=args.seed)
        try:
            service = ServiceModel.for_model(args.serve_model,
                                             soc=topology.soc, max_batch=4)
        except (KeyError, ValueError):
            print(f"unknown --serve-model {args.serve_model!r}",
                  file=sys.stderr)
            return 2
        try:
            plane = ServingPlane(
                arrivals, service, slo_ms=args.slo_ms,
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
                check_interval_hours=min(args.quantum, 0.25),
                telemetry=telemetry)
        except ValueError as err:       # a ceiling below the floor
            print(f"bad serving options: {err}", file=sys.stderr)
            return 2
        try:
            scheduler = ServingCoScheduler(topology, plane, **common)
        except ValueError as err:       # too many rounds
            print(f"bad scheduler options: {err}", file=sys.stderr)
            return 2
    else:
        simulator = SessionSimulator(
            topology, peak_sessions_per_hour=args.sessions_per_hour,
            seed=args.seed)
        sessions = simulator.simulate_day()
        if telemetry is not None and telemetry.metrics.enabled:
            # overload on the session side used to be invisible
            telemetry.metrics.counter("serving.dropped_sessions").inc(
                simulator.dropped_sessions)
        try:
            scheduler = ElasticScheduler(topology, sessions, **common)
        except ValueError as err:       # too many rounds
            print(f"bad scheduler options: {err}", file=sys.stderr)
            return 2
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
    print("methods:  ", ", ".join(methods()), file=out)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit:      # a usage error (2) or --help (0)
        return exit.code
    try:
        return _COMMANDS[args.command](args, out or sys.stdout)
    except FaultSpecError as err:
        print(f"bad --faults spec: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
