#!/usr/bin/env python3
"""The claims benchmark: four end-to-end workloads, both clocks, one command.

    python3 benchmarks/e2e/bench.py                       # all workloads
    python3 benchmarks/e2e/bench.py --workload serve_flash_day --seed 1
    python3 benchmarks/e2e/bench.py --traced              # + per-layer pass
    python3 benchmarks/e2e/bench.py --check-repeat        # two sets, compared

The driver form is ``--workload W --seed N --seconds S --trace 0|1``; the
last line of standard output is then one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``).  BENCHMARK.json is the single list of metric names and
units; this file only fills in values.

Protocol.  Two clocks, never mixed in one number: **host** (wall / CPU
seconds of a Python process — noisy) and **sim** (the program's
``PhaseClock`` / serving clock — exact by seed).  One *unit* is one
set-up plus one timed region of a workload in a fresh subprocess with
BLAS pinned to one thread; a run repeats units, one at a time, until
``--seconds`` of timed region have been measured (at least
``MIN_UNITS``).  Host metrics are the median over the run's units; sim
metrics must be identical in every unit or the run is incorrect.  The
traced pass (:mod:`spans`, :mod:`probes`, :mod:`layers`) is a separate
run and never feeds an end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: one BLAS thread: the box has two cores and the load must come from
#: the one process under test
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_UNITS = 2               # the same-seed determinism check needs two
UNIT_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0      # the driver allows a run 180 s
HOST_METRICS = ("setup_s", "host_wall_s", "host_cpu_s", "peak_rss_mb",
                "train_samples_per_s")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One unit, in this process (the child side)
# ----------------------------------------------------------------------
_SELF_AND_CHILDREN = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)


def _cpu_seconds() -> float:
    """User + system seconds of this process and its reaped children."""
    usage = [resource.getrusage(who) for who in _SELF_AND_CHILDREN]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in _SELF_AND_CHILDREN) / 1024.0


def run_unit(args) -> dict:
    """Set up and run one workload once; returns the unit record."""
    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SCALES[args.scale][workload.name]
    setup, run = workload.setup, workload.run
    recorder = None
    if args.traced_unit:
        import spans
        recorder = spans.SpanRecorder()
        recorder.install()
        setup = recorder.wrap(setup, "bench.setup", "bench")
        run = recorder.wrap(run, "bench.run", "bench")

    state = setup(args.seed, sizes, args.variant)
    started_at = time.time()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    result = run(state)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    record = {
        "setup_s": started_at - args.spawned_at,
        "host_wall_s": wall,
        "host_cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if recorder is not None:
        recorder.uninstall()
    record.update(workload.outcome(state, result))
    if recorder is not None:
        import layers
        import probes
        workloads.OUT_DIR.mkdir(exist_ok=True)
        telemetry = getattr(state.get("config"), "telemetry", None)
        probe_metrics, counts = probes.run_probes(
            workload.probe_config(state), workloads.OUT_DIR,
            args.probe_cap,
            tracer=telemetry.tracer if telemetry is not None else None)
        names = [m["name"] for m in load_spec()["per_layer"]
                 if m["name"] not in PARENT_LAYER_METRICS]
        table = recorder.table()
        record["layer"] = layers.layer_metrics(
            names, recorder, table, state, result, probe_metrics,
            workload.kind)
        record["probe_samples"] = counts
        record["span_table"] = table
        record["missing_spans"] = recorder.missing
        record["variants"] = workload.variants
        trace_path = workloads.OUT_DIR / (
            f"host_trace_{workload.name}_seed{args.seed}.json")
        recorder.write_chrome_trace(
            trace_path, run_id=f"{workload.name}/seed{args.seed}")
        record["host_trace"] = str(trace_path.relative_to(ROOT))
    return record


# ----------------------------------------------------------------------
# Spawning units (the parent side)
# ----------------------------------------------------------------------
def _reap_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait until no process of the unit's session is left; a unit that
    leaves one behind (a pool worker, a resource tracker) has it killed."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:         # pragma: no cover - pid reuse
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def spawn_unit(workload: str, seed: int, scale: str, *,
               variant: "str | None" = None, traced: bool = False,
               probe_cap: float = 0.0) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--unit",
               "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--probe-cap", repr(probe_cap)]
    if variant is not None:
        command += ["--variant", variant]
    if traced:
        command.append("--traced-unit")
    env = dict(os.environ, **PINNED_ENV)
    command += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: unit exceeded {UNIT_TIMEOUT_S:.0f} s")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: unit exited {proc.returncode}\n{err}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: unit printed no record\n{out}\n{err}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _check_units(units: "list[dict]") -> "tuple[int, int, list[str]]":
    """``(attempted, failed, failure lines)`` over a run's units."""
    attempted = failed = 0
    failures: list[str] = []
    for index, unit in enumerate(units):
        attempted += unit["attempted"] + len(unit["checks"])
        failed += unit["failed"]
        for check in unit["checks"]:
            if not check["ok"]:
                failed += 1
                failures.append(f"unit {index}: {check['name']}: "
                                f"{check['detail']}")
        if index:
            attempted += 1
            diffs = verify.diff_exact(units[0]["exact"], unit["exact"])
            if diffs:
                failed += 1
                failures.append(
                    f"unit {index}: same seed, different outputs at "
                    f"{', '.join(diffs[:8])}")
    return attempted, failed, failures


def run_end_to_end(workload: str, seed: int, seconds: float,
                   scale: str) -> dict:
    """Untraced units until ``seconds`` of timed region are measured."""
    units: list[dict] = []
    measured = 0.0
    began = time.monotonic()
    while len(units) < MIN_UNITS or (
            measured < seconds
            and time.monotonic() - began < RUN_DEADLINE_S):
        unit = spawn_unit(workload, seed, scale)
        measured += unit["host_wall_s"]
        units.append(unit)
    for unit in units:
        unit["train_samples_per_s"] = (unit["train_samples"]
                                       / unit["host_wall_s"])
    values = {name: statistics.median(u[name] for u in units)
              for name in HOST_METRICS}
    # exact by seed: _check_units fails the run if any unit disagrees
    values["sim_epoch_s"] = units[0]["sim_epoch_s"]
    values["train_epochs_completed"] = units[0]["train_epochs_completed"]
    attempted, failed, failures = _check_units(units)
    return {"values": values, "units": units, "attempted": attempted,
            "failed": failed, "failures": failures,
            "correct": not failures}


#: per-layer metrics only the parent can form: ratios of whole units
PARENT_LAYER_METRICS = ("bench.trace_overhead_share",
                        "telemetry.on_off_ratio",
                        "parallel.workers2_ratio")


def run_traced(workload: str, seed: int, seconds: float, scale: str) -> dict:
    """One untraced reference unit, one traced unit with probes, and the
    workload's whole-unit variants."""
    reference = spawn_unit(workload, seed, scale)
    # each training-step probe may use this much of the run's budget
    traced = spawn_unit(workload, seed, scale, traced=True,
                        probe_cap=seconds * 0.075)
    variants = {name: spawn_unit(workload, seed, scale, variant=name)
                for name in traced["variants"]}
    values = dict(traced["layer"])
    values["bench.trace_overhead_share"] = (
        (traced["host_wall_s"] - reference["host_wall_s"])
        / reference["host_wall_s"])
    values["telemetry.on_off_ratio"] = 0.0
    values["parallel.workers2_ratio"] = 0.0
    if "telemetry_off" in variants:
        values["telemetry.on_off_ratio"] = (
            variants["telemetry_off"]["host_wall_s"]
            / reference["host_wall_s"])
    if "epoch1_workers2" in variants:
        values["parallel.workers2_ratio"] = (
            variants["epoch1_workers2"]["host_wall_s"]
            / variants["epoch1_workers1"]["host_wall_s"])
    units = [reference, traced]
    attempted, failed, failures = _check_units(units)
    attempted += 1              # every patch target of spans.PATCHES resolves
    if traced["missing_spans"]:
        failed += 1
        failures.append("missing span(s), callable not found: "
                        + ", ".join(traced["missing_spans"]))
    return {"values": values, "units": units, "traced": traced,
            "attempted": attempted, "failed": failed, "failures": failures,
            "correct": not failures}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    """What the numbers were measured on."""
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "load_1min": os.getloadavg()[0],
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
    }


def result(run: dict, metrics: "list[dict]") -> dict:
    """The driver's JSON object: exactly the metrics of BENCHMARK.json."""
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["values"][m["name"]],
                                "unit": m["unit"]} for m in metrics},
    }


def print_run(title: str, run: dict, metrics: "list[dict]") -> None:
    print(f"== {title}: {len(run['units'])} unit(s), "
          f"{run['failed']} of {run['attempted']} operations failed")
    for metric in metrics:
        value = run["values"][metric["name"]]
        print(f"  {metric['name']:<36} {value:>16.6g} {metric['unit']:<8}"
              f" ({metric['better']} is better)")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    traced = run.get("traced")
    if traced is not None:
        print("  layer          calls    total_s     self_s")
        for layer, row in sorted(traced["span_table"]["layers"].items(),
                                 key=lambda item: -item[1]["self_s"]):
            print(f"  {layer:<12} {row['calls']:>7} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        print(f"  probe samples: {traced['probe_samples']}")
        print(f"  host trace: {traced['host_trace']}")


def compare_sets(spec: dict, first: dict, second: dict) -> "list[str]":
    """``--check-repeat``: host metrics within their bound, the rest
    equal."""
    problems = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a, b = first["values"][name], second["values"][name]
        if name in HOST_METRICS:
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            if abs(worse) > metric["bound"]:
                problems.append(f"{name}: {a:.6g} vs {b:.6g} differ by "
                                f"{abs(worse):.1%} > {metric['bound']:.0%}")
        elif a != b:
            problems.append(f"{name}: {a!r} != {b!r} (must be exact)")
    diffs = verify.diff_exact(first["units"][0]["exact"],
                              second["units"][0]["exact"])
    if diffs:
        problems.append("exact outputs differ at " + ", ".join(diffs[:8]))
    return problems


# ----------------------------------------------------------------------
def build_parser(spec: dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input to every generator")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed-region seconds to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer pass only")
    parser.add_argument("--traced", action="store_true",
                        help="the untraced run, then the traced pass")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets and fail unless they agree")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke = the self-test's tiny sizes")
    parser.add_argument("--out", type=Path,
                        help="also write every run's record here as JSON")
    # the unit protocol (runner -> its own subprocess)
    for flag in ("--unit", "--traced-unit"):
        parser.add_argument(flag, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--variant", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--probe-cap", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.unit:
        print(json.dumps(run_unit(args), default=float))
        return 0

    selected = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    passes = []
    if args.trace == 0 or args.traced:
        passes.append(("end-to-end", run_end_to_end, spec["end_to_end"]))
    if args.trace == 1 or args.traced:
        passes.append(("per-layer", run_traced, spec["per_layer"]))
    host = fingerprint()
    print(f"host: {json.dumps(host)}")
    print(f"seed {args.seed}, {args.seconds:g} s per run, scale {args.scale}")
    record = {"host": host, "seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "runs": []}
    ok = True
    try:
        for workload in selected:
            for title, runner, metrics in passes:
                run = runner(workload, args.seed, args.seconds, args.scale)
                print_run(f"{workload} {title}", run, metrics)
                if args.check_repeat and runner is run_end_to_end:
                    again = runner(workload, args.seed, args.seconds,
                                   args.scale)
                    print_run(f"{workload} {title} (repeat)", again, metrics)
                    for problem in compare_sets(spec, run, again):
                        print(f"  REPEAT MISMATCH {problem}")
                        run["correct"] = False
                ok = ok and run["correct"]
                record["runs"].append({
                    "workload": workload, "pass": title,
                    "units": len(run["units"]),
                    "failures": run["failures"], **result(run, metrics)})
                print(json.dumps(result(run, metrics)))
    except BenchError as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
