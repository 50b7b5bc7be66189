"""The four end-to-end workloads of the claims benchmark.

Each workload is three functions over a plain ``state`` dict:

- ``setup(seed, sizes, variant)`` — everything a user does *before* the
  work they wait for: dataset synthesis, ``make_run_config``, job specs,
  the session trace.  Timed as part of ``setup_s``.
- ``run(state)`` — the timed region: one call into the public API the
  CLI itself uses (``SoCFlow.train`` / ``ElasticScheduler.run``).
- ``outcome(state, result)`` — deterministic outputs (``exact``), the
  operation counts, and the output checks of :mod:`verify`; runs after
  the clock stopped.

``--seed`` is the only input to the generated datasets, arrival streams
and session traces; the program receives only what its own generators
produce from it.

Every ``repro`` callable is looked up through its module or class at
call time, never bound at import, so the span wrappers that
:mod:`spans` installs for the traced pass are the ones that get called.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.cluster import workload as cluster_workload
from repro.cluster.faults import parse_fault_spec
from repro.cluster.topology import ClusterTopology
from repro.core import socflow
from repro.data.datasets import DATASET_REGISTRY
from repro.harness import experiments
from repro.jobs import scheduler as jobs_scheduler
from repro.jobs.spec import TrainingJob
from repro.serving import arrivals as serving_arrivals
from repro.serving import coscheduler as serving_coscheduler
from repro.serving import plane as serving_plane
from repro.serving.replica import ServiceModel
from repro.telemetry import Telemetry
from repro.telemetry import analysis as telemetry_analysis
from repro.telemetry import export as telemetry_export

import verify

__all__ = ["Workload", "WORKLOADS", "SCALES", "OUT_DIR"]

#: scratch space for the files a workload writes (the exported trace,
#: probe checkpoints); inside the checkout, listed in ``.gitignore``
OUT_DIR = Path(__file__).resolve().parent / ".out"

# Sizes.  ``full`` is what BENCHMARK.json measures: each timed region
# is 4.5-6.5 s on the 2-core reference box, so one 20 s run holds 3-5
# of them.  ``smoke`` keeps every code path (faults, recovery, flash
# crowd, preemption, resize) at a size the self-test can afford.
# Changing a ``full`` size is a new benchmark: it needs its own issue.
SCALES: dict[str, dict[str, dict]] = {
    "full": {
        "train_cnn_eager": dict(train_samples=960, epochs=2),
        "train_vit_graph": dict(train_samples=960, epochs=3),
        "serve_flash_day": dict(peak_rps=48.0, epochs=4),
        "jobs_elastic_day": dict(epochs=dict(
            vgg=2, resnet=1, mobilenet=1, fmnist=5, emnist=4)),
    },
    "smoke": {
        "train_cnn_eager": dict(train_samples=240, epochs=1),
        "train_vit_graph": dict(train_samples=240, epochs=3),
        "serve_flash_day": dict(peak_rps=3.0, epochs=3),
        "jobs_elastic_day": dict(epochs=dict(
            vgg=1, resnet=0, mobilenet=0, fmnist=3, emnist=3)),
    },
}

NUM_SOCS = 60          # the paper's server
NUM_GROUPS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    #: "train" (one ``SoCFlow.train`` -> ``StrategyResult``) or "day"
    #: (one scheduler run -> ``ScheduleReport``)
    kind: str
    setup: Callable[[int, dict, "str | None"], dict]
    run: Callable[[dict], object]
    outcome: Callable[[dict, object], dict]
    #: ``state -> RunConfig`` the step-level probes build their model,
    #: batch and cluster objects from (the workload's own model family)
    probe_config: Callable[[dict], object]
    #: extra configurations the traced pass times as whole units
    variants: tuple = ()


# ----------------------------------------------------------------------
# train_cnn_eager / train_vit_graph
# ----------------------------------------------------------------------
VIT_FAULTS = "crash:epoch=2,soc=7;flap:epoch=1,pcb=0,mult=0.5,until=3"
#: vit_tiny's paper-scale gradient payload is 2.1 MiB, so this is a
#: one-bucket plan: the fusion path runs, the overlap timeline is
#: trivial.  Smaller buckets are not an option today — at 0.5-1.5 MiB
#: ``analyze_trace`` covers only 10-38% of this run's critical path and
#: the trace_coverage check fails (see README, "Findings").
VIT_FUSION_MB = 4.0


def _train_config(seed: int, sizes: dict, **kwargs):
    config = experiments.make_run_config(
        "vgg11", "bench", num_socs=NUM_SOCS, num_groups=NUM_GROUPS,
        max_epochs=sizes["epochs"], seed=seed, **kwargs)
    return replace(config, task=config.task.subset(sizes["train_samples"]))


def _setup_cnn(seed: int, sizes: dict, variant: "str | None") -> dict:
    if variant in ("epoch1_workers1", "epoch1_workers2"):
        sizes = dict(sizes, epochs=1)
        config = _train_config(seed, sizes, workers=int(variant[-1]))
    else:
        config = _train_config(seed, sizes)
    return {"config": config}


def _setup_vit(seed: int, sizes: dict, variant: "str | None") -> dict:
    topology = ClusterTopology(num_socs=NUM_SOCS)
    telemetry = None if variant == "telemetry_off" else Telemetry.active()
    config = _train_config(
        seed, sizes, graph=True, fusion_threshold_mb=VIT_FUSION_MB,
        telemetry=telemetry,
        fault_schedule=parse_fault_spec(VIT_FAULTS, topology))
    config = replace(config, model_name="vit_tiny", width=0.5)
    OUT_DIR.mkdir(exist_ok=True)
    return {"config": config,
            "out_dir": tempfile.mkdtemp(prefix="vit_", dir=OUT_DIR)}


def _run_train(state: dict):
    result = socflow.SoCFlow(socflow.SoCFlowOptions()).train(state["config"])
    telemetry = state["config"].telemetry
    if telemetry is not None:
        # the program's own --trace -> analyze pipeline, as a user of a
        # traced run pays for it
        path = Path(state["out_dir"]) / "trace.jsonl.gz"
        telemetry_export.write_trace(telemetry.tracer, path, fmt="jsonl")
        state["trace_bytes"] = path.stat().st_size
        state["report"] = telemetry_analysis.analyze_trace(path)
        state["rendered"] = telemetry_analysis.render_report(
            state["report"], fmt="markdown")
    return result


def _outcome_train(state: dict, result) -> dict:
    config = state["config"]
    extra = result.extra
    graph_stats = extra.get("graph_stats") or {}
    exact = {
        "sim_time_s": result.sim_time_s,
        "breakdown": result.breakdown,
        "energy_kj": result.energy.total_kj,
        "accuracy_history": result.accuracy_history,
        "alpha_history": [list(pair) for pair in extra["alpha_history"]],
        "graph_stats": graph_stats,
        "recoveries": extra.get("recoveries", []),
        "network_retries": extra["network_retries"],
        "sync_hidden_s": extra["sync_hidden_s"],
        "num_cgs": extra["num_cgs"],
    }
    checks = verify.check_training(result, config, graph_stats)
    report = state.get("report")
    if report is not None:
        exact["trace_records"] = report.num_records
        exact["trace_coverage"] = report.coverage
        checks += verify.check_trace(report, state["rendered"],
                                     len(config.telemetry.tracer.records))
    if "out_dir" in state:
        shutil.rmtree(state["out_dir"], ignore_errors=True)
    graph_steps = sum(sum(stats.values()) for stats in graph_stats.values())
    fallbacks = sum(stats.get("fallbacks", 0)
                    for stats in graph_stats.values())
    bad_epochs = config.max_epochs - result.epochs_run
    return {
        "exact": exact,
        "checks": checks,
        "attempted": config.max_epochs + graph_steps,
        "failed": bad_epochs + fallbacks,
        "sim_epoch_s": result.sim_time_s / max(result.epochs_run, 1),
        "train_epochs_completed": result.epochs_run,
        "train_samples": result.epochs_run * len(config.task.x_train),
    }


# ----------------------------------------------------------------------
# serve_flash_day / jobs_elastic_day
# ----------------------------------------------------------------------
def _nominal_train_size(job: TrainingJob) -> int:
    """Training-set size ``make_run_config`` generates for ``job``."""
    workload = experiments.WORKLOADS[job.workload]
    spec = DATASET_REGISTRY[workload.dataset]
    preset = experiments.SCALE_PRESETS[job.preset]
    return max(spec.num_classes * 4, int(spec.train_size * preset.data_scale))


SERVE_SOCS = 16
FLASH_CROWD = dict(start_hour=20.0, duration_hours=1.5, multiplier=1.8)


def _setup_serve(seed: int, sizes: dict, variant: "str | None") -> dict:
    tenant = dict(min_socs=4, max_socs=16, epochs=sizes["epochs"],
                  submit_hour=19.5, seed=seed)
    return {
        "seed": seed,
        "peak_rps": sizes["peak_rps"],
        "topology": ClusterTopology(num_socs=SERVE_SOCS),
        "jobs": [TrainingJob("fmnist", "lenet5_fmnist", priority=2,
                             mixed=True, **tenant),
                 TrainingJob("emnist", "lenet5_emnist", priority=1, **tenant)],
    }


def _run_serve(state: dict):
    topology = state["topology"]
    # generating a day of arrivals is work the user waits for on every
    # `jobs --serve` run, so it sits inside the timed region
    arrivals = serving_arrivals.ArrivalProcess(
        [serving_arrivals.Region("global", state["peak_rps"])],
        start_hour=0.0, horizon_hours=24.0,
        flash_crowds=[serving_arrivals.FlashCrowd(**FLASH_CROWD)],
        seed=state["seed"])
    service = ServiceModel.for_model("resnet18", soc=topology.soc,
                                     max_batch=4)
    plane = serving_plane.ServingPlane(arrivals, service, slo_ms=600.0,
                                       min_replicas=1,
                                       check_interval_hours=0.25)
    scheduler = serving_coscheduler.ServingCoScheduler(
        topology, plane, horizon_hours=24.0)
    for job in state["jobs"]:
        scheduler.submit(job)
    state["plane"] = plane
    return scheduler.run()


JOBS_FAULTS = "crash:epoch=3,soc=5;flap:epoch=2,pcb=1,mult=0.2,until=6"


def _setup_jobs(seed: int, sizes: dict, variant: "str | None") -> dict:
    topology = ClusterTopology(num_socs=NUM_SOCS)
    epochs = sizes["epochs"]
    # submitted on the rising tide (10:00-11:30), so allocations shrink
    # under the jobs as sessions claim SoCs towards the 14:00 peak
    specs = [
        ("vgg", "vgg11", dict(priority=3, min_socs=8, max_socs=24,
                              submit_hour=10.0, deadline_hours=12.0)),
        ("resnet", "resnet18", dict(priority=2, min_socs=8, max_socs=20,
                                    submit_hour=10.5)),
        ("mobilenet", "mobilenet", dict(priority=1, min_socs=4, max_socs=16,
                                        submit_hour=11.0)),
        ("fmnist", "lenet5_fmnist", dict(priority=2, min_socs=2, max_socs=8,
                                         submit_hour=11.0, mixed=True)),
        ("emnist", "lenet5_emnist", dict(priority=1, min_socs=2, max_socs=8,
                                         submit_hour=11.5)),
    ]
    jobs = [TrainingJob(job_id, workload, epochs=epochs[job_id], seed=seed,
                        **fields)
            for job_id, workload, fields in specs if epochs[job_id] > 0]
    simulator = cluster_workload.SessionSimulator(
        topology, peak_sessions_per_hour=120.0, seed=seed)
    return {"topology": topology, "jobs": jobs,
            "sessions": simulator.simulate_day(),
            "faults": parse_fault_spec(JOBS_FAULTS, topology)}


def _run_jobs(state: dict):
    scheduler = jobs_scheduler.ElasticScheduler(
        state["topology"], state["sessions"], horizon_hours=24.0,
        fault_schedule=state["faults"])
    for job in state["jobs"]:
        scheduler.submit(job)
    return scheduler.run()


def _outcome_day(state: dict, report) -> dict:
    records = [report.jobs[job.id] for job in state["jobs"]]
    exact = {
        "rounds": report.rounds,
        "available_soc_hours": report.available_soc_hours,
        "used_soc_hours": report.used_soc_hours,
        "jobs": [record.to_dict() for record in records],
    }
    attempted = len(records)
    failed = sum(record.status != "completed" for record in records)
    checks = verify.check_jobs(records)
    serving = report.extra.get("serving")
    if serving is not None:
        exact["serving"] = serving
        attempted += serving["requests"]
        failed += serving["dropped"] + serving["queued_at_end"]
        checks += verify.check_serving(serving)
    epochs = sum(record.epochs_done for record in records)
    # scheduled seconds from first placement to completion, waits
    # included: what a tenant sees, not the per-job cost clock
    scheduled_s = sum(
        ((record.finish_hour if record.finish_hour is not None
          else report.horizon_hours) - record.start_hour) * 3600.0
        for record in records if record.start_hour is not None)
    return {
        "exact": exact,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "sim_epoch_s": scheduled_s / max(epochs, 1),
        "train_epochs_completed": epochs,
        "train_samples": sum(record.epochs_done
                             * _nominal_train_size(record.job)
                             for record in records),
    }


def _tenant_probe_config(state: dict):
    """The first tenant's RunConfig, built the way the scheduler does."""
    job = state["jobs"][0]
    num_socs = state["topology"].num_socs
    config = experiments.make_run_config(
        job.workload, job.preset, num_socs=num_socs,
        num_groups=max(1, num_socs // job.target_group_size),
        seed=job.seed, max_epochs=job.epochs)
    return replace(config, topology=state["topology"])


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        "train_cnn_eager", "train",
        _setup_cnn, _run_train, _outcome_train,
        probe_config=lambda state: state["config"],
        variants=("epoch1_workers1", "epoch1_workers2")),
    Workload(
        "train_vit_graph", "train",
        _setup_vit, _run_train, _outcome_train,
        probe_config=lambda state: state["config"],
        variants=("telemetry_off",)),
    Workload(
        "serve_flash_day", "day",
        _setup_serve, _run_serve, _outcome_day,
        probe_config=_tenant_probe_config),
    Workload(
        "jobs_elastic_day", "day",
        _setup_jobs, _run_jobs, _outcome_day,
        probe_config=_tenant_probe_config),
]}
