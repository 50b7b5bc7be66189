"""The job plane trains with compiled steps by default: a scheduled day
is byte-identical to the same day on the eager tape, and no job ever
leaves the compiled path.  Between epochs a run's plans hold no
workspace pages; a run that dropped them replays bit-identically to one
that kept them."""

from __future__ import annotations

import mmap
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterTopology, Session
from repro.cluster.faults import parse_fault_spec
from repro.core.socflow import GroupRun, SoCFlowOptions
from repro.distributed.base import CostModel
from repro.jobs import ElasticScheduler, TrainingJob
from repro.nn.arena import StepArena
from repro.quant.mixed import MixedPrecisionController
from repro.serving import (ArrivalProcess, FlashCrowd, Region, ServiceModel,
                           ServingCoScheduler, ServingPlane)
from repro.telemetry import Telemetry


def elastic_day(**graph):
    """Four hours on 8 SoCs: ``low`` is preempted by the mixed-precision
    ``mixed``, resumes on the SoCs sessions leave free, grows when they
    end and shrinks when SoC 1 crashes."""
    topology = ClusterTopology(num_socs=8)
    telemetry = Telemetry.active()
    scheduler = ElasticScheduler(
        topology, [Session(soc, 1.0, 1.0) for soc in range(4)],
        quantum_hours=0.25, horizon_hours=4.0,
        fault_schedule=parse_fault_spec("crash:epoch=10,soc=1", topology),
        telemetry=telemetry, **graph)
    scheduler.submit(TrainingJob("low", "lenet5_emnist", priority=1,
                                 min_socs=2, max_socs=8, epochs=10))
    scheduler.submit(TrainingJob("mixed", "lenet5_fmnist", priority=3,
                                 min_socs=7, max_socs=8, epochs=2,
                                 submit_hour=0.5, mixed=True))
    return scheduler, scheduler.run(), telemetry


def serving_day(**graph):
    """Four hours of requests with a flash crowd against two tenants."""
    topology = ClusterTopology(num_socs=8)
    arrivals = ArrivalProcess(
        [Region("global", 25.0)], start_hour=18.0, horizon_hours=4.0,
        flash_crowds=[FlashCrowd(19.0, 1.0, 3.0)], seed=0)
    plane = ServingPlane(
        arrivals, ServiceModel.for_model("resnet18", soc=topology.soc,
                                         max_batch=4),
        slo_ms=600.0, min_replicas=1, check_interval_hours=0.25)
    telemetry = Telemetry.active()
    scheduler = ServingCoScheduler(topology, plane, start_hour=18.0,
                                   horizon_hours=4.0, telemetry=telemetry,
                                   **graph)
    scheduler.submit(TrainingJob("fmnist", "lenet5_fmnist", priority=2,
                                 min_socs=2, max_socs=8, epochs=4,
                                 submit_hour=18.0, mixed=True))
    scheduler.submit(TrainingJob("emnist", "lenet5_emnist", priority=1,
                                 min_socs=2, max_socs=8, epochs=4,
                                 submit_hour=18.25))
    return scheduler, scheduler.run(), telemetry


def graph_series(telemetry) -> dict:
    return {(r["name"], r["labels"]["job"], r["labels"].get("precision")):
            r["value"] for r in telemetry.metrics.collect()
            if r["name"].startswith("graph.")}


def final_states(scheduler) -> dict:
    return {job: {key: np.asarray(value).tobytes() for key, value
                  in ex.run.anchor.model_state.items()}
            for job, ex in scheduler._execs.items()}


@pytest.mark.parametrize("day", [elastic_day, serving_day])
def test_compiled_and_eager_days_are_byte_identical(day):
    compiled, report, telemetry = day()             # the default
    eager, eager_report, eager_telemetry = day(graph=False)
    assert report.to_dict() == eager_report.to_dict()
    assert final_states(compiled) == final_states(eager)
    assert graph_series(eager_telemetry) == {}
    series = graph_series(telemetry)
    jobs = {job for _, job, _ in series}
    assert jobs == set(report.jobs)
    for (name, job, precision), value in series.items():
        if name in ("graph.fallbacks", "graph.eager_steps"):
            assert value == 0, (name, job, precision)
    for job in jobs:
        assert series[("graph.replays", job, "fp32")] > 0
    records = report.jobs.values()
    if day is elastic_day:
        assert {(r.job.id, r.status, r.resizes > 0, r.preemptions > 0)
                for r in records} == {("low", "completed", True, True),
                                      ("mixed", "completed", False, False)}
        assert series[("graph.replays", "mixed", "int8")] > 0
    else:
        serving = report.extra["serving"]
        assert serving["scale_ups"] > 0 and serving["dropped"] > 0
        assert all(r.resizes > 0 for r in records)


def group_run(config) -> GroupRun:
    cost = CostModel(config)
    controller = MixedPrecisionController(cost.t_cpu_sample,
                                          cost.t_npu_sample)
    return GroupRun(config, SoCFlowOptions(precision="mixed"), cost,
                    controller, num_groups=2)


def plans(run) -> list:
    return [plan for plan in run.groups[0].arena._plans.values()
            if plan is not None]


def test_dropped_plan_pages_replay_bit_identically(
        monkeypatch, config_factory):
    config = replace(config_factory(TrainingJob("g", "tiny", epochs=3,
                                                target_group_size=2)),
                     graph=True)
    kept = group_run(config)
    with monkeypatch.context() as patched:
        patched.setattr(StepArena, "drop_pages", lambda self: None)
        for _ in range(3):
            kept.run_epoch()
        kept.close()
    dropped = group_run(config)
    for _ in range(3):
        dropped.run_epoch()
        if hasattr(mmap, "MADV_DONTNEED"):
            # the pages really went: they read back as fresh zero pages
            assert {plan.pages.array.any() for plan in plans(dropped)} \
                == {False}
    dropped.close()
    assert len(plans(dropped)) == 2             # fp32 and int8
    assert dropped.history == kept.history
    for mine, theirs in zip(dropped.groups, kept.groups):
        assert {k: v.tobytes() for k, v in mine.state_dict().items()} == \
            {k: v.tobytes() for k, v in theirs.state_dict().items()}
