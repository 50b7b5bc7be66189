"""Differential harness: bucketed fusion may only move the *clock*.

For every registered strategy (plus SoCFlow) and every bucket geometry
in the sweep — including the degenerate one-bucket plan and the
per-tensor ``max_ops=1`` plan — a fused run must produce

- bit-identical learning: the same accuracy history (weights feed the
  evaluator directly, so float-equal accuracy pins float-equal
  weights), and for SoCFlow the byte-identical final state;
- identical data-plane metrics: the same number of merges over the
  same merged bytes (the host aggregation work is resliced, never
  duplicated);
- a simulated wall clock that is never *slower* than the unbucketed
  run, with exact equality for the one-bucket plan (it never beats
  whole-model sync, so whole-model sync is charged).

The same contract must hold with tracing on and under injected faults.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import (ClusterTopology, FaultSchedule, NicDegradation,
                          SoCCrash)
from repro.core import SoCFlow, SoCFlowOptions
from repro.distributed import STRATEGY_REGISTRY, RunConfig, build_strategy
from repro.telemetry import MetricsRegistry, Telemetry, Tracer

#: the bucket-geometry sweep: a threshold above the paper-scale payload
#: (one bucket == whole model), a mid-size threshold (a handful of
#: buckets) and the per-tensor extreme.
FUSION_SWEEP = {
    "one_bucket": dict(fusion_threshold_mb=1e6),
    "mb4": dict(fusion_threshold_mb=4.0),
    "ops1": dict(fusion_max_ops=1),
}

METHODS = sorted(STRATEGY_REGISTRY) + ["socflow"]

#: strategies whose cost model actually reads the fusion knobs; for the
#: rest (local / ssp / fedavg / t_fedavg: no per-step gradient
#: collective to bucket) fusion is a documented no-op and every run
#: below must be *exactly* identical, clock included.
FUSION_AWARE = {"ps", "ring", "hipress", "2d_paral", "socflow"}


def base_config(tiny_task, **overrides):
    kwargs = dict(
        task=tiny_task, model_name="vgg11", width=0.15, batch_size=16,
        lr=0.05, momentum=0.9, max_epochs=2, seed=0,
        topology=ClusterTopology(num_socs=16),
        sim_samples_per_epoch=50_000, sim_global_batch=64, num_groups=4)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def run(config, method):
    metrics = MetricsRegistry()
    config = dataclasses.replace(
        config, telemetry=Telemetry(metrics=metrics))
    if method == "socflow":
        result = SoCFlow(SoCFlowOptions()).train(config)
    else:
        result = build_strategy(method).train(config)
    return result, metrics


def data_plane(metrics):
    """comm.* counters: merges and merged bytes must be exact."""
    return {(r["name"], tuple(sorted(r["labels"].items()))): r["value"]
            for r in metrics.collect() if r["name"].startswith("comm.")}


def nic_bytes(metrics):
    return {tuple(sorted(r["labels"].items())): r["value"]
            for r in metrics.collect() if r["name"] == "nic.bytes"}


def assert_differential(ref, ref_metrics, fused, fused_metrics, *,
                        exact_clock):
    __tracer__ = "hide"
    assert fused.accuracy_history == ref.accuracy_history
    assert fused.epochs_run == ref.epochs_run
    assert data_plane(fused_metrics) == data_plane(ref_metrics)
    ref_nic, fused_nic = nic_bytes(ref_metrics), nic_bytes(fused_metrics)
    assert set(ref_nic) == set(fused_nic)
    for key in ref_nic:      # conservation-checked split: ~1 ulp of slack
        assert fused_nic[key] == pytest.approx(ref_nic[key], rel=1e-9)
    if "final_state" in ref.extra:
        a, b = ref.extra["final_state"], fused.extra["final_state"]
        assert list(a) == list(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key
    if exact_clock:
        assert fused.sim_time_s == ref.sim_time_s
        assert fused.breakdown == ref.breakdown
    else:
        assert fused.sim_time_s <= ref.sim_time_s


@pytest.fixture(scope="module")
def references(tiny_task):
    """One unbucketed run per method, shared across the sweep."""
    return {method: run(base_config(tiny_task), method)
            for method in METHODS}


@pytest.mark.parametrize("sweep", sorted(FUSION_SWEEP))
@pytest.mark.parametrize("method", METHODS)
def test_bucketed_run_is_differentially_identical(references, tiny_task,
                                                  method, sweep):
    ref, ref_metrics = references[method]
    config = base_config(tiny_task, **FUSION_SWEEP[sweep])
    fused, fused_metrics = run(config, method)
    # the one-bucket plan must degrade to the sequential clock EXACTLY;
    # fusion-oblivious strategies must be exact under every geometry
    exact = sweep == "one_bucket" or method not in FUSION_AWARE
    assert_differential(ref, ref_metrics, fused, fused_metrics,
                        exact_clock=exact)
    if method in FUSION_AWARE and sweep != "one_bucket":
        # whichever plan is charged reports a hidden share (vgg11's
        # compute window is too shallow for its buckets, so whole-model
        # sync is; the strict win is pinned on a compute-heavy
        # workload below)
        assert fused.extra["sync_hidden_s"] > 0.0


@pytest.mark.parametrize("method", ["ring", "socflow"])
def test_tracing_does_not_perturb_fused_runs(references, tiny_task, method):
    """The tracer observes the sync plan without changing it.  vgg11's
    compute window is too shallow for its buckets, so the plan loses
    on every step: the traced fused run is charged whole-model sync —
    the fusion-off clock, energy and hidden share — draws no bucket
    span and counts every step as clamped."""
    ref, ref_metrics = references[method]
    config = base_config(tiny_task, **FUSION_SWEEP["mb4"])
    traced_config = dataclasses.replace(
        config, telemetry=Telemetry(tracer=Tracer(),
                                    metrics=MetricsRegistry()))
    if method == "socflow":
        traced = SoCFlow(SoCFlowOptions()).train(traced_config)
    else:
        traced = build_strategy(method).train(traced_config)
    assert traced.accuracy_history == ref.accuracy_history
    untraced, untraced_metrics = run(config, method)
    assert traced.sim_time_s == untraced.sim_time_s == ref.sim_time_s
    assert traced.breakdown == untraced.breakdown == ref.breakdown
    assert traced.energy == ref.energy
    assert traced.extra["sync_hidden_s"] == ref.extra["sync_hidden_s"]
    records = traced_config.telemetry.tracer.records
    assert not [r for r in records if r.name == "bucket_sync"]
    compute = [r for r in records if r.name == "compute"]
    steps = compute[0].args["steps"] * traced.epochs_run
    counter = traced_config.telemetry.metrics.counter("sync.fusion_clamped")
    assert counter.value == steps > 0


def test_compute_heavy_workload_strictly_wins(tiny_task):
    """ResNet-18 under PS: the compute window is deep and the incast
    sync long, so early buckets genuinely start while backward still
    runs — the bucket plan is charged and must strictly beat the
    sequential clock here, not just tie it."""
    base = base_config(tiny_task, model_name="resnet18", max_epochs=1)
    ref, ref_metrics = run(base, "ps")
    fused, fused_metrics = run(
        dataclasses.replace(base, fusion_threshold_mb=4.0), "ps")
    assert_differential(ref, ref_metrics, fused, fused_metrics,
                        exact_clock=False)
    assert fused.sim_time_s < ref.sim_time_s
    assert fused.extra["sync_hidden_s"] > ref.extra["sync_hidden_s"]


@pytest.mark.parametrize("sweep", ["mb4", "ops1"])
@pytest.mark.parametrize("method", ["ring", "hipress", "socflow"])
def test_fused_runs_survive_faults_identically(tiny_task, method, sweep):
    """Crash + NIC-flap schedules: the fused run recovers through the
    same path and still matches the unbucketed run bit for bit."""
    schedule = FaultSchedule((SoCCrash(1, 2),
                              NicDegradation(1, 0, 0.25, recover_epoch=2)))
    faulted = dict(fault_schedule=schedule, fault_mode="continue")
    ref, ref_metrics = run(base_config(tiny_task, **faulted), method)
    fused, fused_metrics = run(
        base_config(tiny_task, **faulted, **FUSION_SWEEP[sweep]), method)
    assert_differential(ref, ref_metrics, fused, fused_metrics,
                        exact_clock=False)
    assert fused.extra.get("aborted", False) is False
