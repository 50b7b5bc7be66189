"""Differential harness: ``--graph`` may not move ANYTHING observable.

The graph executor replays a compiled training step instead of
re-interpreting the autograd tape, so a ``graph=True`` run must be a
pure host-side optimisation: for every registered strategy (plus
SoCFlow) it must produce

- bit-identical learning: the same accuracy history and, for SoCFlow,
  the byte-identical final state;
- an identical simulated wall clock (the executor changes host time
  only; simulated time prices the modelled cluster, which is
  unchanged);
- identical metrics except the ``graph.*`` counters the executor
  itself contributes.

The contract must survive worker processes, injected faults (whose
re-grouping reloads and re-forms the replicas that share each compiled
plan mid-run) and tracing.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import (ClusterTopology, FaultSchedule, NicDegradation,
                          SoCCrash)
from repro.core import SoCFlow, SoCFlowOptions
from repro.distributed import STRATEGY_REGISTRY, RunConfig, build_strategy
from repro.telemetry import MetricsRegistry, Telemetry, Tracer

#: every one of them attaches the executor to a host-side model when
#: ``graph=True`` — hipress included: its DGC gradient hook runs
#: between a replay's gradient publication and ``optimizer.step()``
METHODS = sorted(STRATEGY_REGISTRY) + ["socflow"]


def base_config(tiny_task, **overrides):
    kwargs = dict(
        task=tiny_task, model_name="vgg11", width=0.15, batch_size=16,
        lr=0.05, momentum=0.9, max_epochs=2, seed=0,
        topology=ClusterTopology(num_socs=16),
        sim_samples_per_epoch=50_000, sim_global_batch=64, num_groups=4)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def run(config, method, options=None):
    metrics = MetricsRegistry()
    config = dataclasses.replace(
        config, telemetry=Telemetry(metrics=metrics))
    if method == "socflow":
        result = SoCFlow(options or SoCFlowOptions()).train(config)
    else:
        result = build_strategy(method).train(config)
    return result, metrics


def non_graph_metrics(metrics):
    """Every series except the executor's own ``graph.*`` counters."""
    return [r for r in metrics.collect()
            if not r["name"].startswith("graph.")]


def assert_differential(ref, ref_metrics, graphed, graphed_metrics):
    __tracer__ = "hide"
    assert graphed.accuracy_history == ref.accuracy_history
    assert graphed.epochs_run == ref.epochs_run
    assert graphed.sim_time_s == ref.sim_time_s
    assert graphed.breakdown == ref.breakdown
    assert non_graph_metrics(graphed_metrics) == non_graph_metrics(
        ref_metrics)
    if "final_state" in ref.extra:
        a, b = ref.extra["final_state"], graphed.extra["final_state"]
        assert list(a) == list(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key


@pytest.fixture(scope="module")
def references(tiny_task):
    """One eager (graph=False) run per method, shared across tests."""
    return {method: run(base_config(tiny_task), method)
            for method in METHODS}


@pytest.mark.parametrize("method", METHODS)
def test_graph_run_is_differentially_identical(references, tiny_task,
                                               method):
    ref, ref_metrics = references[method]
    graphed, graphed_metrics = run(base_config(tiny_task, graph=True),
                                   method)
    assert_differential(ref, ref_metrics, graphed, graphed_metrics)


@pytest.mark.parametrize("method", ["local", "ring", "hipress"])
def test_graph_stats_report_replays(tiny_task, method):
    """The per-run report proves the compiled path actually ran: one
    capture per shape, everything else replayed."""
    graphed, graphed_metrics = run(base_config(tiny_task, graph=True),
                                   method)
    (stats,) = graphed.extra["graph_stats"].values()
    assert stats["captures"] >= 1
    assert stats["replays"] > stats["captures"]
    assert stats["fallbacks"] == 0
    counters = {r["name"]: r["value"] for r in graphed_metrics.collect()
                if r["name"].startswith("graph.")
                and r["labels"] == {"precision": "fp32"}}
    assert counters["graph.replays"] == stats["replays"]
    assert counters["graph.captures"] == stats["captures"]


def test_hipress_replays_with_its_gradient_hook(references, tiny_task):
    """DGC rewrites the gradients between backward and
    ``optimizer.step()``; the update sits outside the compiled plan, so
    the hook runs after a replay exactly where it runs after an eager
    backward.  The graphed run must *be* the eager run — weights,
    metrics stream, simulated clock, hidden sync — and must actually
    replay instead of falling back."""
    ref, ref_metrics = references["hipress"]
    config = base_config(tiny_task, graph=True)
    graphed, graphed_metrics = run(config, "hipress")
    assert_differential(ref, ref_metrics, graphed, graphed_metrics)
    assert graphed.extra["sync_hidden_s"] == ref.extra["sync_hidden_s"]
    assert "graph_stats" not in ref.extra
    stats = graphed.extra["graph_stats"]["fp32"]
    assert stats["replays"] > 0
    assert stats["fallbacks"] == stats["eager_steps"] == 0
    counters = {r["name"]: r["value"] for r in graphed_metrics.collect()
                if r["name"].startswith("graph.")}
    assert counters["graph.fallbacks"] == 0
    assert counters["graph.replays"] == stats["replays"]
    # the weights themselves, step for step (the strategy keeps no
    # final state): the strategy's own loop, hook and all
    from repro.distributed.base import fp32_train_step, make_model
    from repro.nn.optim import SGD
    models = []
    for graph in (False, True):
        strategy = build_strategy("hipress")
        strategy.on_epoch_begin(0)
        model = make_model(config)
        optimizer = SGD(model.parameters(), lr=config.lr,
                        momentum=config.momentum,
                        flat=model.flatten_parameters())
        if graph:
            model.enable_graph_executor()
        losses = [fp32_train_step(
            model, optimizer, tiny_task.x_train[i:i + 16],
            tiny_task.y_train[i:i + 16],
            grad_hook=strategy.transform_gradients)
            for i in range(0, 96, 16)]
        models.append((model, optimizer, losses))
    (eager, eager_opt, eager_losses), (replayed, opt, losses) = models
    assert losses == eager_losses
    assert replayed._graph_exec.stats == {
        "captures": 1, "replays": 5, "eager_steps": 0, "fallbacks": 0}
    a, b = eager.state_dict(), replayed.state_dict()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    for va, vb in zip(eager_opt.state_dict()["velocity"],
                      opt.state_dict()["velocity"]):
        assert np.array_equal(va, vb)


@pytest.mark.parametrize("precision", ["mixed", "int8"])
def test_mixed_precision_graph_is_differentially_identical(tiny_task,
                                                           precision):
    """Fig. 14's INT8-bearing precision modes with ``--graph``: the
    quantised step compiles too (stochastic-rounding RNG stream, EMA
    observer updates and master-weight correction replay bit-exactly),
    and nothing observable moves.  The per-precision stats prove the
    INT8 programs actually replayed rather than silently falling back."""
    options = SoCFlowOptions(precision=precision)
    ref, ref_metrics = run(base_config(tiny_task), "socflow", options)
    graphed, graphed_metrics = run(base_config(tiny_task, graph=True),
                                   "socflow", options)
    assert_differential(ref, ref_metrics, graphed, graphed_metrics)
    assert "graph_stats" not in ref.extra
    stats = graphed.extra["graph_stats"]
    assert stats["int8"]["captures"] >= 1
    assert stats["int8"]["replays"] > stats["int8"]["captures"]
    assert stats["int8"]["fallbacks"] == 0
    counters = {(r["name"], r["labels"].get("precision")): r["value"]
                for r in graphed_metrics.collect()
                if r["name"].startswith("graph.")}
    assert counters[("graph.replays", "int8")] == stats["int8"]["replays"]
    assert counters[("graph.int8_fallbacks", None)] == 0
    if precision == "mixed":
        assert stats["fp32"]["replays"] > 0
        assert counters[("graph.replays", "fp32")] == stats["fp32"]["replays"]


def test_workers_remain_bit_identical_with_graph(references, tiny_task):
    """SoCFlow with worker processes: each worker rebuilds its trainer
    (and its executor) from the pickled config; results must match the
    sequential graphed run, which matches eager."""
    ref, _ = references["socflow"]
    config = base_config(tiny_task, graph=True, workers=2)
    graphed, _ = run(config, "socflow")
    assert graphed.accuracy_history == ref.accuracy_history
    assert graphed.sim_time_s == ref.sim_time_s
    a, b = ref.extra["final_state"], graphed.extra["final_state"]
    for key in a:
        assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("method", ["ring", "hipress", "socflow"])
def test_graph_runs_survive_faults_identically(tiny_task, method):
    """Crash + NIC flap under ``continue``: SoCFlow's re-grouping
    rolls the survivors back and re-forms the group list mid-run; the
    replicas' bindings of the shared plans must come through intact."""
    schedule = FaultSchedule((SoCCrash(1, 2),
                              NicDegradation(1, 0, 0.25, recover_epoch=2)))
    faulted = dict(fault_schedule=schedule, fault_mode="continue",
                   max_epochs=3)
    ref, ref_metrics = run(base_config(tiny_task, **faulted), method)
    graphed, graphed_metrics = run(
        base_config(tiny_task, graph=True, **faulted), method)
    assert_differential(ref, ref_metrics, graphed, graphed_metrics)
    assert graphed.extra.get("aborted", False) is False


def test_socflow_compiles_per_batch_shape_not_per_group(tiny_task,
                                                       monkeypatch):
    """Four LGs, a crash and a recovery: the groups are structurally
    identical replicas drawing on one plan cache, so each precision is
    traced at most once per distinct batch shape it meets (2x leaves
    room for a private plan) — not once per group, and not again after
    ``reform_groups``."""
    from repro.core.mixed_precision import GroupMixedTrainer

    shapes = {"fp32": set(), "int8": set()}
    train_batch = GroupMixedTrainer.train_batch

    def recording(self, x, y):
        cpu_n, npu_n = self.controller.split_batch(len(x))
        shapes["fp32"].add(cpu_n)
        shapes["int8"].add(npu_n)
        return train_batch(self, x, y)

    monkeypatch.setattr(GroupMixedTrainer, "train_batch", recording)
    schedule = FaultSchedule((SoCCrash(1, 2),))
    graphed, metrics = run(
        base_config(tiny_task, graph=True, fault_schedule=schedule,
                    fault_mode="continue", max_epochs=3), "socflow")
    assert len(graphed.extra["recoveries"]) == 1
    stats, plans = graphed.extra["graph_stats"], graphed.extra["graph_plans"]
    for precision in ("fp32", "int8"):
        distinct = len(shapes[precision] - {0})
        assert 1 <= stats[precision]["captures"] <= 2 * distinct
        assert stats[precision]["fallbacks"] == 0
        assert plans[precision]["plans"] == stats[precision]["captures"]
        assert plans[precision]["unshared_plans"] == 0
        assert plans[precision]["binds"] >= 4          # every LG bound
    series = {(r["name"], r["labels"].get("precision")): r["value"]
              for r in metrics.collect() if r["name"].startswith("graph.")}
    for precision, counters in plans.items():
        for key in ("plans", "binds", "unshared_plans", "workspace_bytes"):
            assert series[(f"graph.{key}", precision)] == counters[key]


def test_tracing_does_not_perturb_graph_runs(references, tiny_task):
    """The tracer observes the executor without changing it, and a
    graphed run emits a ``graph_replay`` span carrying the stats."""
    for method in ("ring", "hipress"):
        ref, _ = references[method]
        config = base_config(tiny_task, graph=True)
        traced_config = dataclasses.replace(
            config, telemetry=Telemetry(tracer=Tracer(),
                                        metrics=MetricsRegistry()))
        traced = build_strategy(method).train(traced_config)
        assert traced.accuracy_history == ref.accuracy_history
        assert traced.sim_time_s == ref.sim_time_s
        spans = [r for r in traced_config.telemetry.tracer.records
                 if r.name == "graph_replay"]
        assert len(spans) == 1 and spans[0].args["precision"] == "fp32"
        assert (spans[0].args["replays"]
                == traced.extra["graph_stats"]["fp32"]["replays"] > 0)
