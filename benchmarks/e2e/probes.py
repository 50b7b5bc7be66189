"""Step-level probes: direct timed calls into single layers.

Spans (:mod:`spans`) say where a *run* spent its time; probes say what
one call of a layer's entry point costs on the workload's own model,
batch shape and cluster, under controlled repetition.  Every object is
built from the workload's ``RunConfig`` through public constructors;
nothing here reaches the end-to-end metrics.

Each timing is the p50 (and, for the four training-step probes, the
p90) of up to ``N_SAMPLES`` calls, cut short only by the probe's share
of the traced run's time budget; the sample count is reported with it.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.comm.buckets import bucketed_average_states
from repro.comm.primitives import average_states
from repro.core.checkpoint import TrainingCheckpoint
from repro.core.grouping import allocation_group_count
from repro.core.mapping import integrity_greedy_mapping
from repro.core.planning import build_conflict_graph, divide_into_cgs
from repro.distributed.base import (CostModel, evaluate_accuracy,
                                    fp32_train_step, make_model)
from repro.nn import functional as F
from repro.nn.graph import attach_graph_executor
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.quant.int8 import QuantConfig, fake_quantize_segments
from repro.quant.mixed import MixedPrecisionController, merge_weights
from repro.quant.trainer import Int8Trainer
from repro.telemetry.export import to_chrome_trace

__all__ = ["run_probes", "percentile"]

N_SAMPLES = 100
MIN_SAMPLES = 10


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (the repo's own convention)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _want_more(taken: int, n: int, deadline: float) -> bool:
    """Sample until ``n``; past the deadline, only up to MIN_SAMPLES."""
    return taken < n and (taken < MIN_SAMPLES
                          or time.perf_counter() < deadline)


def _sample_ms(fn, cap_s: float, n: int = N_SAMPLES,
               warmup: int = 2) -> "list[float]":
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    deadline = time.perf_counter() + cap_s
    while _want_more(len(samples), n, deadline):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def _sgd(model, config) -> SGD:
    return SGD(model.parameters(), lr=config.lr, momentum=config.momentum,
               weight_decay=config.weight_decay,
               flat=model.flatten_parameters())


def _step_metrics(out: dict, counts: dict, key: str,
                  samples: "list[float]") -> None:
    out[f"{key}_ms"] = percentile(samples, 50)
    out[f"{key}_p90_ms"] = percentile(samples, 90)
    counts[key] = len(samples)


# ----------------------------------------------------------------------
def _probe_nn(config, x, y, cap_s: float, out: dict, counts: dict) -> None:
    model = make_model(config)
    optimizer = _sgd(model, config)
    _step_metrics(out, counts, "nn.step_eager", _sample_ms(
        lambda: fp32_train_step(model, optimizer, x, y), cap_s))

    # the three parts of the eager step, as fp32_train_step sequences them
    forward, backward, update = [], [], []
    deadline = time.perf_counter() + cap_s
    while _want_more(len(forward), N_SAMPLES, deadline):
        model.train()
        optimizer.zero_grad()
        t0 = time.perf_counter()
        loss = F.cross_entropy(model(Tensor(x)), y)
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        optimizer.step()
        t3 = time.perf_counter()
        forward.append((t1 - t0) * 1e3)
        backward.append((t2 - t1) * 1e3)
        update.append((t3 - t2) * 1e3)
    out["nn.forward_ms"] = percentile(forward, 50)
    out["nn.backward_ms"] = percentile(backward, 50)
    out["nn.optimizer_ms"] = percentile(update, 50)
    counts["nn.parts"] = len(forward)

    task = config.task
    out["nn.eval_ms"] = percentile(_sample_ms(
        lambda: evaluate_accuracy(model, task.x_test, task.y_test),
        cap_s / 2, n=10, warmup=1), 50)

    graphed = make_model(config)
    graph_optimizer = _sgd(graphed, config)
    executor = attach_graph_executor(graphed)
    t0 = time.perf_counter()
    fp32_train_step(graphed, graph_optimizer, x, y)     # trace + compile
    out["nn.graph_capture_ms"] = (time.perf_counter() - t0) * 1e3
    _step_metrics(out, counts, "nn.step_graph", _sample_ms(
        lambda: fp32_train_step(graphed, graph_optimizer, x, y), cap_s))
    programs = executor.program_stats() if executor is not None else []
    out["nn.arena_bytes"] = sum(p["arena_bytes"] for p in programs)


def _probe_quant(config, x, y, cap_s: float, out: dict,
                 counts: dict) -> None:
    quant = QuantConfig()

    def trainer(graph: bool) -> Int8Trainer:
        built = Int8Trainer(make_model(config), lr=config.lr, config=quant,
                            momentum=config.momentum,
                            weight_decay=config.weight_decay,
                            seed=config.seed)
        if graph:
            built.enable_graph_executor()
        return built

    eager, graphed = trainer(False), trainer(True)
    _step_metrics(out, counts, "quant.step_eager", _sample_ms(
        lambda: eager.train_step(x, y), cap_s))
    _step_metrics(out, counts, "quant.step_graph", _sample_ms(
        lambda: graphed.train_step(x, y), cap_s))

    flat = eager.model.flatten_parameters()
    layout = flat.layout
    starts = np.asarray(layout.offsets[:layout.num_params], dtype=np.intp)
    sizes = np.asarray(layout.sizes[:layout.num_params], dtype=np.intp)
    out["quant.fake_quant_ms"] = percentile(_sample_ms(
        lambda: fake_quantize_segments(flat.params, starts, sizes, quant),
        cap_s / 2), 50)
    fp32_state = make_model(config).state_dict()
    int8_state = eager.model.state_dict()
    out["quant.merge_ms"] = percentile(_sample_ms(
        lambda: merge_weights(fp32_state, int8_state, 0.9), cap_s / 2), 50)


def _probe_comm(config, cap_s: float, out: dict) -> None:
    states = [make_model(config, seed_offset=g).state_dict()
              for g in range(config.num_groups)]
    out["comm.average_ms"] = percentile(_sample_ms(
        lambda: average_states(states), cap_s / 2), 50)
    # the workload's own fusion threshold; 4 MiB where it runs unbucketed
    fused = CostModel(replace(
        config, fusion_threshold_mb=config.fusion_threshold_mb or 4.0))
    plan = fused.bucket_plan(make_model(config).flatten_parameters().layout)
    out["comm.bucketed_average_ms"] = percentile(_sample_ms(
        lambda: bucketed_average_states(states, plan), cap_s / 2), 50)
    out["comm.num_buckets"] = plan.num_buckets


def _probe_cluster_core(config, cost: CostModel, out_dir: Path,
                        cap_s: float, out: dict) -> None:
    topology = config.topology
    mapping = integrity_greedy_mapping(topology, config.num_groups)
    num_socs = topology.num_socs
    out["cluster.charge_step_us"] = 1e3 * percentile(_sample_ms(
        lambda: cost.charge_step(0.05, 0.01, num_socs), cap_s / 4,
        n=1000), 50)
    payload = cost.grad_bytes
    out["cluster.ring_allreduce_us"] = 1e3 * percentile(_sample_ms(
        lambda: cost.fabric.concurrent_ring_allreduce_time(
            mapping.groups, payload), cap_s / 4), 50)

    out["core.mapping_ms"] = percentile(_sample_ms(
        lambda: integrity_greedy_mapping(topology, config.num_groups),
        cap_s / 4), 50)

    def plan_cgs():
        build_conflict_graph(mapping)
        divide_into_cgs(mapping)
    out["core.planning_ms"] = percentile(_sample_ms(plan_cgs, cap_s / 4), 50)
    out["core.group_select_ms"] = percentile(_sample_ms(
        lambda: allocation_group_count(num_socs, 4), cap_s / 4, n=1000), 50)
    out["core.max_split_lgs_per_pcb"] = mapping.conflict_count()

    checkpoint = TrainingCheckpoint(
        model_state=make_model(config).state_dict(), epoch=0,
        rng_seed=config.seed, meta={"model": config.model_name})
    path = out_dir / "probe_checkpoint.npz"
    out["core.checkpoint_ms"] = percentile(_sample_ms(
        lambda: checkpoint.save(path), cap_s / 2, n=10, warmup=1), 50)
    path.unlink()


def run_probes(config, out_dir: Path, cap_s: float,
               tracer=None) -> "tuple[dict, dict]":
    """All probes on ``config``; returns ``(metrics, sample_counts)``.

    ``cap_s`` bounds each training-step probe (cheaper probes get a
    fraction of it); ``tracer`` is the workload's simulated-clock tracer
    when it ran with telemetry, for the Chrome-export probe.
    """
    out: dict = {}
    counts: dict = {}
    config = replace(config, telemetry=None, fault_schedule=None)
    cost = CostModel(config)
    # the CPU/NPU split GroupMixedTrainer.train_batch starts from
    controller = MixedPrecisionController(cost.t_cpu_sample,
                                          cost.t_npu_sample)
    batch = min(config.batch_size, len(config.task.x_train))
    cpu_n, _ = controller.split_batch(batch)
    cpu_n = max(1, min(cpu_n, batch - 1))
    x, y = config.task.x_train[:batch], config.task.y_train[:batch]
    _probe_nn(config, x[:cpu_n], y[:cpu_n], cap_s, out, counts)
    _probe_quant(config, x[cpu_n:], y[cpu_n:], cap_s, out, counts)
    _probe_comm(config, cap_s, out)
    _probe_cluster_core(config, cost, out_dir, cap_s, out)
    if tracer is not None:
        out["telemetry.export_chrome_ms"] = percentile(_sample_ms(
            lambda: to_chrome_trace(tracer), cap_s / 2, n=10, warmup=1), 50)
    return out, counts
