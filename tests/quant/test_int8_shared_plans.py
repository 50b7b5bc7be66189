"""INT8 twin of ``tests/nn/test_graph_shared_plans.py``.

The INT8 step adds replica-owned state the FP32 step does not have —
the stochastic-rounding generator, the input and per-layer EMA range
observers — and plan-owned scratch it does not have either: the
master-weight snapshot, the segment quantiser and the clip's float64
segment, pooled per run across batch shapes.  Same contract: replicas
through one plan are bit-identical to eager replicas, with the whole
workspace poisoned between steps, under any interleaving of steps,
batch-split changes, ``reform_groups`` shrink/grow and warm restarts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology
from repro.core.mixed_precision import GroupMixedTrainer
from repro.core.socflow import reform_groups
from repro.data import make_classification_images
from repro.distributed import RunConfig
from repro.nn import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.arena import StepArena
from repro.nn.models.registry import build_model
from repro.quant import Int8Trainer, QuantConfig
from repro.quant.mixed import MixedPrecisionController

IMAGE = 16
SPECS = {
    "lenet5": dict(in_channels=1, width=0.5),
    "resnet18": dict(in_channels=3, width=0.25),
    "mobilenet_v1": dict(in_channels=3, width=0.25),
    "vit_tiny": dict(in_channels=3, width=0.5),
    "mlp_dropout": dict(in_channels=1),
}
CONFIGS = {
    "int8": QuantConfig(),
    "int8_rint": QuantConfig(stochastic_rounding=False),
    "fp16": QuantConfig(float16=True),
    "weights_only": QuantConfig(quantize_activations=False,
                                quantize_gradients=False),
}


def build(name, seed):
    if name == "mlp_dropout":
        rng = np.random.default_rng(seed)
        return Sequential(
            Flatten(), Linear(IMAGE * IMAGE, 24, rng), ReLU(),
            Dropout(0.25, np.random.default_rng(100 + seed)),
            Linear(24, 10, rng))
    return build_model(name, seed=seed, num_classes=10, image_size=IMAGE,
                       **SPECS[name])


def make_trainer(name, seed, config, arena=None, **executor_kwargs):
    trainer = Int8Trainer(build(name, seed), lr=0.05, config=config,
                          momentum=0.9, seed=40 + seed)
    if arena is not None:
        trainer.enable_graph_executor(arena=arena, **executor_kwargs)
    return trainer


def batch(name, seed, size=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (size, SPECS[name]["in_channels"], IMAGE, IMAGE)).astype(np.float32)
    return x, rng.integers(0, 10, size=size)


def assert_trainers_identical(a: Int8Trainer, b: Int8Trainer):
    __tracer__ = "hide"
    state_a, state_b = a.model.state_dict(), b.model.state_dict()
    assert list(state_a) == list(state_b)
    for key in state_a:                 # weights and BN running stats
        assert np.array_equal(state_a[key], state_b[key]), key
    for va, vb in zip(a.optimizer.state_dict()["velocity"],
                      b.optimizer.state_dict()["velocity"]):
        assert np.array_equal(va, vb)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert (GroupMixedTrainer._module_rng_states(a.model)
            == GroupMixedTrainer._module_rng_states(b.model))
    assert a._input_observer._ema == b._input_observer._ema
    emas_a = [o._ema for o in a._activation_observers()]
    assert emas_a == [o._ema for o in b._activation_observers()]


def poison(plan) -> None:
    for array, persistent in plan.workspace:
        if not persistent:
            kind = array.dtype.kind
            array.fill(np.nan if kind == "f" else True if kind == "b" else -1)


def the_plan(trainer):
    (program,) = trainer._graph_exec._programs.values()
    return program.plan


# ----------------------------------------------------------------------
CASES = [(name, "int8") for name in sorted(SPECS)] + [
    ("lenet5", config) for config in sorted(CONFIGS) if config != "int8"]


@pytest.mark.parametrize("name,config_name", CASES)
def test_round_robin_replicas_match_eager_and_survive_poison(name,
                                                             config_name):
    config = CONFIGS[config_name]
    arena = StepArena()
    eager = [make_trainer(name, seed, config) for seed in range(3)]
    graphed = [make_trainer(name, seed, config, arena) for seed in range(3)]
    for step in range(3):
        for r in range(3):
            x, y = batch(name, 10 * step + r)
            assert (eager[r].train_step(x, y)
                    == graphed[r].train_step(x, y)), (step, r)
            poison(the_plan(graphed[0]))
    for pair in zip(eager, graphed):
        assert_trainers_identical(*pair)
    counters = arena.snapshot()["int8"]
    assert (counters["plans"], counters["binds"]) == (1, 3)
    assert counters["unshared_plans"] == 0
    assert len({id(the_plan(t)) for t in graphed}) == 1
    assert [t.graph_stats()["captures"] for t in graphed] == [1, 0, 0]
    assert [t.graph_stats()["replays"] for t in graphed] == [2, 3, 3]
    assert all(t.graph_stats()["fallbacks"] == 0 for t in graphed)


def test_stage_scratch_is_pooled_across_batch_shapes():
    """The quantiser/master/clip scratch depends on the layout, not on
    the batch: a second batch shape compiles a second plan but draws on
    the same pooled set, so the workspace grows by less than a plan."""
    arena = StepArena()
    trainers = [make_trainer("lenet5", seed, QuantConfig(), arena)
                for seed in range(2)]
    for trainer in trainers:
        trainer.train_step(*batch("lenet5", 0, size=8))
    one_shape = arena.snapshot()["int8"]["workspace_bytes"]
    for trainer in trainers:
        trainer.train_step(*batch("lenet5", 1, size=4))
    counters = arena.snapshot()["int8"]
    assert counters["plans"] == 2 and counters["binds"] == 4
    plan_a, plan_b = (p.plan for p in
                      trainers[0]._graph_exec._programs.values())
    assert plan_a.scratch is plan_b.scratch
    assert counters["workspace_bytes"] - one_shape \
        == plan_b.workspace_bytes < one_shape


def test_different_quant_config_is_refused_not_misbound():
    """(d): same model, same cache, another ``QuantConfig`` or clip
    norm — a different plan key, so a new compile."""
    arena = StepArena()
    variants = [dict(config=QuantConfig()),
                dict(config=QuantConfig(bits=4)),
                dict(config=QuantConfig(), max_grad_norm=None),
                dict(config=QuantConfig())]        # shares the first's
    for i, kwargs in enumerate(variants):
        eager = Int8Trainer(build("lenet5", i), lr=0.05, seed=i, **kwargs)
        graphed = Int8Trainer(build("lenet5", i), lr=0.05, seed=i, **kwargs)
        graphed.enable_graph_executor(arena=arena)
        for step in range(3):
            x, y = batch("lenet5", step)
            assert eager.train_step(x, y) == graphed.train_step(x, y), i
        assert_trainers_identical(eager, graphed)
        assert graphed.graph_stats()["captures"] == (0 if i == 3 else 1)
    assert arena.snapshot()["int8"]["plans"] == 3


def test_replaying_a_running_plan_raises_across_pooled_shapes():
    """(e): INT8 plans of different batch shapes share the pooled stage
    scratch, hence one guard: a step of *either* shape started inside
    a replay must raise."""
    arena = StepArena()
    first, second = (make_trainer("lenet5", seed, QuantConfig(), arena)
                     for seed in range(2))
    big, small = batch("lenet5", 0, size=8), batch("lenet5", 1, size=4)
    for trainer in (first, second):
        trainer.train_step(*big)
        trainer.train_step(*small)
    for nested in (big, small):
        first.model.train = lambda: second.train_step(*nested)
        with pytest.raises(RuntimeError, match="already running"):
            first.train_step(*big)
        del first.model.train
    first.train_step(*big)


# ----------------------------------------------------------------------
TASK = make_classification_images(
    num_classes=4, train_size=96, test_size=32, channels=1, image_size=12,
    difficulty=0.4, seed=3)

OPS = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 2), st.sampled_from([8, 16])),
    st.tuples(st.just("alpha"), st.sampled_from([0.3, 0.8, 1.6])),
    st.tuples(st.just("reform"), st.integers(1, 3)),
    st.tuples(st.just("restart"), st.integers(0, 2)))


def run_ops(ops, graph: bool):
    config = RunConfig(
        task=TASK, model_name="lenet5", width=0.3, batch_size=16, lr=0.05,
        momentum=0.9, max_epochs=1, seed=0, graph=graph,
        topology=ClusterTopology(num_socs=8), sim_samples_per_epoch=1000,
        sim_global_batch=32, num_groups=2)
    controller = MixedPrecisionController(1.0, 0.5)
    quant = QuantConfig()
    base = GroupMixedTrainer(config, controller, quant, seed_offset=0)
    groups = [base] + [
        GroupMixedTrainer(config, controller, quant, seed_offset=g,
                          arena=base.arena) for g in (1, 2)]
    cursor = 0
    for op in ops:
        if op[0] == "step":
            group = groups[op[1] % len(groups)]
            rows = np.arange(cursor, cursor + op[2]) % len(TASK.x_train)
            cursor += op[2]
            group.train_batch(TASK.x_train[rows], TASK.y_train[rows])
        elif op[0] == "alpha":          # moves the CPU/NPU batch split
            controller.alpha = op[1]
        elif op[0] == "reform":         # fault recovery / elastic resize
            groups = reform_groups(config, controller, quant, groups,
                                   op[1], groups[0].state_dict())
        else:                           # warm restart into a new trainer
            index = op[1] % len(groups)
            state = groups[index].runtime_state()
            groups[index] = GroupMixedTrainer(
                config, controller, quant, seed_offset=index,
                arena=groups[0].arena)
            groups[index].load_runtime_state(state)
    return groups


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=12))
def test_interleaved_steps_reforms_and_restarts_match_eager(ops):
    """(c): whole logical groups (FP32 + INT8 replica each) sharing one
    cache, under steps in any order, CPU/NPU split changes, shrinking
    and re-growing the group list, and ``runtime_state`` restarts."""
    eager, graphed = run_ops(ops, graph=False), run_ops(ops, graph=True)
    assert len(eager) == len(graphed)
    for a, b in zip(eager, graphed):
        state_a, state_b = a.state_dict(), b.state_dict()
        assert all(np.array_equal(state_a[k], state_b[k]) for k in state_a)
        for va, vb in zip(a.fp32_opt.state_dict()["velocity"],
                          b.fp32_opt.state_dict()["velocity"]):
            assert np.array_equal(va, vb)
        assert_trainers_identical(a.int8, b.int8)
    for group in graphed:
        for stats in group.graph_stats().values():
            assert stats["fallbacks"] == 0
    # one plan per (precision, batch shape) however many replicas,
    # reforms and restarts there were
    shapes = {"fp32": set(), "int8": set()}
    for group in graphed:
        shapes["fp32"] |= set(group.fp32._graph_exec._programs)
        shapes["int8"] |= set(group.int8._graph_exec._programs)
    for precision, counters in graphed[0].arena.snapshot().items():
        assert counters["unshared_plans"] == 0
        assert counters["plans"] >= len(shapes[precision])
        assert counters["plans"] <= 6       # 2 batch sizes x 3 alphas
