"""Trace-once/replay-many graph executor: bit-identity and fallbacks.

The executor's contract is absolute: a replayed step computes the
*exact same bits* as the eager tape interpreter — same loss floats,
same weights, same optimizer momentum — or it does not run at all
(automatic fallback to eager).  These tests pin the contract on every
registry model and exercise each fallback edge: shape changes,
program-cache overflow, refused captures, and storage rebinding
(what ``reform_groups`` does to a survivor model mid-run).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Module, Sequential, Tensor
from repro.nn import graph as graph_mod
from repro.nn import kernels as K
from repro.nn.graph import GraphExecutor, attach_graph_executor
from repro.nn.models.registry import MODEL_REGISTRY, build_model
from repro.nn.optim import SGD

#: smallest geometry at which every registry model still builds
SPECS = {
    "lenet5": dict(in_channels=1, image_size=16, width=0.5),
    "vgg11": dict(in_channels=3, image_size=16, width=0.25),
    "resnet18": dict(in_channels=3, image_size=16, width=0.25),
    "resnet50": dict(in_channels=3, image_size=16, width=0.25),
    "mobilenet_v1": dict(in_channels=3, image_size=16, width=0.25),
    "vit_tiny": dict(in_channels=3, image_size=16, width=0.5),
}
BATCH = 8


def make(name, graph=False, **executor_kwargs):
    kwargs = SPECS[name]
    model = build_model(name, seed=3, num_classes=10, **kwargs)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=1e-4, flat=model.flatten_parameters())
    executor = None
    if graph:
        executor = attach_graph_executor(model, **executor_kwargs)
        assert isinstance(executor, GraphExecutor)
    return model, optimizer, executor


def batches(name, steps, batch=BATCH, seed=99):
    kwargs = SPECS[name]
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = rng.standard_normal(
            (batch, kwargs["in_channels"], kwargs["image_size"],
             kwargs["image_size"])).astype(np.float32)
        y = rng.integers(0, 10, size=batch)
        yield x, y


def train(name, steps=4, graph=False, batch=BATCH, **executor_kwargs):
    model, optimizer, executor = make(name, graph=graph, **executor_kwargs)
    losses = []
    for x, y in batches(name, steps, batch=batch):
        if executor is not None:
            losses.append(executor.step(optimizer, x, y))
        else:
            losses.append(graph_mod.train_step(model, optimizer, x, y))
    return model, optimizer, executor, losses


def assert_states_equal(a, b):
    __tracer__ = "hide"
    assert list(a) == list(b)
    for key in a:
        left, right = a[key], b[key]
        if isinstance(left, list):           # SGD velocity buffers
            assert len(left) == len(right), key
            for i, (x, y) in enumerate(zip(left, right)):
                assert np.array_equal(x, y), (key, i)
        else:
            assert np.array_equal(left, right), key


def test_registry_is_covered():
    assert set(SPECS) == set(MODEL_REGISTRY)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_replay_is_bit_identical_to_eager(name):
    """Loss floats, weights, buffers and momentum all match exactly."""
    eager_model, eager_opt, _, eager_losses = train(name)
    graph_model, graph_opt, executor, graph_losses = train(name, graph=True)
    assert graph_losses == eager_losses
    assert_states_equal(eager_model.state_dict(), graph_model.state_dict())
    assert_states_equal(eager_opt.state_dict(), graph_opt.state_dict())
    # one capture, the rest replays, no fallbacks
    assert executor.stats["captures"] == 1
    assert executor.stats["replays"] == 3
    assert executor.stats["fallbacks"] == 0
    assert executor.stats["eager_steps"] == 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_arena_packs_tighter_than_dedicated_buffers(name):
    _, _, executor, _ = train(name, steps=1, graph=True)
    (stats,) = executor.program_stats()
    assert 0 < stats["arena_bytes"] < stats["naive_bytes"]
    # storage sharing (in-place elementwise chains, elided copies) has
    # no off switch; that it never changes bits is what every replay ≡
    # eager test checks.  Every registry model has chains to collapse.
    assert stats["fused_elementwise"] > 0


def test_shape_change_captures_a_second_program():
    model, optimizer, executor = make("lenet5", graph=True)
    for x, y in batches("lenet5", 2, batch=8):
        loss_b8 = executor.step(optimizer, x, y)
    for x, y in batches("lenet5", 2, batch=4):
        loss_b4 = executor.step(optimizer, x, y)
    assert executor.stats["captures"] == 2
    assert executor.stats["replays"] == 2
    assert len(executor.program_stats()) == 2
    assert loss_b8 != loss_b4     # distinct programs really ran


def test_program_cache_overflow_falls_back_to_eager():
    """Past ``max_programs`` shapes, new shapes train eagerly — still
    correct, never cached."""
    model, optimizer, executor = make("lenet5", graph=True, max_programs=1)
    for x, y in batches("lenet5", 2, batch=8):
        executor.step(optimizer, x, y)
    for x, y in batches("lenet5", 3, batch=4):
        executor.step(optimizer, x, y)
    assert executor.stats["captures"] == 1
    assert executor.stats["replays"] == 1
    assert executor.stats["eager_steps"] == 3
    assert len(executor.program_stats()) == 1
    # the overflow steps still trained: compare against an all-eager twin
    twin_model, twin_opt, _ = make("lenet5")
    for x, y in batches("lenet5", 2, batch=8):
        graph_mod.train_step(twin_model, twin_opt, x, y)
    for x, y in batches("lenet5", 3, batch=4):
        graph_mod.train_step(twin_model, twin_opt, x, y)
    assert_states_equal(twin_model.state_dict(), model.state_dict())


class RawNumpyScale(Module):
    """An op outside the kernel table: raw numpy on step data."""

    def forward(self, x):
        def backward(grad):
            x._accumulate(grad * np.float32(0.5))

        return Tensor._make(x.data * np.float32(0.5), (x,), backward)


def test_unsupported_op_falls_back_permanently():
    """A step the tracer cannot account for — a forward value no
    kernel produced — is refused, never replayed wrong: the shape is
    marked permanently eager and training is unaffected."""
    def run(graph):
        model = build_model("lenet5", seed=3, num_classes=10,
                            **SPECS["lenet5"])
        model = Sequential(model, RawNumpyScale())
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                        flat=model.flatten_parameters())
        executor = attach_graph_executor(model) if graph else None
        return executor, [graph_mod.train_step(model, optimizer, x, y)
                          for x, y in batches("lenet5", 4)]

    executor, losses = run(graph=True)
    assert executor.stats["captures"] == 0
    assert executor.stats["fallbacks"] == 1  # the refused capture
    assert executor.stats["eager_steps"] == 3
    assert executor.program_stats() == []
    assert losses == run(graph=False)[1]


def test_raw_numpy_gradient_is_refused_too():
    """The backward choke point: a forward spelled with kernels whose
    gradient is raw numpy."""
    class RawBackward(Module):
        def forward(self, x):
            def backward(grad):
                x._accumulate(grad * np.float32(2.0))

            return Tensor._make(K.multiply(x.data, np.float32(2.0)), (x,),
                                backward)

    model = Sequential(build_model("lenet5", seed=3, num_classes=10,
                                   **SPECS["lenet5"]), RawBackward())
    optimizer = SGD(model.parameters(), lr=0.05,
                    flat=model.flatten_parameters())
    executor = attach_graph_executor(model)
    for x, y in batches("lenet5", 2):
        graph_mod.train_step(model, optimizer, x, y)
    assert executor.stats == {"captures": 0, "replays": 0,
                              "eager_steps": 1, "fallbacks": 1}


def test_storage_rebinding_invalidates_programs():
    """Parameters get fresh storage and the flat buffer is no longer
    intact: the *binding* (closures over the old views) must die, the
    *plan* must not.  The step re-fuses the storage, binds the cached
    plan again and replays — a rebind used to cost an eager fallback
    step plus a full re-trace of an unchanged step."""
    eager_model, eager_opt, _ = make("lenet5")
    model, optimizer, executor = make("lenet5", graph=True)
    steps = list(batches("lenet5", 4))
    for x, y in steps[:2]:
        graph_mod.train_step(eager_model, eager_opt, x, y)
        executor.step(optimizer, x, y)
    assert executor.stats["replays"] == 1
    stale = executor._programs.copy()
    for m in (eager_model, model):
        for param in m.parameters():
            param.data = param.data.copy()       # rebind, values unchanged
    for x, y in steps[2:]:
        assert (graph_mod.train_step(eager_model, eager_opt, x, y)
                == executor.step(optimizer, x, y))
    assert executor.stats == {"captures": 1, "replays": 3,
                              "eager_steps": 0, "fallbacks": 0}
    assert executor.arena.snapshot()["fp32"]["plans"] == 1
    assert executor.arena.snapshot()["fp32"]["binds"] == 2
    (key, fresh), = executor._programs.items()
    assert fresh is not stale[key] and fresh.plan is stale[key].plan
    assert model._flat.is_intact()
    assert_states_equal(eager_model.state_dict(), model.state_dict())
    assert_states_equal(eager_opt.state_dict(), optimizer.state_dict())


def test_attach_is_idempotent_and_detach_restores_eager():
    model, _, executor = make("lenet5", graph=True)
    assert attach_graph_executor(model) is executor
    assert model.enable_graph_executor() is executor
    model.disable_graph_executor()
    assert getattr(model, "_graph_exec", None) is None


def test_fp32_train_step_dispatches_to_executor():
    from repro.distributed.base import fp32_train_step

    eager_model, eager_opt, _ = make("lenet5")
    graph_model, graph_opt, executor = make("lenet5", graph=True)
    for x, y in batches("lenet5", 3):
        eager_loss = fp32_train_step(eager_model, eager_opt, x, y)
        graph_loss = fp32_train_step(graph_model, graph_opt, x, y)
        assert eager_loss == graph_loss
    assert executor.stats["captures"] == 1
    assert executor.stats["replays"] == 2
    assert_states_equal(eager_model.state_dict(), graph_model.state_dict())
