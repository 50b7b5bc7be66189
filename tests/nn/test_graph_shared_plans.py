"""Replica-shared plans: one compile, one workspace, per-replica bindings.

The logical groups of a SoCFlow run are structurally identical replicas
that step strictly one after another, so they compile each training
step once (a *plan*) and compute in one shared workspace; each replica
only holds a *binding* — closures over the workspace plus its own
leaves (parameters, gradients, BN running statistics, dropout
generators).  These tests pin what makes that safe:

- N replicas round-robin through one plan stay bit-identical to N eager
  replicas — weights, losses, momentum, BN statistics, RNG positions;
- nothing in the workspace is live between steps except what the
  compiler declares persistent (the poison test);
- any interleaving, with shape changes and ``max_programs`` overflow;
- a structurally different replica is refused (it compiles its own
  plan) rather than wrongly bound;
- a replica holding state where no path can name it gets a private,
  *counted* plan;
- a plan replayed from inside its own replay raises.

The INT8 twin is ``tests/quant/test_int8_shared_plans.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn import functional as F
from repro.nn import graph as graph_mod
from repro.nn.arena import StepArena
from repro.nn.graph import attach_graph_executor
from repro.nn.models.registry import build_model
from repro.nn.modules import Module
from repro.nn.optim import SGD

IMAGE = 16
SPECS = {
    "lenet5": dict(in_channels=1, width=0.5),
    "resnet18": dict(in_channels=3, width=0.25),        # batch norm
    "mobilenet_v1": dict(in_channels=3, width=0.25),    # depthwise conv
    "vit_tiny": dict(in_channels=3, width=0.5),
    "mlp_dropout": dict(in_channels=1),                 # per-replica RNG
}


#: the one registry model with ``freeze_backbone``
RESNET50 = dict(num_classes=10, in_channels=3, image_size=IMAGE, width=0.125)


def build(name: str, seed: int, **overrides) -> Module:
    kwargs = dict(SPECS[name], **overrides)
    if name == "mlp_dropout":
        rng = np.random.default_rng(seed)
        return Sequential(
            Flatten(), Linear(IMAGE * IMAGE, 24, rng), ReLU(),
            Dropout(kwargs.get("p", 0.25), np.random.default_rng(100 + seed)),
            Linear(24, 10, rng))
    return build_model(name, seed=seed, num_classes=10, image_size=IMAGE,
                       **kwargs)


def make_replica(name, seed, arena=None, **executor_kwargs):
    """(model, optimizer, step) — graphed through ``plans`` when given."""
    model = build(name, seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=1e-4, flat=model.flatten_parameters())
    if arena is None:
        return model, optimizer, (
            lambda x, y: graph_mod.train_step(model, optimizer, x, y))
    executor = attach_graph_executor(model, arena=arena, **executor_kwargs)
    return model, optimizer, lambda x, y: executor.step(optimizer, x, y)


def batch(name, seed, size=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (size, SPECS[name]["in_channels"], IMAGE, IMAGE)).astype(np.float32)
    return x, rng.integers(0, 10, size=size)


def rng_states(model):
    return [m.rng.bit_generator.state for m in model.modules()
            if getattr(m, "rng", None) is not None]


def assert_replicas_identical(eager, graphed):
    __tracer__ = "hide"
    (model_a, opt_a, _), (model_b, opt_b, _) = eager, graphed
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert list(state_a) == list(state_b)
    for key in state_a:                 # weights and BN running stats
        assert np.array_equal(state_a[key], state_b[key]), key
    for va, vb in zip(opt_a.state_dict()["velocity"],
                      opt_b.state_dict()["velocity"]):
        assert np.array_equal(va, vb)
    assert rng_states(model_a) == rng_states(model_b)


def the_plan(model):
    (program,) = model._graph_exec._programs.values()
    return program.plan


def poison(plan) -> None:
    """Trash everything in the workspace the compiler does not declare
    persistent: NaN floats, all-true masks, -1 indices."""
    for array, persistent in plan.workspace:
        if persistent:
            continue
        kind = array.dtype.kind
        array.fill(np.nan if kind == "f" else True if kind == "b" else -1)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SPECS))
def test_round_robin_replicas_match_eager_and_survive_poison(name):
    """(a) + (b): three replicas through one plan, the workspace
    poisoned between every two steps, against three eager replicas."""
    arena = StepArena()
    eager = [make_replica(name, seed) for seed in range(3)]
    graphed = [make_replica(name, seed, arena) for seed in range(3)]
    for step in range(4):
        for r in range(3):
            x, y = batch(name, 10 * step + r)
            assert eager[r][2](x, y) == graphed[r][2](x, y), (step, r)
            poison(the_plan(graphed[0][0]))
    for pair in zip(eager, graphed):
        assert_replicas_identical(*pair)
    counters = arena.snapshot()["fp32"]
    assert (counters["plans"], counters["binds"]) == (1, 3)
    assert counters["unshared_plans"] == 0
    assert len({id(the_plan(model)) for model, _, _ in graphed}) == 1
    stats = [model._graph_exec.stats for model, _, _ in graphed]
    assert [s["captures"] for s in stats] == [1, 0, 0]
    assert [s["replays"] for s in stats] == [3, 4, 4]   # first step: a bind
    assert all(s["fallbacks"] == s["eager_steps"] == 0 for s in stats)


def test_workspace_bytes_do_not_grow_with_replicas():
    sizes = {}
    for count in (1, 5):
        arena = StepArena()
        for seed in range(count):
            _, _, step = make_replica("lenet5", seed, arena)
            step(*batch("lenet5", seed))
        sizes[count] = arena.snapshot()["fp32"]["workspace_bytes"]
    assert sizes[1] == sizes[5] > 0


def test_persistent_regions_are_the_zero_initialised_buffers():
    """The persistent-constant rule: a dedicated buffer is persistent
    exactly when the compiler zero-initialised it (pad borders, the
    seed gradient); the arena never is."""
    arena = StepArena()
    model, _, step = make_replica("resnet18", 0, arena)
    step(*batch("resnet18", 0))
    workspace = the_plan(model).workspace
    assert workspace[0][1] is False                    # the arena
    persistent = [array for array, keep in workspace if keep]
    assert persistent and all(a.dtype == np.float32 for a in persistent)
    assert the_plan(model).workspace_bytes == sum(
        a.nbytes for a, _ in workspace)


# ----------------------------------------------------------------------
SIZES = (4, 6, 8)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(SIZES)),
                    min_size=1, max_size=14),
       name=st.sampled_from(["lenet5", "mlp_dropout"]))
def test_any_interleaving_with_shape_changes_matches_eager(ops, name):
    """(c): replicas in any order, three batch shapes against a
    two-binding ``max_programs`` (the third shape an executor meets
    trains eagerly for good) — every loss and the final state match."""
    arena = StepArena()
    eager = [make_replica(name, seed) for seed in range(3)]
    graphed = [make_replica(name, seed, arena, max_programs=2)
               for seed in range(3)]
    for i, (r, size) in enumerate(ops):
        x, y = batch(name, i, size)
        assert eager[r][2](x, y) == graphed[r][2](x, y), (i, r, size)
    for pair in zip(eager, graphed):
        assert_replicas_identical(*pair)
    steps = [sum(1 for r, _ in ops if r == k) for k in range(3)]
    for (model, _, _), count in zip(graphed, steps):
        stats = model._graph_exec.stats
        assert sum(stats.values()) == count
        assert stats["fallbacks"] == 0
        assert len(model._graph_exec.program_stats()) <= 2
    counters = arena.snapshot().get("fp32", {"plans": 0})
    assert counters["plans"] <= len({size for _, size in ops})
    assert counters["plans"] == sum(
        model._graph_exec.stats["captures"] for model, _, _ in graphed)


# ----------------------------------------------------------------------
def test_structurally_different_replicas_are_refused_not_misbound():
    """(d): frozen backbone, another width, another dropout rate — each
    misses the cache and compiles its own plan, and still trains
    bit-identically to its eager twin."""
    arena = StepArena()
    base = build_model("resnet50", seed=0, **RESNET50)
    attach_graph_executor(base, arena=arena).step(
        SGD(base.parameters(), lr=0.05, momentum=0.9),
        *batch("resnet18", 0, size=4))

    def pair(seed, tweak=lambda model: None, **overrides):
        twins = []
        for cache in (None, arena):
            model = build_model("resnet50", seed=seed,
                                **dict(RESNET50, **overrides))
            tweak(model)
            optimizer = SGD([p for p in model.parameters()
                             if p.requires_grad], lr=0.05, momentum=0.9)
            if cache is not None:
                attach_graph_executor(model, arena=cache)
            twins.append((model, optimizer))
        return twins

    cases = {
        "frozen": pair(1, lambda m: m.freeze_backbone()),
        "wider": pair(1, width=0.25),
        "same": pair(1),
    }
    for label, ((eager_model, eager_opt), (model, opt)) in cases.items():
        for i in range(2):
            x, y = batch("resnet18", 50 + i, size=4)
            assert (graph_mod.train_step(eager_model, eager_opt, x, y)
                    == model._graph_exec.step(opt, x, y)), (label, i)
        sa, sb = eager_model.state_dict(), model.state_dict()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa), label
    captures = {label: twins[1][0]._graph_exec.stats["captures"]
                for label, twins in cases.items()}
    assert captures == {"frozen": 1, "wider": 1, "same": 0}
    assert arena.snapshot()["fp32"]["plans"] == 3

    # configuration baked into instructions (dropout p) is part of the
    # key too, though the layouts are equal
    arena = StepArena()
    for p in (0.25, 0.5):
        model = build("mlp_dropout", 0, p=p)
        optimizer = SGD(model.parameters(), lr=0.05)
        attach_graph_executor(model, arena=arena).step(
            optimizer, *batch("mlp_dropout", 0))
    assert arena.snapshot()["fp32"]["plans"] == 2


class ExternalRngNet(Module):
    """Dropout driven by a generator no module attribute holds."""

    def __init__(self, seed, rng):
        super().__init__()
        self.body = Sequential(Flatten(), Linear(IMAGE * IMAGE, 10,
                                                 np.random.default_rng(seed)))
        self._external = lambda: rng

    def forward(self, x):
        return F.dropout(self.body(x), 0.25, self.training, self._external())


def test_unlocatable_leaf_gets_a_private_counted_plan():
    """A leaf that maps to neither fused storage nor module state
    cannot be re-resolved for another replica: each such replica
    compiles its own plan through the same code, and the cache says so."""
    arena = StepArena()
    twins = []
    for seed in range(2):
        eager = ExternalRngNet(seed, np.random.default_rng(7 + seed))
        model = ExternalRngNet(seed, np.random.default_rng(7 + seed))
        twins.append((eager, SGD(eager.parameters(), lr=0.05),
                      model, SGD(model.parameters(), lr=0.05)))
        attach_graph_executor(model, arena=arena)
    for i in range(3):
        for eager, eager_opt, model, opt in twins:
            x, y = batch("mlp_dropout", i)
            assert (graph_mod.train_step(eager, eager_opt, x, y)
                    == model._graph_exec.step(opt, x, y))
    counters = arena.snapshot()["fp32"]
    assert (counters["plans"], counters["unshared_plans"]) == (2, 2)
    for _, _, model, _ in twins:
        assert model._graph_exec.stats == {
            "captures": 1, "replays": 2, "eager_steps": 0, "fallbacks": 0}
    assert the_plan(twins[0][2]) is not the_plan(twins[1][2])


def test_replaying_a_running_plan_raises():
    """(e): the shared workspace rests on replicas stepping one at a
    time; a step started from inside another one must fail loudly."""
    arena = StepArena()
    replicas = [make_replica("lenet5", seed, arena) for seed in range(2)]
    x, y = batch("lenet5", 0)
    for _, _, step in replicas:
        step(x, y)
    (model, _, _), (_, _, other_step) = replicas
    model.train = lambda: other_step(x, y)      # runs inside the replay
    with pytest.raises(RuntimeError, match="already running"):
        replicas[0][2](x, y)
    del model.train
    assert the_plan(model).guard == [False]     # released on the way out
    replicas[0][2](x, y)
