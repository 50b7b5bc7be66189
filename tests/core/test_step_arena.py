"""The run-scoped step arena: replicas keep weights + momentum only.

The logical groups of one run share one gradient plane, one fused-SGD
scratch and one INT8 step scratch (``repro.nn.arena.StepArena``).  The
contract pinned here:

- replicas on a shared arena are bit-identical — weights, BN buffers,
  momentum, RNG streams, range observers — to the same replicas on
  private buffers, eager and compiled, with every arena array poisoned
  between steps, under any interleaving of steps, batch-split changes,
  ``reform_groups`` shrink/grow, ``runtime_state`` restarts and
  ``LgExecutor`` worker processes;
- gradient ownership is explicit: ``zero_grad`` claims the plane,
  ``grads_ready`` is true only for the owner, and stepping or reading
  ``.grad`` through a plane another replica has since claimed raises;
- a module flattened on its own is unaffected, and two runs in one
  process share nothing;
- replicas built without their initial draws equal replicas built with
  them, unless a module keeps the init generator;
- the op workspace cache evicts one buffer at a time, counts it, and a
  finished run releases what it pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology
from repro.core.mixed_precision import GroupMixedTrainer
from repro.core.socflow import build_groups, reform_groups
from repro.data import make_classification_images
from repro.distributed import RunConfig
from repro.nn import SGD, Dropout, Flatten, Linear, Module, Sequential, Tensor
from repro.nn import functional as F
from repro.nn.arena import StepArena
from repro.nn.models import registry
from repro.nn.models.registry import build_model
from repro.parallel import LgExecutor
from repro.quant import Int8Trainer, QuantConfig
from repro.quant.mixed import MixedPrecisionController

TASKS = {
    1: make_classification_images(num_classes=4, train_size=96, test_size=32,
                                  channels=1, image_size=16, difficulty=0.4,
                                  seed=3),
    3: make_classification_images(num_classes=4, train_size=96, test_size=32,
                                  channels=3, image_size=16, difficulty=0.4,
                                  seed=4),
}
MODELS = {
    "lenet5": (1, 0.5),
    "vgg11": (3, 0.125),
    "resnet18": (3, 0.25),
    "mobilenet_v1": (3, 0.25),
    "vit_tiny": (3, 0.5),
}


def run_config(model="lenet5", graph=False, **overrides) -> RunConfig:
    channels, width = MODELS[model]
    return RunConfig(
        task=TASKS[channels], model_name=model, width=width, batch_size=16,
        lr=0.05, momentum=0.9, weight_decay=1e-4, max_epochs=1, seed=0,
        graph=graph, topology=ClusterTopology(num_socs=12),
        sim_samples_per_epoch=1000, sim_global_batch=32, num_groups=3,
        **overrides)


def private_group(config, controller, seed_offset, mixed, init_state=None):
    """One group the way every group was built before the arena: its
    own buffers, its own initial draws, then the common weights."""
    group = GroupMixedTrainer(config, controller, QuantConfig(),
                              seed_offset=seed_offset,
                              precision="mixed" if mixed else "fp32")
    if init_state is not None:
        group.load_state(init_state)
    return group


def make_groups(config, count, shared, mixed=True):
    controller = MixedPrecisionController(1.0, 0.5)
    if shared:
        return build_groups(config, controller, QuantConfig(), count,
                            "mixed" if mixed else "fp32")
    base = private_group(config, controller, 0, mixed)
    init_state = base.state_dict()
    return [base] + [private_group(config, controller, g, mixed, init_state)
                     for g in range(1, count)]


def rows(cursor, size, config):
    index = np.arange(cursor, cursor + size) % len(config.task.x_train)
    return config.task.x_train[index], config.task.y_train[index]


def assert_equal_state(a, b, path="state"):
    __tracebackhide__ = True
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_equal_state(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_equal_state(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


def assert_groups_identical(shared, private):
    __tracebackhide__ = True
    assert len(shared) == len(private)
    for g, (a, b) in enumerate(zip(shared, private)):
        assert_equal_state(a.runtime_state(), b.runtime_state(), f"group{g}")


def poison(arena: StepArena) -> None:
    for array in arena.buffers():
        kind = array.dtype.kind
        array.fill(np.nan if kind == "f" else True if kind == "b" else -1)


# ----------------------------------------------------------------------
# Shared arena == private buffers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mixed", [False, True], ids=["fp32", "mixed"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_round_robin_on_shared_arena_matches_private_buffers(model, mixed):
    config = run_config(model)
    shared = make_groups(config, 3, shared=True, mixed=mixed)
    private = make_groups(config, 3, shared=False, mixed=mixed)
    arena = shared[0].arena
    assert all(group.arena is arena for group in shared)
    assert len({id(group.arena) for group in private}) == 3
    assert_groups_identical(shared, private)    # incl. the skipped inits
    cursor = 0
    for round_index in range(3):
        for a, b in zip(shared, private):
            x, y = rows(cursor, 16, config)
            cursor += 16
            a.train_batch(x, y)
            b.train_batch(x, y)
            poison(arena)
        if round_index == 1 and mixed:
            # the epoch-boundary profile runs through the pooled masters
            assert shared[0].update_alpha(config.task.x_test[:16]) == \
                private[0].update_alpha(config.task.x_test[:16])
    assert_groups_identical(shared, private)
    # a replica holds no parameter-sized array besides weights + momentum
    plane = shared[0].fp32._flat.grads
    for group in shared:
        flats = [group.fp32._flat] + ([group.int8.model._flat] if mixed
                                      else [])
        assert all(flat.grads is plane for flat in flats)
        assert not hasattr(group.fp32_opt, "_scratch")


def test_arena_constant_does_not_grow_with_groups():
    config = run_config("lenet5")
    sizes = {}
    for count in (2, 5):
        groups = make_groups(config, count, shared=True)
        for g, group in enumerate(groups):
            group.train_batch(*rows(16 * g, 16, config))
        sizes[count] = sum(a.nbytes for a in groups[0].arena.buffers())
    assert sizes[2] == sizes[5] > 0


OPS = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 2), st.sampled_from([8, 16])),
    st.tuples(st.just("alpha"), st.sampled_from([0.3, 0.8, 1.6])),
    st.tuples(st.just("reform"), st.integers(1, 3)),
    st.tuples(st.just("restart"), st.integers(0, 2)))


def run_ops(ops, shared: bool, graph: bool):
    config = run_config("lenet5", graph=graph)
    groups = make_groups(config, 3, shared=shared)
    controller, quant = groups[0].controller, QuantConfig()
    cursor = 0
    for op in ops:
        if op[0] == "step":
            group = groups[op[1] % len(groups)]
            group.train_batch(*rows(cursor, op[2], config))
            cursor += op[2]
            if shared:
                poison(groups[0].arena)
        elif op[0] == "alpha":          # moves the CPU/NPU batch split
            controller.alpha = op[1]
        elif op[0] == "reform":         # fault recovery / elastic resize
            state = groups[0].state_dict()
            if shared:
                groups = reform_groups(config, controller, quant, groups,
                                       op[1], state)
            else:
                groups = groups[:op[1]] + [
                    private_group(config, controller, g, True)
                    for g in range(len(groups), op[1])]
                for group in groups:
                    group.load_state(state)
        else:                           # preempt -> resume elsewhere
            index = op[1] % len(groups)
            state = groups[index].runtime_state()
            groups[index] = GroupMixedTrainer(
                config, controller, quant, seed_offset=index,
                arena=groups[0].arena if shared else None,
                init_weights=not shared)
            groups[index].load_runtime_state(state)
    return groups


@pytest.mark.parametrize("graph", [False, True], ids=["eager", "graph"])
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=12))
def test_interleavings_match_private_buffers(graph, ops):
    shared = run_ops(ops, shared=True, graph=graph)
    private = run_ops(ops, shared=False, graph=graph)
    assert_groups_identical(shared, private)


def test_worker_processes_match_sequential_private_buffers():
    """``LgExecutor`` replicas are built bare on one arena per worker
    and loaded from the task payload; two epochs, so the second one
    reuses them."""
    config = run_config("lenet5")
    shared = make_groups(config, 3, shared=True)
    private = make_groups(config, 3, shared=False)
    shards = np.array_split(np.arange(len(config.task.x_train)), 3)
    steps, batch = 2, 16
    with LgExecutor(config, quant=QuantConfig(), precision="mixed",
                    t_cpu=1.0, t_npu=0.5, workers=2) as executor:
        assert executor.parallel
        for _ in range(2):
            executor.run_epoch(shared, shards, steps, batch)
            for step in range(steps):
                for group, shard in zip(private, shards):
                    idx = shard[step * batch:(step + 1) * batch]
                    group.train_batch(config.task.x_train[idx],
                                      config.task.y_train[idx])
            assert_groups_identical(shared, private)


def test_two_runs_in_one_process_do_not_alias():
    config = run_config("lenet5")
    first = make_groups(config, 2, shared=True)
    second = make_groups(config, 2, shared=True)
    assert first[0].arena is not second[0].arena
    ours = {id(a) for a in first[0].arena.buffers()}
    assert not ours & {id(a) for a in second[0].arena.buffers()}
    assert not np.shares_memory(first[0].fp32._flat.grads,
                                second[0].fp32._flat.grads)
    reference = make_groups(config, 2, shared=False)
    for step in range(4):               # the two runs interleaved
        for run in (first, second, reference):
            run[step % 2].train_batch(*rows(16 * step, 16, config))
    assert_groups_identical(first, reference)
    assert_groups_identical(second, reference)


# ----------------------------------------------------------------------
# Gradient ownership
# ----------------------------------------------------------------------
def replica_pair():
    arena = StepArena()
    pair = []
    for seed in (0, 1):
        model = build_model("lenet5", seed=seed, num_classes=4,
                            in_channels=1, image_size=16, width=0.5)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                        flat=model.flatten_parameters(arena))
        pair.append((model, optimizer))
    return pair


def backward(model, optimizer, seed=0):
    x, y = rows(seed, 8, run_config("lenet5"))
    optimizer.zero_grad()
    F.cross_entropy(model(Tensor(x)), y).backward()


def test_grads_ready_only_for_the_owner_and_stale_step_raises():
    (model_a, opt_a), (model_b, opt_b) = replica_pair()
    flat_a, flat_b = model_a._flat, model_b._flat
    assert flat_a.grads is flat_b.grads
    backward(model_a, opt_a)
    assert flat_a.grads_ready() and flat_a.owns_grads
    assert not flat_b.grads_ready() and not flat_b.owns_grads
    before = flat_a.data.copy()
    backward(model_b, opt_b, seed=8)            # claims the plane
    assert flat_b.grads_ready() and not flat_a.grads_ready()
    with pytest.raises(RuntimeError, match="claimed by another replica"):
        opt_a.step()                            # would apply B's gradient
    assert np.array_equal(flat_a.data, before)
    with pytest.raises(RuntimeError, match="claimed by another replica"):
        model_a.parameters()[0].grad
    opt_b.step()                                # the owner is unaffected
    # A's next turn: zero_grad reclaims, the stale views are dropped
    backward(model_a, opt_a)
    opt_a.step()
    assert not np.array_equal(flat_a.data, before)


def test_backward_without_a_claim_raises():
    (model_a, opt_a), (model_b, _) = replica_pair()
    backward(model_a, opt_a)
    x, y = rows(0, 8, run_config("lenet5"))
    with pytest.raises(RuntimeError, match="claimed by another replica"):
        F.cross_entropy(model_b(Tensor(x)), y).backward()
    model_b.zero_grad()                         # Module.zero_grad claims too
    F.cross_entropy(model_b(Tensor(x)), y).backward()
    assert model_b._flat.grads_ready()


def test_stale_int8_trainer_step_raises():
    arena = StepArena()
    trainers = [Int8Trainer(
        build_model("lenet5", seed=seed, num_classes=4, in_channels=1,
                    image_size=16, width=0.5),
        lr=0.05, config=QuantConfig(), momentum=0.9, seed=seed, arena=arena)
        for seed in (0, 1)]
    x, y = rows(0, 8, run_config("lenet5"))
    for trainer in trainers:                    # taking turns is fine
        trainer.train_step(x, y)
    first, second = trainers
    backward(first.model, first.optimizer)
    second.train_step(x, y)
    plane = second.model._flat.grads.copy()
    position = first.rng.bit_generator.state
    with pytest.raises(RuntimeError, match="claimed by another replica"):
        first.after()               # would clip and quantise B's gradient
    assert np.array_equal(second.model._flat.grads, plane)
    assert first.rng.bit_generator.state == position
    with pytest.raises(RuntimeError, match="claimed by another replica"):
        first.optimizer.step()


def test_standalone_model_is_unaffected():
    """No arena given: a private plane held from construction on, so
    backward without ``zero_grad``, reading ``.grad`` after the step
    and re-fusing after a storage rebind all work as they always did."""
    model = build_model("lenet5", seed=0, num_classes=4, in_channels=1,
                        image_size=16, width=0.5)
    other = build_model("lenet5", seed=1, num_classes=4, in_channels=1,
                        image_size=16, width=0.5)
    flat = model.flatten_parameters()
    assert flat.arena is not other.flatten_parameters().arena
    assert flat.grads is not other._flat.grads
    optimizer = SGD(model.parameters(), lr=0.05, flat=flat)
    x, y = rows(0, 8, run_config("lenet5"))
    F.cross_entropy(model(Tensor(x)), y).backward()     # no zero_grad
    F.cross_entropy(other(Tensor(x)), y).backward()
    assert flat.grads_ready()
    optimizer.step()
    assert model.parameters()[0].grad is flat.grad_views[0]
    param = model.parameters()[0]
    param.data = param.data.copy()                      # rebind storage
    refused = model.flatten_parameters()
    assert refused is not flat and refused.arena is flat.arena
    assert refused.grads is flat.grads and refused.grads_ready()


# ----------------------------------------------------------------------
# Replicas built without their initial draws
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", sorted(MODELS))
def test_bare_replica_equals_initialised_replica_after_load(model):
    config = run_config(model)
    kwargs = config.model_kwargs(seed_offset=1)
    source = build_model(model, **config.model_kwargs()).state_dict()
    full = build_model(model, **kwargs)
    bare = build_model(model, init_weights=False, **kwargs)
    full.load_state_dict(source)
    bare.load_state_dict(source)
    assert_equal_state(dict(bare.state_dict()), dict(full.state_dict()))


class DropoutNet(Module):
    """Keeps the init generator: dropout draws continue its stream."""

    def __init__(self, num_classes=4, in_channels=1, image_size=16,
                 width=1.0, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.body = Sequential(
            Flatten(), Linear(in_channels * image_size ** 2, 16, rng),
            Dropout(0.25, rng), Linear(16, num_classes, rng))

    def forward(self, x):
        return self.body(x)


def test_model_keeping_the_init_generator_still_draws(monkeypatch):
    monkeypatch.setitem(registry.MODEL_REGISTRY, "dropout_net", DropoutNet)
    full = build_model("dropout_net", seed=5)
    bare = build_model("dropout_net", init_weights=False, seed=5)
    assert_equal_state(dict(bare.state_dict()), dict(full.state_dict()))
    x = Tensor(TASKS[1].x_train[:8])
    assert np.array_equal(bare(x).data, full(x).data)   # same dropout mask
    monkeypatch.setitem(MODELS, "dropout_net", (1, 1.0))
    config = run_config("dropout_net")
    shared = make_groups(config, 2, shared=True)
    private = make_groups(config, 2, shared=False)
    for step in range(4):
        for run in (shared, private):
            run[step % 2].train_batch(*rows(16 * step, 16, config))
    assert_groups_identical(shared, private)


# ----------------------------------------------------------------------
# Op workspace cache
# ----------------------------------------------------------------------
@pytest.fixture
def empty_workspaces():
    F.clear_workspaces()
    yield
    F.clear_workspaces()


def test_full_cache_evicts_one_buffer_and_counts_it(empty_workspaces):
    limit = F._WORKSPACE_LIMIT
    mark = F.workspace_mark()
    for i in range(limit):
        F._workspace("t", (i + 1,))
    assert len(F._WORKSPACES) == limit and F.workspace_evictions(mark) == 0
    kept = F._workspace("t", (2,))
    F._workspace("t", (limit + 1,))             # the 65th key
    assert len(F._WORKSPACES) == limit          # one out, not the table
    assert ("t", (1,), np.dtype(np.float32)) not in F._WORKSPACES
    assert F._workspace("t", (2,)) is kept
    assert F.workspace_evictions(mark) == 1
    # evictions that only clear out older buffers do not count
    later = F.workspace_mark()
    for i in range(limit):
        F._workspace("u", (i + 1,))
    assert F.workspace_evictions(later) == 0
    F._workspace("u", (limit + 1,))
    assert F.workspace_evictions(later) == 1


def test_arena_releases_the_workspaces_its_run_pinned(empty_workspaces):
    F._workspace("standalone", (3,))
    config = run_config("vgg11")
    groups = make_groups(config, 2, shared=True)
    groups[0].train_batch(*rows(0, 16, config))
    assert len(F._WORKSPACES) > 1
    assert groups[0].arena.workspace_evictions() == 0
    groups[0].arena.release()
    assert list(F._WORKSPACES) == [("standalone", (3,), np.dtype(np.float32))]
    groups[1].train_batch(*rows(16, 16, config))    # still trains
