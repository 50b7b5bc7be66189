"""INT8 graph executor: bit-identity and determinism edges.

The compiled INT8 step must be indistinguishable from the eager
``Int8Trainer.train_step`` — not approximately, but bit for bit,
*including* the stochastic-rounding RNG stream (the single
``rng.random(out=)`` draw advances PCG64 exactly like the eager call)
and the EMA observer trajectories (observer scales are program inputs,
re-read every replay).  On top of the steady state, the fallback edges
must degrade to eager without corrupting anything:

- checkpoint/preempt/resume (the ``jobs`` warm-restart path restores
  ``runtime_state`` into a fresh process's trainer, graph executor and
  all),
- ``reform_groups`` fault recovery (surviving warm trainers are reused
  and reloaded; replayed steps must still match eager),
- parameter-storage rebinding (non-intact flat buffer → drop the
  bindings, keep the plan, bind again),
- quantiser/observer reconfiguration (stale observer closures → same).
"""

import numpy as np
import pytest

from repro.cluster import ClusterTopology
from repro.distributed import RunConfig
from repro.nn.models import LeNet5
from repro.quant import Int8Trainer, QuantConfig


def tiny_model(seed=0):
    return LeNet5(num_classes=4, in_channels=1, image_size=12, width=0.3,
                  seed=seed)


def make_trainer(config=None, graph=False, seed=7):
    trainer = Int8Trainer(tiny_model(), lr=0.05,
                          config=config or QuantConfig(),
                          momentum=0.9, seed=seed)
    if graph:
        trainer.enable_graph_executor()
    return trainer


def batches(n, rng_seed=5, batch=8):
    rng = np.random.default_rng(rng_seed)
    return [(rng.standard_normal((batch, 1, 12, 12)).astype(np.float32),
             rng.integers(0, 4, size=batch)) for _ in range(n)]


def assert_trainers_identical(a: Int8Trainer, b: Int8Trainer):
    __tracer__ = "hide"
    sa, sb = a.model.state_dict(), b.model.state_dict()
    assert list(sa) == list(sb)
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), key
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a._input_observer._ema == b._input_observer._ema
    for oa, ob in zip(a._activation_observers(), b._activation_observers()):
        assert oa._ema == ob._ema


CONFIGS = {
    "int8": QuantConfig(),
    "int8_rint": QuantConfig(stochastic_rounding=False),
    "int4": QuantConfig(bits=4),
    "fp16": QuantConfig(float16=True),
    "weights_only": QuantConfig(quantize_activations=False,
                                quantize_gradients=False),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_replay_bit_identical_to_eager(name):
    config = CONFIGS[name]
    eager, graphed = make_trainer(config), make_trainer(config, graph=True)
    for x, y in batches(6):
        assert eager.train_step(x, y) == graphed.train_step(x, y)
    assert_trainers_identical(eager, graphed)
    stats = graphed.graph_stats()
    assert stats["captures"] == 1
    assert stats["replays"] == 5
    assert stats["fallbacks"] == 0


def test_rng_stream_consumed_identically_midstream():
    """The stochastic-rounding draw inside a replay must leave the
    generator exactly where the eager draw would — checked after every
    single step, not just at the end."""
    eager, graphed = make_trainer(), make_trainer(graph=True)
    for x, y in batches(4):
        eager.train_step(x, y)
        graphed.train_step(x, y)
        assert (eager.rng.bit_generator.state
                == graphed.rng.bit_generator.state)


def test_checkpoint_preempt_resume_is_deterministic():
    """Warm restart: a graphed trainer checkpointed mid-run and resumed
    in a fresh trainer (new arenas, new programs — only
    ``runtime_state`` survives, as in a jobs preemption) must finish
    bit-identically to an uninterrupted eager run."""
    steps = batches(8)
    eager = make_trainer()
    for x, y in steps:
        eager.train_step(x, y)

    first = make_trainer(graph=True)
    for x, y in steps[:4]:
        first.train_step(x, y)
    checkpoint = first.runtime_state()

    resumed = make_trainer(graph=True, seed=999)   # seed must not matter
    resumed.load_runtime_state(checkpoint)
    for x, y in steps[4:]:
        resumed.train_step(x, y)
    assert_trainers_identical(eager, resumed)
    stats = resumed.graph_stats()
    assert stats["replays"] > 0


def test_resume_into_warm_graphed_trainer_keeps_programs_valid():
    """``load_runtime_state`` mutates the RNG and observers *in place*,
    so a warm trainer's captured programs stay bound to live objects —
    no fallback, still bit-identical."""
    steps = batches(8)
    eager = make_trainer()
    for x, y in steps:
        eager.train_step(x, y)

    graphed = make_trainer(graph=True)
    for x, y in steps[:4]:
        graphed.train_step(x, y)
    checkpoint = graphed.runtime_state()
    # ... the job is preempted and later resumed on the same warm
    # trainer (the reform_groups survivor path).
    graphed.load_runtime_state(checkpoint)
    for x, y in steps[4:]:
        graphed.train_step(x, y)
    assert_trainers_identical(eager, graphed)
    stats = graphed.graph_stats()
    assert stats["fallbacks"] == 0
    assert stats["captures"] == 1


def test_reform_groups_recovery_is_deterministic():
    """Fault recovery reuses surviving warm GroupMixedTrainers and
    reloads the rollback state into every member; with ``--graph`` the
    survivors' compiled programs must produce the same post-recovery
    trajectory as eager trainers."""
    from repro.core.mixed_precision import GroupMixedTrainer
    from repro.core.socflow import reform_groups
    from repro.data import make_classification_images
    from repro.quant.mixed import MixedPrecisionController

    task = make_classification_images(
        num_classes=4, train_size=96, test_size=32, channels=1,
        image_size=12, difficulty=0.4, seed=3)

    def build(graph):
        config = RunConfig(
            task=task, model_name="lenet5", width=0.3, batch_size=16,
            lr=0.05, momentum=0.9, max_epochs=1, seed=0, graph=graph,
            topology=ClusterTopology(num_socs=8),
            sim_samples_per_epoch=1000, sim_global_batch=32, num_groups=2)
        controller = MixedPrecisionController(1.0, 0.5)
        groups = [GroupMixedTrainer(config, controller, QuantConfig(),
                                    seed_offset=g) for g in range(2)]
        return config, controller, groups

    steps = [(task.x_train[i * 16:(i + 1) * 16],
              task.y_train[i * 16:(i + 1) * 16]) for i in range(6)]

    results = {}
    for graph in (False, True):
        config, controller, groups = build(graph)
        for x, y in steps[:2]:
            for group in groups:
                group.train_batch(x, y)
        rollback = groups[0].state_dict()
        # One group dies; recovery reforms down to a single warm
        # survivor, then back up to two (rebuilding the dead member).
        groups = reform_groups(config, controller, QuantConfig(),
                               groups[:1], 2, rollback)
        for x, y in steps[2:]:
            for group in groups:
                group.train_batch(x, y)
        results[graph] = groups

    for eager_group, graphed_group in zip(results[False], results[True]):
        sa, sb = eager_group.state_dict(), graphed_group.state_dict()
        for key in sa:
            assert np.array_equal(sa[key], sb[key]), key
        assert (eager_group.int8.rng.bit_generator.state
                == graphed_group.int8.rng.bit_generator.state)
    stats = results[True][0].graph_stats()
    assert stats["int8"]["replays"] > 0


def test_storage_rebinding_writes_through_and_keeps_the_binding():
    """Assigning a parameter's ``.data`` writes into its view of the
    flat buffer, so the storage the plan is bound to never moves: the
    same binding keeps replaying, on the new values, and the step
    stays bit-identical to eager."""
    eager, graphed = make_trainer(), make_trainer(graph=True)
    steps = batches(6)
    for x, y in steps[:3]:
        assert eager.train_step(x, y) == graphed.train_step(x, y)

    for trainer in (eager, graphed):
        param = trainer.model.parameters()[0]
        view = param.data
        param.data = view * np.float32(0.5)     # written through
        assert param.data is view
    for x, y in steps[3:]:
        assert eager.train_step(x, y) == graphed.train_step(x, y)
    assert_trainers_identical(eager, graphed)
    assert graphed.graph_stats() == {"captures": 1, "replays": 5,
                                     "eager_steps": 0, "fallbacks": 0}
    counters = graphed._graph_exec.arena.snapshot()["int8"]
    assert (counters["plans"], counters["binds"]) == (1, 1)


def test_observer_reconfiguration_invalidates_programs():
    """Re-running ``attach_activation_quant`` swaps in fresh observers;
    bindings close over the old ones and must be dropped.  Observers
    are leaves named by module position, so the same plan binds the
    new ones — no fallback step, no recapture."""
    from repro.quant.ste import attach_activation_quant

    eager, graphed = make_trainer(), make_trainer(graph=True)
    steps = batches(6)
    for x, y in steps[:3]:
        assert eager.train_step(x, y) == graphed.train_step(x, y)

    for trainer in (eager, graphed):
        attach_activation_quant(trainer.model, trainer.config)
    for x, y in steps[3:]:
        assert eager.train_step(x, y) == graphed.train_step(x, y)
    assert_trainers_identical(eager, graphed)
    assert graphed.graph_stats() == {"captures": 1, "replays": 5,
                                     "eager_steps": 0, "fallbacks": 0}


def test_group_mixed_trainer_attaches_int8_executor(quick_config):
    """``config.graph`` must reach the INT8 replica, not just FP32."""
    import dataclasses

    from repro.core.mixed_precision import GroupMixedTrainer
    from repro.quant.mixed import MixedPrecisionController

    config = dataclasses.replace(quick_config, graph=True)
    group = GroupMixedTrainer(config, MixedPrecisionController(1.0, 0.5),
                              QuantConfig())
    assert group.fp32._graph_exec is not None
    assert group.int8._graph_exec is not None
    stats = group.graph_stats()
    assert set(stats) == {"fp32", "int8"}

    eager_group = GroupMixedTrainer(quick_config,
                                    MixedPrecisionController(1.0, 0.5),
                                    QuantConfig())
    assert eager_group.graph_stats() is None


# ----------------------------------------------------------------------
# A frozen backbone (Table 3's ResNet50-Finetune row) is the same step
# on fewer elements, not a second path
# ----------------------------------------------------------------------
def frozen_resnet50():
    from ..test_quant_golden import make_model
    return make_model("resnet50_frozen")


def image_batches():
    from ..test_quant_golden import batches
    return list(batches())


def test_frozen_backbone_compiles_and_replays_bit_identically():
    """The stages cover the trainable runs of the gradient plane, so
    the compiler has no frozen-parameter refusal left: one capture,
    then replays, equal to eager down to the RNG position."""
    def trainer(graph):
        built = Int8Trainer(frozen_resnet50(), lr=0.05, config=QuantConfig(),
                            momentum=0.9, weight_decay=1e-4, seed=7,
                            max_grad_norm=0.5)
        if graph:
            built.enable_graph_executor()
        return built

    eager, graphed = trainer(False), trainer(True)
    for x, y in image_batches():
        assert eager.train_step(x, y) == graphed.train_step(x, y)
    assert graphed.graph_stats() == {"captures": 1, "replays": 3,
                                     "eager_steps": 0, "fallbacks": 0}
    assert_trainers_identical(eager, graphed)
    for ours, theirs in zip(graphed.optimizer.state_dict()["velocity"],
                            eager.optimizer.state_dict()["velocity"]):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(eager.predict_logits(x), graphed.predict_logits(x))


def test_frozen_backbone_takes_the_fused_fp32_update():
    """``grads_ready()`` asks only the parameters that train, so the
    FP32 twin's ``SGD`` takes the fused update over the trainable runs
    — equal to the per-tensor loop (``tests/flat_reference.py``) that
    skips a parameter without a gradient (weight decay and momentum
    included)."""
    from repro.nn.graph import train_step
    from repro.nn.optim import SGD

    from ..flat_reference import LoopSgd

    def make(optimizer):
        model = frozen_resnet50()
        return model, optimizer(model.parameters(), lr=0.05, momentum=0.9,
                                weight_decay=1e-2)

    (fused, fused_opt), (loop, loop_opt) = make(SGD), make(LoopSgd)
    flat = fused.flatten_parameters()
    assert len(flat.trainable_runs()) == 1
    for x, y in image_batches():
        assert (train_step(fused, fused_opt, x, y)
                == train_step(loop, loop_opt, x, y))
        assert flat.grads_ready()
    for a, b in zip(fused.parameters(), loop.parameters()):
        assert np.array_equal(a.data, b.data)
    for ours, theirs in zip(fused_opt.state_dict()["velocity"],
                            loop_opt.velocity):
        assert not ours.any() if theirs is None \
            else np.array_equal(ours, theirs)
