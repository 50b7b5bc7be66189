"""The INT8 weight plane: a logical group keeps only its FP32 weights and
its two momenta.

Eq. 5 leaves a group's FP32 and INT8 weights byte-equal after every
batch, so the INT8 twins of a run keep no weights of their own: theirs
are one array per run, the step arena's weight plane, which a group
loads from its FP32 weights before each INT8 step and profile.  These
tests pin that the move changed no number (digests recorded before it),
that no twin ever reads another group's weights, and that nothing
brings the per-group copy back.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterTopology
from repro.core import SoCFlow, SoCFlowOptions
from repro.core.mixed_precision import GroupMixedTrainer
from repro.core.socflow import build_groups
from repro.data import make_classification_images
from repro.distributed import RunConfig
from repro.harness import make_run_config
from repro.parallel.pool import _arrays
from repro.quant import QuantConfig
from repro.quant.mixed import MixedPrecisionController

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

TASK = make_classification_images(num_classes=4, train_size=96, test_size=32,
                                  channels=3, image_size=16, difficulty=0.4,
                                  seed=4)


def run_config(model="vgg11", width=0.125, graph=False) -> RunConfig:
    return RunConfig(
        task=TASK, model_name=model, width=width, batch_size=16, lr=0.05,
        momentum=0.9, weight_decay=1e-4, max_epochs=1, seed=0, graph=graph,
        topology=ClusterTopology(num_socs=12), sim_samples_per_epoch=1000,
        sim_global_batch=32, num_groups=3)


def rows(cursor, size):
    index = np.arange(cursor, cursor + size) % len(TASK.x_train)
    return TASK.x_train[index], TASK.y_train[index]


def group_state_digest(groups, controller) -> str:
    """Everything a group keeps between its steps, and the controller's
    alpha trail."""
    h = hashlib.sha256()
    for group in groups:
        arrays = list(group.state_dict().values())
        arrays += group.fp32_opt.state_dict()["velocity"]
        if group.int8 is not None:
            arrays += group.int8.optimizer.state_dict()["velocity"]
            h.update(repr(group.int8.rng.bit_generator.state).encode())
            h.update(repr(group.int8._input_observer._ema).encode())
        for array in arrays:
            h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(controller.history).encode())
    return h.hexdigest()


def interleaved_run(model, width, precision, graph) -> str:
    """Three groups on one arena, stepped round-robin for two 'epochs'
    at two CPU/NPU splits, each epoch closed by a merge (every group
    loads group 0's weights) and an alpha profile."""
    config = run_config(model, width, graph)
    controller = MixedPrecisionController(1.0, 0.5)
    groups = build_groups(config, controller, QuantConfig(), 3, precision)
    cursor = 0
    for epoch, alpha in enumerate((0.4, 1.3)):
        controller.alpha = alpha
        for _ in range(2):
            for group in groups:
                group.train_batch(*rows(cursor, 16))
                cursor += 16
        merged = groups[epoch % 3].state_dict()
        for group in groups:
            group.load_state(merged)
        groups[0].update_alpha(TASK.x_test[:16])
    return group_state_digest(groups, controller)


#: recorded with each group keeping its own INT8 weights (and the
#: ``w_int8[...] = w_fp32`` tail of the merge), before the plane
PINNED = {
    ("vgg11", "mixed", False):
        "0abef9563e28b4533d492769e1ee62f30811332a04d43993f92288e000c134e0",
    ("vgg11", "mixed", True):
        "0abef9563e28b4533d492769e1ee62f30811332a04d43993f92288e000c134e0",
    ("vgg11", "int8", False):
        "777396d03bcf2558e692f705aa2b94a45dd3e79a6d26631760217a8a736ead14",
    ("vit_tiny", "mixed", False):
        "0c5cc62381f68aaec5a7b43943f5e2935f9d275a81db71bd3dce33d99f829204",
    ("vit_tiny", "int8", True):
        "f5dec7674ea2c56b8771fd983bf844f6edd4ea2d44f6eb29ab5fb9ebbacf18e4",
}
WIDTHS = {"vgg11": 0.125, "vit_tiny": 0.5}


@pytest.mark.parametrize("model,precision,graph", sorted(PINNED),
                         ids=lambda v: str(v))
def test_groups_step_as_when_each_kept_its_int8_weights(model, precision,
                                                        graph):
    digest = interleaved_run(model, WIDTHS[model], precision, graph)
    assert digest == PINNED[(model, precision, graph)]


# ----------------------------------------------------------------------
# no twin reads another group's weights
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph", [False, True], ids=["eager", "graph"])
def test_a_twin_refuses_the_plane_another_group_used(graph):
    """After group b's step (its merge spends the plane) or b's profile
    (the plane holds b's weights), a's twin stepped, profiled or read
    directly refuses; a's own step and profile reload a's weights."""
    config = run_config("lenet5" if graph else "vgg11", 0.25, graph)
    controller = MixedPrecisionController(1.0, 0.5)
    a, b = build_groups(config, controller, QuantConfig(), 2)
    x, y = rows(0, 16)
    a.train_batch(x, y)
    a.update_alpha(TASK.x_test[:16])
    for other_use in (lambda: b.train_batch(*rows(16, 16)),
                      lambda: b.update_alpha(TASK.x_test[:16])):
        other_use()
        for direct in (lambda: a.int8.train_step(x, y),
                       lambda: a.int8.predict_logits(TASK.x_test[:16]),
                       lambda: a.int8.model.state_dict()):
            with pytest.raises(RuntimeError, match="weight plane"):
                direct()
    # a group's own INT8 uses see its weights, whoever used the plane
    twin = GroupMixedTrainer(config, controller, QuantConfig(),
                             seed_offset=0, init_weights=False)
    twin.load_runtime_state(a.runtime_state())
    b.update_alpha(TASK.x_test[:16])
    assert a.update_alpha(TASK.x_test[:16]) == \
        twin.update_alpha(TASK.x_test[:16])
    b.train_batch(*rows(32, 16))
    a.train_batch(*rows(48, 16))
    twin.train_batch(*rows(48, 16))
    assert group_state_digest([a], controller) == \
        group_state_digest([twin], controller)


def test_runtime_state_restart_equals_an_uninterrupted_group():
    """A group checkpointed mid-run (``runtime_state``, no INT8 weights
    in it) and resumed in a fresh trainer on the run's arena continues
    exactly as one that never
    stopped, with the arena's step storage poisoned in between."""
    config = run_config()

    def run(restart: bool) -> str:
        controller = MixedPrecisionController(1.0, 0.5)
        groups = build_groups(config, controller, QuantConfig(), 2)
        for step in range(4):
            controller.alpha = (0.4, 1.3)[step % 2]
            for index, group in enumerate(groups):
                group.train_batch(*rows(32 * step + 16 * index, 16))
            if restart and step == 1:
                state = groups[0].runtime_state()
                assert "model" not in state["int8"]
                groups[0] = GroupMixedTrainer(
                    config, controller, QuantConfig(), seed_offset=0,
                    arena=groups[1].arena, init_weights=False)
                groups[0].load_runtime_state(state)
                for array in groups[0].arena.buffers():    # incl. the plane
                    array.fill(np.nan)
        groups[0].update_alpha(TASK.x_test[:16])
        return group_state_digest(groups, controller)

    assert run(restart=True) == run(restart=False)


def test_workers2_equals_workers1_for_a_mixed_run():
    """The pool ships a group's FP32 weights and two momenta, not the
    twin's weights: the parallel run is still the sequential one."""
    results = []
    for workers in (1, 2):
        config = make_run_config("vgg11", "quick", num_socs=16,
                                 num_groups=4, max_epochs=2,
                                 workers=workers)
        results.append(SoCFlow(SoCFlowOptions(precision="mixed")).train(
            config))
    seq, par = results
    assert seq.sim_time_s == par.sim_time_s
    assert seq.accuracy_history == par.accuracy_history
    assert seq.extra["alpha_history"] == par.extra["alpha_history"]
    for key, value in seq.extra["final_state"].items():
        assert np.array_equal(value, par.extra["final_state"][key]), key


# ----------------------------------------------------------------------
# the per-group copy stays gone
# ----------------------------------------------------------------------
def test_groups_share_one_int8_weight_array():
    config = run_config()
    groups = build_groups(config, MixedPrecisionController(1.0, 0.5),
                          QuantConfig(), 4)
    flat = groups[0].int8.model.flatten_parameters()
    plane = groups[0].arena.weight_plane(flat.layout).array
    for group in groups:
        assert group.int8.model.flatten_parameters().data is plane
        # shipped per group: FP32 weights and the two momenta
        weights, *momenta = _arrays(group)
        assert weights is group.fp32.flatten_parameters().data
        assert len(momenta) == 2


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_no_source_keeps_or_reads_a_twins_own_weights():
    """Nothing under ``src/`` snapshots, loads or ships an INT8 twin's
    weights as its own (``….int8.model.state_dict()`` and the like, an
    ``….int8.runtime_state()`` with weights), and the twin is built on
    the weight plane."""
    offending, plane_builds = [], 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            keywords = {k.arg: k.value for k in node.keywords}
            where = f"{path.relative_to(SRC)}:{node.lineno} {name}"
            if name.endswith(("int8.model.state_dict",
                              "int8.model.load_state_dict",
                              "int8.model.live_state",
                              "int8.model.flatten_parameters")):
                offending.append(where)
            if name.endswith("int8.runtime_state") and not (
                    isinstance(keywords.get("weights"), ast.Constant)
                    and keywords["weights"].value is False):
                offending.append(where)
            if (path.name == "mixed_precision.py" and name == "make_model"
                    and isinstance(keywords.get("shared_weights"),
                                   ast.Constant)
                    and keywords["shared_weights"].value is True):
                plane_builds += 1
    assert offending == []
    assert plane_builds == 1
