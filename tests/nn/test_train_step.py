"""The training step exists once: ``repro.nn.graph.train_step``.

FP32, INT8 and the HiPress gradient hook are arguments of one eager
spelling (and of one compiled executor replaying it), not copies of
``forward → cross_entropy → backward → step``.  The structure tests
scan the source the way ``tests/distributed/test_pricing.py`` lists the
clock movers; the behaviour tests pin where the stages and the hook run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core.mixed_precision
import repro.distributed.base
from repro.distributed.ssgd import SsgdStrategy
from repro.core.planning import CommunicationPlan
from repro.nn import graph as graph_mod
from repro.nn.graph import attach_graph_executor, train_step
from repro.nn.models.registry import MODEL_REGISTRY, build_model
from repro.nn.optim import SGD
from repro.quant import Int8Trainer, QuantConfig

THE_STEP = ("nn/graph.py", "train_step")


def call_sites(predicate) -> "list[tuple[str, str | None]]":
    """(file, enclosing function) of every call ``predicate`` accepts
    under ``src/repro``."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.Module)):
                continue
            for node in ast.iter_child_nodes(scope):
                stack = [node]
                while stack:        # this scope only, not nested defs
                    item = stack.pop()
                    if isinstance(item, ast.FunctionDef):
                        continue
                    if isinstance(item, ast.Call) and predicate(item):
                        found.append((path.relative_to(root).as_posix(),
                                      getattr(scope, "name", None)))
                    stack.extend(ast.iter_child_nodes(item))
    return found


def test_the_only_backward_call_is_in_the_one_step():
    backward = call_sites(
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr == "backward")
    assert backward == [THE_STEP]


def test_the_only_training_loss_is_in_the_one_step():
    loss = call_sites(
        lambda call: getattr(call.func, "attr",
                             getattr(call.func, "id", None))
        == "cross_entropy")
    assert loss == [THE_STEP]


def test_the_copies_and_the_twin_executor_are_gone():
    from repro.core import socflow
    from repro.distributed.base import flush_graph_stats
    import inspect
    for owner, name in [(graph_mod, "Int8GraphExecutor"),
                        (graph_mod, "_Int8Plan"),
                        (graph_mod, "_Int8Program"),
                        (graph_mod, "_StepExecutor"),
                        (graph_mod, "_make_input_stage"),
                        (graph_mod, "attach_int8_graph_executor"),
                        (graph_mod, "_eager_step"),
                        (SsgdStrategy, "_step_with_hook"),
                        (SsgdStrategy, "_uses_gradient_hook"),
                        (Int8Trainer, "_quantize_input"),
                        (Int8Trainer, "_eager_step"),
                        (socflow, "_int8_only_step"),
                        (CommunicationPlan, "step_sync_seconds")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert "hook_fallback" not in inspect.signature(
        flush_graph_stats).parameters
    root = Path(repro.__file__).parent
    assert not [path for path in root.rglob("*.py")
                if "int8_only" in path.read_text()]


def test_every_importer_resolves_the_one_function():
    assert repro.distributed.base.fp32_train_step is train_step
    assert repro.core.mixed_precision.fp32_train_step is train_step


# ----------------------------------------------------------------------
class Recorder:
    """Stages + hook + optimiser wrapper that log the order they run in."""

    def __init__(self, model, optimizer):
        self.model, self.optimizer, self.log = model, optimizer, []
        self.params = optimizer.params

    def before(self, x):
        assert self.model.training
        assert all(p.grad is None for p in self.model.parameters())
        self.log.append("before")
        return x * np.float32(0.5)

    def after(self):
        assert all(p.grad is not None for p in self.model.parameters())
        self.log.append("after")

    def hook(self, model):
        assert model is self.model
        self.log.append("hook")
        double_gradients(model)

    def zero_grad(self):
        self.log.append("zero_grad")
        self.optimizer.zero_grad()

    def step(self):
        self.log.append("step")
        self.optimizer.step()


def double_gradients(model):
    for param in model.parameters():
        param.grad *= np.float32(2.0)


def lenet(seed=3):
    model = build_model("lenet5", seed=seed, num_classes=10, in_channels=1,
                        image_size=16, width=0.5)
    return model, SGD(model.parameters(), lr=0.05, momentum=0.9,
                      flat=model.flatten_parameters())


def batch(seed, size=8):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((size, 1, 16, 16)).astype(np.float32),
            rng.integers(0, 10, size=size))


def test_stages_and_hook_run_where_the_step_says():
    """``train → zero_grad → before → forward/backward → after → hook →
    step``, and each really takes effect: the model sees ``before``'s
    array, the optimiser the hook's gradients."""
    model, optimizer = lenet()
    recorder = Recorder(model, optimizer)
    model.eval()
    x, y = batch(0)
    loss = train_step(model, recorder, x, y, stages=recorder,
                      grad_hook=recorder.hook)
    assert recorder.log == ["zero_grad", "before", "after", "hook", "step"]
    # the reference: the same step spelled by hand on a twin
    twin, twin_opt = lenet()
    twin_loss = train_step(twin, twin_opt, x * np.float32(0.5), y,
                           grad_hook=double_gradients)
    assert loss == twin_loss
    for a, b in zip(model.parameters(), twin.parameters()):
        assert np.array_equal(a.data, b.data)


def test_replay_applies_the_same_hook_as_eager():
    """A hook rewrites the gradients in their plane views (as DGC's
    densified top-k does), so both modes take the fused update;
    replayed steps stay bit-identical and keep replaying."""
    def hook(model):
        for param in model.parameters():
            param.grad[...] = np.where(np.abs(param.grad) > 1e-3,
                                       param.grad, np.float32(0.0))

    (eager, eager_opt), (graphed, graphed_opt) = lenet(), lenet()
    executor = attach_graph_executor(graphed)
    for step in range(5):
        x, y = batch(step)
        assert (train_step(eager, eager_opt, x, y, grad_hook=hook)
                == train_step(graphed, graphed_opt, x, y, grad_hook=hook))
    assert executor.stats == {"captures": 1, "replays": 4,
                              "eager_steps": 0, "fallbacks": 0}
    for a, b in zip(eager.parameters(), graphed.parameters()):
        assert np.array_equal(a.data, b.data)
    for va, vb in zip(eager_opt.state_dict()["velocity"],
                      graphed_opt.state_dict()["velocity"]):
        assert np.array_equal(va, vb)


def test_frozen_parameters_replay_the_int8_step():
    """What the stages do to gradients they do over the trainable runs
    of the fused plane, so a replica with frozen parameters is the one
    step on fewer elements: it compiles and replays like any other,
    bit-identical to a trainer that never asked for the executor."""
    def trainer(graph):
        model = build_model("lenet5", seed=3, num_classes=10, in_channels=1,
                            image_size=16, width=0.5)
        model.parameters()[0].requires_grad = False
        built = Int8Trainer(model, lr=0.05, config=QuantConfig(),
                            momentum=0.9, seed=5)
        if graph:
            built.enable_graph_executor()
        return built

    eager, graphed = trainer(False), trainer(True)
    for step in range(3):
        x, y = batch(step)
        assert eager.train_step(x, y) == graphed.train_step(x, y)
    assert graphed.graph_stats() == {"captures": 1, "replays": 2,
                                     "eager_steps": 0, "fallbacks": 0}
    for a, b in zip(eager.model.parameters(), graphed.model.parameters()):
        assert np.array_equal(a.data, b.data)
    assert eager.rng.bit_generator.state == graphed.rng.bit_generator.state


def test_int8_executor_needs_a_model_that_flattens():
    """No unfused mode: every step runs on fused float32 storage, so a
    model that cannot flatten is refused where it is wrapped — not
    trained through a second, per-tensor path."""
    model = MODEL_REGISTRY["lenet5"](seed=3, num_classes=10, in_channels=1,
                                     image_size=16, width=0.5)
    weight = model.parameters()[0]
    weight.data = weight.data.astype(np.float64)
    with pytest.raises(TypeError, match="float32"):
        model.flatten_parameters()
    with pytest.raises(TypeError, match="float32"):
        Int8Trainer(model, lr=0.05, config=QuantConfig(), seed=5)
    with pytest.raises(TypeError, match="float32"):
        attach_graph_executor(model)


@pytest.mark.parametrize("config", [
    QuantConfig(), QuantConfig(float16=True), QuantConfig(bits=4),
    QuantConfig(quantize_activations=False)],
    ids=["int8", "fp16", "int4", "no_activations"])
def test_input_stage_matches_the_functional_form(config):
    """The input stage — fresh buffers (eager) or a plan's (compiled) —
    is ``observe`` + the int32 reference round trip bit for bit."""
    from repro.quant import dequantize, quantize
    from repro.quant.observer import EmaObserver

    def stage():
        model = build_model("lenet5", seed=3, num_classes=10, in_channels=1,
                            image_size=16, width=0.5)
        trainer = Int8Trainer(model, lr=0.05, config=config, seed=5)
        return trainer, trainer.bind(model.flatten_parameters())[0]

    reference = EmaObserver(config.qmax)
    (eager, eager_before), (planned, planned_before) = stage(), stage()
    out = np.empty((8, 1, 16, 16), dtype=np.float32)
    wide = np.empty(out.shape, np.float16 if config.float16 else np.float64)
    for step in range(4):
        x, _ = batch(step)
        x *= np.float32(1 + step)
        if not config.quantize_activations:
            expected = x
        elif config.float16:
            reference.observe(x)
            expected = x.astype(np.float16).astype(np.float32)
        else:
            reference.observe(x)
            expected = dequantize(quantize(x, reference.scale, config.qmax),
                                  reference.scale)
        assert np.array_equal(eager_before(x), expected)
        assert planned_before(x, out, wide) is out
        assert np.array_equal(out, expected)
        if config.quantize_activations:
            assert (eager._input_observer._ema
                    == planned._input_observer._ema == reference._ema)
