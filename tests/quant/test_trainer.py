"""Int8Trainer: stability, weight-master semantics, gradient clipping."""

import numpy as np
import pytest

from repro.nn.graph import train_step
from repro.nn.models import MODEL_REGISTRY, LeNet5
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad
from repro.quant import Int8Trainer, QuantConfig, attach_activation_quant
from repro.quant.observer import EmaObserver

from ..flat_reference import LoopSgd
from ..test_quant_golden import IMAGE, MODELS, make_model
from .test_fused_quant import reference


def tiny_model():
    return LeNet5(num_classes=4, in_channels=1, image_size=12, width=0.3,
                  seed=0)


def batch(rng, n=16):
    x = rng.standard_normal((n, 1, 12, 12)).astype(np.float32)
    y = rng.integers(0, 4, size=n)
    return x, y


class TestTraining:
    def test_loss_decreases_on_memorized_batch(self):
        rng = np.random.default_rng(0)
        model = tiny_model()
        trainer = Int8Trainer(model, lr=0.05, config=QuantConfig(),
                              momentum=0.9, seed=0)
        x, y = batch(rng)
        first = trainer.train_step(x, y)
        for _ in range(25):
            last = trainer.train_step(x, y)
        assert last < first

    def test_weights_stay_fp32_masters(self):
        """Weights between steps must NOT be on the INT8 grid — FP32
        masters accumulate sub-grid updates."""
        rng = np.random.default_rng(1)
        model = tiny_model()
        trainer = Int8Trainer(model, lr=1e-4, config=QuantConfig(), seed=0)
        x, y = batch(rng)
        before = model.parameters()[0].data.copy()
        trainer.train_step(x, y)
        after = model.parameters()[0].data
        delta = np.abs(after - before).max()
        grid_step = np.abs(before).max() / 127
        assert 0 < delta < grid_step  # a sub-grid update survived

    def test_predict_logits_restores_weights(self):
        rng = np.random.default_rng(2)
        model = tiny_model()
        trainer = Int8Trainer(model, lr=0.01, config=QuantConfig(), seed=0)
        x, _ = batch(rng)
        before = model.parameters()[0].data.copy()
        trainer.predict_logits(x)
        np.testing.assert_array_equal(model.parameters()[0].data, before)

    def test_activation_quantizers_attached(self):
        from repro.nn.modules import Conv2d, Linear
        model = tiny_model()
        Int8Trainer(model, lr=0.01, config=QuantConfig(), seed=0)
        hooks = [m.output_quant for m in model.modules()
                 if isinstance(m, (Conv2d, Linear))]
        assert hooks and all(h is not None for h in hooks)

    def test_no_activation_quant_when_disabled(self):
        from repro.nn.modules import Conv2d, Linear
        model = tiny_model()
        Int8Trainer(model, lr=0.01,
                    config=QuantConfig(quantize_activations=False), seed=0)
        hooks = [m.output_quant for m in model.modules()
                 if isinstance(m, (Conv2d, Linear))]
        assert all(h is None for h in hooks)


class TestGradientClipping:
    def test_clip_bounds_global_norm(self):
        rng = np.random.default_rng(3)
        model = tiny_model()
        trainer = Int8Trainer(model, lr=0.0001, config=QuantConfig(
            quantize_gradients=False), seed=0, max_grad_norm=0.5)
        x, y = batch(rng, 8)
        trainer.train_step(100.0 * x, y)  # huge inputs -> huge grads
        total = sum(float((p.grad.astype(np.float64) ** 2).sum())
                    for p in model.parameters() if p.grad is not None)
        assert np.sqrt(total) <= 0.5 * 1.01

    def test_small_gradients_untouched(self):
        rng = np.random.default_rng(4)
        model = tiny_model()
        trainer = Int8Trainer(model, lr=1e-5, config=QuantConfig(
            quantize_gradients=False, quantize_activations=False,
            quantize_weights=False), seed=0, max_grad_norm=1e9)
        x, y = batch(rng, 8)
        trainer.train_step(x, y)
        total = sum(float((p.grad ** 2).sum())
                    for p in model.parameters() if p.grad is not None)
        assert total > 0  # clipping at a huge bound changed nothing


class TestLrProperty:
    def test_lr_roundtrip(self):
        trainer = Int8Trainer(tiny_model(), lr=0.05, config=QuantConfig(),
                              seed=0)
        trainer.lr = 0.001
        assert trainer.lr == 0.001
        assert trainer.optimizer.lr == 0.001


# ----------------------------------------------------------------------
# The in-place fused step against the per-parameter reference
# ----------------------------------------------------------------------
class PerParameterInt8:
    """The INT8 step tensor by tensor on an *unflattened* model — what
    ``Int8Trainer.before``/``after`` were before the fused stages
    became the only ones, kept here as their reference: every tensor
    through the int32 ``quantize``/``dequantize`` pair, the clip a
    loop over ``.grad``, the update SGD's per-tensor loop (its twin in
    ``tests/flat_reference.py``)."""

    def __init__(self, model, lr, config, momentum, weight_decay, seed,
                 max_grad_norm):
        self.model, self.config = model, config
        self.max_grad_norm = max_grad_norm
        self.optimizer = LoopSgd(model.parameters(), lr=lr,
                                 momentum=momentum, weight_decay=weight_decay)
        self.rng = np.random.default_rng(seed)
        self._input_observer = EmaObserver(config.qmax)
        if config.quantize_activations:
            attach_activation_quant(model, config)

    def fake_quantize(self, x, rng=None, scale=None):
        return reference(x, self.config, rng, scale)

    def train_step(self, x, y):
        return train_step(self.model, self.optimizer, x, y, stages=self)

    def before(self, x):
        config = self.config
        self._masters = [p.data for p in self.model.parameters()]
        if config.quantize_weights:
            for param in self.model.parameters():
                param.data = self.fake_quantize(param.data)
        if not config.quantize_activations:
            return x
        self._input_observer.observe(x)
        return self.fake_quantize(x, scale=self._input_observer.scale)

    def restore(self):
        for param, master in zip(self.model.parameters(), self._masters):
            param.data = master

    def after(self):
        self.restore()
        grads = [p.grad for p in self.model.parameters()
                 if p.grad is not None]
        if self.max_grad_norm is not None:
            total = 0.0
            for grad in grads:
                total += float(np.sum(grad.astype(np.float64) ** 2))
            norm = np.sqrt(total)
            if norm > self.max_grad_norm:
                for grad in grads:
                    grad *= self.max_grad_norm / norm
        if self.config.quantize_gradients:
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad = self.fake_quantize(param.grad, rng=self.rng)

    def predict_logits(self, x):
        self.model.eval()
        x = self.before(np.asarray(x, dtype=np.float32))
        with no_grad():
            logits = self.model(Tensor(x)).data
        self.restore()
        return logits


def _model(name, flat=True):
    key = name.removesuffix("_split")
    if flat:
        model = make_model(key)
    else:       # the registry's factory: a model that was never flattened
        arch, width, frozen = MODELS[key]
        model = MODEL_REGISTRY[arch](seed=3, num_classes=10, in_channels=3,
                                     image_size=IMAGE, width=width)
        if frozen:
            model.freeze_backbone()
    if name.endswith("_split"):         # frozen middle: several runs
        for param in model.parameters()[2:4]:
            param.requires_grad = False
    return model


KWARGS = dict(lr=0.05, momentum=0.9, weight_decay=1e-4, seed=7,
              max_grad_norm=0.5)


@pytest.mark.parametrize("config", [
    QuantConfig(), QuantConfig(stochastic_rounding=False),
    QuantConfig(float16=True), QuantConfig(bits=4),
    QuantConfig(quantize_gradients=False, quantize_activations=False)],
    ids=["int8", "int8_rint", "fp16", "int4", "weights_only"])
@pytest.mark.parametrize("name", ["lenet5", "vit_tiny", "lenet5_split",
                                  "resnet50_frozen"])
def test_inplace_fused_step_matches_per_parameter_reference(name, config):
    """Steps quantise weights and gradients in place through the
    pooled ``SegmentQuantizer``, clip on the flat gradient and update
    fused — over the trainable runs when part of the model is frozen;
    the per-tensor path is the reference: same losses, weights,
    momentum, RNG position and logits."""
    fused = Int8Trainer(_model(name), config=config, **KWARGS)
    reference = PerParameterInt8(_model(name, flat=False), config=config,
                                 **KWARGS)
    assert reference.model._flat is None
    runs = fused.model.flatten_parameters().trainable_runs()
    assert len(runs) == (2 if name == "lenet5_split" else 1)
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        assert fused.train_step(x, y) == reference.train_step(x, y)
    for ours, theirs in zip(fused.optimizer.state_dict()["velocity"],
                            reference.optimizer.velocity):
        if theirs is None:              # frozen: never moved
            assert not ours.any()
        else:
            assert np.array_equal(ours, theirs)
    assert fused.rng.bit_generator.state == reference.rng.bit_generator.state
    assert np.array_equal(fused.predict_logits(x),
                          reference.predict_logits(x))
    # (flattens the reference: its step swaps ``.data``, so last)
    state, expected = fused.model.state_dict(), reference.model.state_dict()
    for key in expected:
        assert np.array_equal(state[key], expected[key]), key
