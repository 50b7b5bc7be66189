"""Int8Trainer: stability, weight-master semantics, gradient clipping."""

import numpy as np
import pytest

from repro.nn.models import LeNet5
from repro.quant import Int8Trainer, QuantConfig


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
def _trainer(name, config, fused, monkeypatch):
    from repro.nn.models.registry import build_model
    from repro.nn.modules import Module
    model = build_model(name, seed=3, num_classes=10, image_size=16,
                        in_channels=3, width=0.5)
    with monkeypatch.context() as patch:
        if not fused:       # never flattens: per-tensor quantise/clip/SGD
            patch.setattr(Module, "flatten_parameters",
                          lambda self, arena=None: None)
        return Int8Trainer(model, lr=0.05, config=config, momentum=0.9,
                           weight_decay=1e-4, seed=7, max_grad_norm=0.5)


@pytest.mark.parametrize("config", [
    QuantConfig(), QuantConfig(stochastic_rounding=False),
    QuantConfig(float16=True), QuantConfig(bits=4),
    QuantConfig(quantize_gradients=False, quantize_activations=False)],
    ids=["int8", "int8_rint", "fp16", "int4", "weights_only"])
@pytest.mark.parametrize("name", ["lenet5", "vit_tiny"])
def test_inplace_fused_step_matches_per_parameter_reference(name, config,
                                                           monkeypatch):
    """Eager steps on a flattened model quantise weights and gradients
    in place through the pooled ``SegmentQuantizer``, clip on the flat
    gradient and update fused; the unflattened per-tensor path
    (``fake_quantize`` / ``_clip_gradients`` / per-parameter SGD) is
    the reference: same weights, momentum and RNG position."""
    fused = _trainer(name, config, True, monkeypatch)
    reference = _trainer(name, config, False, monkeypatch)
    assert fused._flat() is not None and reference._flat() is None
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        assert fused.train_step(x, y) == reference.train_step(x, y)
    state, expected = fused.model.state_dict(), reference.model.state_dict()
    for key in expected:
        assert np.array_equal(state[key], expected[key]), key
    for ours, theirs in zip(fused.optimizer.state_dict()["velocity"],
                            reference.optimizer.state_dict()["velocity"]):
        assert np.array_equal(ours, theirs)
    assert fused.rng.bit_generator.state == reference.rng.bit_generator.state
    assert np.array_equal(fused.predict_logits(x),
                          reference.predict_logits(x))
