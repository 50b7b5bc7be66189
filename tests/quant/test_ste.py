"""Straight-through-estimator quantisation op."""

import numpy as np

from repro.nn import Tensor
from repro.nn.models import VGG11
from repro.quant import QuantConfig, attach_activation_quant, ste_quantize


class TestSteQuantize:
    def test_forward_snaps_to_grid(self):
        x = Tensor(np.array([0.013], dtype=np.float32), requires_grad=True)
        out = ste_quantize(x, scale=0.01, qmax=127)
        np.testing.assert_allclose(out.numpy(), [0.01], atol=1e-7)

    def test_backward_is_identity(self):
        x = Tensor(np.array([0.013, -0.5], dtype=np.float32),
                   requires_grad=True)
        out = ste_quantize(x, scale=0.01, qmax=127)
        out.backward(np.array([2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(x.grad, [2.0, 3.0])

    def test_clips_to_range(self):
        x = Tensor(np.array([100.0], dtype=np.float32))
        out = ste_quantize(x, scale=0.01, qmax=127)
        np.testing.assert_allclose(out.numpy(), [1.27], rtol=1e-6)


class TestAttachDetach:
    def test_attach_counts_conv_and_linear(self):
        model = VGG11(num_classes=4, image_size=12, width=0.2, seed=0)
        count = attach_activation_quant(model, QuantConfig())
        # VGG-11 has 8 convs + 1 linear classifier
        assert count == 9

    def test_quantized_forward_changes_output_slightly(self):
        x = Tensor(np.random.default_rng(0).standard_normal(
            (2, 3, 12, 12)).astype(np.float32))
        model = VGG11(num_classes=4, image_size=12, width=0.2, seed=0)
        model.eval()
        clean = model(x).numpy().copy()
        attach_activation_quant(model, QuantConfig())
        quantized = model(x).numpy()
        assert not np.allclose(clean, quantized)
        # but not wildly different
        assert np.abs(clean - quantized).max() < 1.0
