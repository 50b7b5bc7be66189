"""Vision Transformer extension: LayerNorm, attention, end-to-end."""

import numpy as np
import pytest

from repro.nn import SGD, Tensor
from repro.nn import functional as F
from repro.nn.models import (LayerNorm, MultiHeadAttention,
                             TransformerBlock, VisionTransformer,
                             build_model)

RNG = np.random.default_rng(0)


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        x = Tensor((5.0 + 2.0 * RNG.standard_normal((4, 7, 16))).astype(
            np.float32))
        out = LayerNorm(16)(x).numpy()
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-2)

    def test_gradient_flows(self):
        x = Tensor(RNG.standard_normal((2, 3, 8)).astype(np.float32),
                   requires_grad=True)
        LayerNorm(8)(x).sum().backward()
        assert x.grad is not None

    def test_numeric_gradient(self):
        norm = LayerNorm(6)
        x0 = RNG.standard_normal((2, 6)).astype(np.float32)
        proj = RNG.standard_normal((2, 6)).astype(np.float32)

        def scalar(arr):
            out = (norm(Tensor(arr)).numpy() * proj)
            return float((out ** 2).sum())

        x = Tensor(x0.copy(), requires_grad=True)
        out = norm(x) * Tensor(proj)
        (out * out).sum().backward()
        idx = (1, 3)
        eps = 1e-3
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += eps
        xm[idx] -= eps
        numeric = (scalar(xp) - scalar(xm)) / (2 * eps)
        assert float(x.grad[idx]) == pytest.approx(numeric, rel=5e-2,
                                                   abs=1e-3)


class TestAttention:
    def test_output_shape(self):
        attention = MultiHeadAttention(16, 4, RNG)
        x = Tensor(RNG.standard_normal((2, 9, 16)).astype(np.float32))
        assert attention(x).shape == (2, 9, 16)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, RNG)

    def test_permutation_equivariance(self):
        """Self-attention without position info commutes with token
        permutations."""
        attention = MultiHeadAttention(8, 2, RNG)
        x = RNG.standard_normal((1, 5, 8)).astype(np.float32)
        perm = np.array([3, 0, 4, 1, 2])
        out = attention(Tensor(x)).numpy()
        out_perm = attention(Tensor(x[:, perm])).numpy()
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-4)

    def test_gradient_flows_to_qkv(self):
        attention = MultiHeadAttention(8, 2, RNG)
        x = Tensor(RNG.standard_normal((1, 4, 8)).astype(np.float32))
        attention(x).sum().backward()
        assert attention.qkv.weight.grad is not None
        assert attention.proj.weight.grad is not None


class TestBlockAndModel:
    def test_block_preserves_shape(self):
        block = TransformerBlock(16, 4, 2.0, RNG)
        x = Tensor(RNG.standard_normal((2, 6, 16)).astype(np.float32))
        assert block(x).shape == (2, 6, 16)

    def test_vit_forward_shape(self):
        model = VisionTransformer(num_classes=7, in_channels=3,
                                  image_size=16, width=0.5, seed=0,
                                  depth=2)
        x = Tensor(RNG.standard_normal((3, 3, 16, 16)).astype(np.float32))
        assert model(x).shape == (3, 7)

    def test_patch_size_must_divide(self):
        with pytest.raises(ValueError):
            VisionTransformer(image_size=15, patch_size=4)

    def test_registry_has_vit(self):
        model = build_model("vit_tiny", num_classes=3, in_channels=3,
                            image_size=16, width=0.25, seed=0)
        assert model.num_parameters() > 0

    def test_trains_with_sgd_on_memorized_batch(self):
        model = VisionTransformer(num_classes=4, in_channels=3,
                                  image_size=16, width=0.5, seed=0,
                                  depth=2)
        model.flatten_parameters()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        x = RNG.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = np.array([0, 1, 2, 3] * 2)
        losses = []
        for _ in range(15):
            model.train()
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5

    def test_state_dict_roundtrip(self):
        a = VisionTransformer(num_classes=3, image_size=16, width=0.25,
                              seed=0, depth=2)
        b = VisionTransformer(num_classes=3, image_size=16, width=0.25,
                              seed=9, depth=2)
        b.load_state_dict(a.state_dict())
        x = Tensor(RNG.standard_normal((2, 3, 16, 16)).astype(np.float32))
        a.eval(), b.eval()
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy(), rtol=1e-5)

    def test_int8_trainer_works_on_vit(self):
        from repro.quant import Int8Trainer, QuantConfig
        model = VisionTransformer(num_classes=3, image_size=16, width=0.25,
                                  seed=0, depth=1)
        trainer = Int8Trainer(model, lr=1e-3, config=QuantConfig(), seed=0)
        x = RNG.standard_normal((4, 3, 16, 16)).astype(np.float32)
        loss = trainer.train_step(x, np.array([0, 1, 2, 0]))
        assert np.isfinite(loss)
