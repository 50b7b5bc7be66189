"""Forward-semantics tests for the functional ops."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import col2im, im2col


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        cols = im2col(x, kernel=3, stride=1)
        back = col2im(cols.copy(), x.shape, kernel=3, stride=1)
        # centre pixels participate in more windows than corners
        assert back[0, 0, 0, 0] == 1.0
        assert back[0, 0, 1, 1] == 4.0

    def test_shapes(self):
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        cols = im2col(x, kernel=3, stride=2)
        assert cols.shape == (27, 2, 9)         # K-major: (C*k*k, N, L)


class TestConvForward:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((1, 1, 5, 5)).astype(
            np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.numpy(), x, rtol=1e-6)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w)).numpy()
        # naive triple loop
        expected = np.zeros((1, 3, 3, 3), dtype=np.float32)
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i:i + 3, j:j + 3]
                    expected[0, o, i, j] = (patch * w[o]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_stride_and_padding_shapes(self):
        x = Tensor(np.zeros((2, 3, 9, 9), dtype=np.float32))
        w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 5, 5)

    def test_depthwise_channel_independence(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), padding=1, groups=2).numpy()
        # channel 0 of output must not depend on channel 1 of input
        x2 = x.copy()
        x2[0, 1] = 0.0
        out2 = F.conv2d(Tensor(x2), Tensor(w), padding=1, groups=2).numpy()
        np.testing.assert_allclose(out[0, 0], out2[0, 0], rtol=1e-6)

    def test_groups_must_divide_channels(self):
        from repro.nn import Conv2d
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, np.random.default_rng(0), groups=2)


class TestPoolingForward:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_global_avgpool(self):
        x = np.ones((2, 3, 4, 4), dtype=np.float32)
        assert F.global_avg_pool2d(Tensor(x)).shape == (2, 3)


class TestBatchNorm:
    def test_training_normalizes(self):
        rng = np.random.default_rng(3)
        x = (5.0 + 3.0 * rng.standard_normal((64, 4))).astype(np.float32)
        out = F.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                           np.zeros(4, np.float32), np.ones(4, np.float32),
                           training=True).numpy()
        np.testing.assert_allclose(out.mean(0), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(0), 1.0, atol=1e-2)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(4)
        x = (2.0 + rng.standard_normal((128, 3))).astype(np.float32)
        mean = np.zeros(3, np.float32)
        var = np.ones(3, np.float32)
        F.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                     mean, var, training=True, momentum=1.0)
        np.testing.assert_allclose(mean, x.mean(0), rtol=1e-4)

    def test_eval_uses_running_stats(self):
        x = np.ones((4, 2), dtype=np.float32)
        mean = np.array([1.0, 1.0], np.float32)
        var = np.array([4.0, 4.0], np.float32)
        out = F.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           mean, var, training=False).numpy()
        np.testing.assert_allclose(out, 0.0, atol=1e-3)
        # eval mode must not touch running stats
        np.testing.assert_allclose(mean, [1.0, 1.0])


class TestSoftmaxLossDropout:
    def test_log_softmax_normalizes(self):
        x = Tensor(np.random.default_rng(5).standard_normal((6, 9)))
        probs = np.exp(F.log_softmax(x).numpy())
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_softmax_matches_exp_log_softmax(self):
        x = Tensor(np.random.default_rng(6).standard_normal((3, 4)))
        np.testing.assert_allclose(F.softmax(x).numpy(),
                                   np.exp(F.log_softmax(x).numpy()),
                                   rtol=1e-6)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 8), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(8), rel=1e-5)

    def test_cross_entropy_shift_invariant(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 6)).astype(np.float32)
        targets = np.array([1, 2, 3, 0])
        a = F.cross_entropy(Tensor(logits), targets).item()
        b = F.cross_entropy(Tensor(logits + 100.0), targets).item()
        assert a == pytest.approx(b, rel=1e-4)


class TestLinear:
    def test_linear_values(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]], dtype=np.float32))
        b = Tensor(np.array([1.0, -1.0], dtype=np.float32))
        np.testing.assert_allclose(F.linear(x, w, b).numpy(),
                                   [[12.0, 16.0]])
