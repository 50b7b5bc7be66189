"""Unit tests for the autograd Tensor: op semantics and graph mechanics."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_add_scalar_coercion(self):
        out = 2.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(out.numpy(), [3.0, 4.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_backward(self):
        a = Tensor([8.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-2.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [6.0])

    def test_neg_and_sub(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        (a - b).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0])
        np.testing.assert_allclose((10.0 - a).numpy(), [8.0])
        np.testing.assert_allclose((10.0 / a).numpy(), [5.0])


class TestBroadcasting:
    def test_add_broadcast_grad_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_mul_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 5, 3)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 1, 3)
        np.testing.assert_allclose(a.grad, 5.0 * np.ones((2, 1, 3)))

    def test_matmul_batched_broadcast(self):
        a = Tensor(np.random.default_rng(0).standard_normal((5, 2, 3)),
                   requires_grad=True)
        b = Tensor(np.random.default_rng(1).standard_normal((3, 4)),
                   requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (5, 2, 3)
        assert b.grad.shape == (3, 4)


class TestReductionsAndShaping:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.backward(np.ones((2, 1)))
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_scales_gradient(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, 0.25 * np.ones(4))

    def test_mean_multi_axis(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1 / 12))

    def test_reshape_roundtrip_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose_gradient(self):
        a = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4)),
                   requires_grad=True)
        a.transpose(2, 0, 1).sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_getitem_scatter_gradient(self):
        a = Tensor(np.zeros((5,)), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0, 1.0, 0, 0])

    def test_concatenate_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)

    def test_pad2d_gradient_strips_padding(self):
        a = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        out = a.pad2d(2)
        assert out.shape == (1, 1, 7, 7)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((1, 1, 3, 3)))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_pad2d_matches_np_pad_bit_for_bit(self, fortran):
        """``np.pad`` is the reference: same values, dtype and layout."""
        x = np.random.default_rng(0).standard_normal(
            (16, 38, 4, 4)).astype(np.float32)
        if fortran:
            x = np.asfortranarray(x)
        for p in (1, 3):
            want = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
            got = Tensor(x).pad2d(p).data
            assert got.dtype == want.dtype and got.strides == want.strides
            assert np.array_equal(got, want)


class TestNonlinearities:
    def test_relu_masks_gradient(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_exp_log_sqrt_tanh_sigmoid_values(self):
        x = np.array([0.5, 1.5], dtype=np.float32)
        a = Tensor(x)
        np.testing.assert_allclose(a.exp().numpy(), np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(a.log().numpy(), np.log(x), rtol=1e-6)
        np.testing.assert_allclose(a.sqrt().numpy(), np.sqrt(x), rtol=1e-6)
        np.testing.assert_allclose(a.tanh().numpy(), np.tanh(x), rtol=1e-6)
        np.testing.assert_allclose(a.sigmoid().numpy(),
                                   1 / (1 + np.exp(-x)), rtol=1e-6)

    def test_clip_gradient_mask(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_ties_split_gradient(self):
        a = Tensor([3.0, 3.0, 1.0], requires_grad=True)
        a.max().backward(np.array(1.0))
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0.0])


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2,)), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_gradient_accumulates_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).backward(np.ones(1))  # d(a^2)/da = 2a
        np.testing.assert_allclose(a.grad, [4.0])

    def test_diamond_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2
        c = a * 3
        (b + c).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [5.0])

    def test_no_grad_blocks_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores_on_exception(self):
        from repro.nn.tensor import is_grad_enabled
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_detach_and_copy(self):
        a = Tensor([1.0], requires_grad=True)
        assert not a.detach().requires_grad
        c = a.copy()
        assert c.requires_grad
        c.data[0] = 9.0
        assert a.data[0] == 1.0

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward(np.ones(1))
        a.zero_grad()
        assert a.grad is None

    def test_repr_and_len_and_item(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        assert "requires_grad" in repr(a)
        assert len(a) == 3
        assert Tensor([2.5]).item() == pytest.approx(2.5)

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [1.0])
