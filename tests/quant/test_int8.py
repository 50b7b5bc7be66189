"""Quantisation primitive properties (deterministic + hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quant import (QuantConfig, dequantize, fake_quantize, quantize,
                         quantization_error)


class TestConfig:
    def test_qmax_for_8_bits(self):
        assert QuantConfig(bits=8).qmax == 127

    def test_qmax_for_4_bits(self):
        assert QuantConfig(bits=4).qmax == 7

    def test_frozen(self):
        with pytest.raises(Exception):
            QuantConfig().bits = 4

    @pytest.mark.parametrize("bits", [-8, 0, 1, 17, 32])
    def test_widths_the_kernel_cannot_honour_are_rejected(self, bits):
        """One bit has no grid (``qmax == 0`` divided by inside the
        step); past 16 float32 no longer holds ±qmax exactly and the
        int32 reference overflows (32 bits flipped signs)."""
        with pytest.raises(ValueError, match="between 2 and 16"):
            QuantConfig(bits=bits)

    @pytest.mark.parametrize("bits", [2, 16])
    def test_both_ends_of_the_supported_range_round_trip(self, bits):
        config = QuantConfig(bits=bits, stochastic_rounding=False)
        x = np.array([1.0, -0.5, 0.25, 0.0], dtype=np.float32)
        out = fake_quantize(x, config)
        assert np.array_equal(out, dequantize(
            quantize(x, 1.0 / config.qmax, config.qmax), 1.0 / config.qmax))
        assert np.array_equal(np.sign(out), np.sign(np.rint(x * config.qmax)))


class TestQuantizeDequantize:
    def test_grid_values_exact(self):
        x = np.array([0.0, 0.5, -0.5, 1.0], dtype=np.float32)
        q = quantize(x, scale=1.0 / 127, qmax=127)
        np.testing.assert_array_equal(q, [0, 64, -64, 127])

    def test_clipping_to_qmax(self):
        x = np.array([10.0], dtype=np.float32)
        q = quantize(x, scale=0.01, qmax=127)
        assert q[0] == 127

    def test_dequantize_inverse_on_grid(self):
        q = np.array([-127, 0, 64], dtype=np.int32)
        x = dequantize(q, scale=0.02)
        np.testing.assert_allclose(x, [-2.54, 0.0, 1.28], rtol=1e-6)

    def test_zero_tensor_stable(self):
        x = np.zeros((5,), dtype=np.float32)
        cfg = QuantConfig(stochastic_rounding=False)
        np.testing.assert_array_equal(fake_quantize(x, cfg), x)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_error_bounded_by_half_step(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64).astype(np.float32)
        cfg = QuantConfig(stochastic_rounding=False)
        out = fake_quantize(x, cfg)
        step = np.abs(x).max() / cfg.qmax
        assert np.abs(out - x).max() <= 0.5 * step + 1e-7

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32).astype(np.float32)
        cfg = QuantConfig(stochastic_rounding=False)
        once = fake_quantize(x, cfg)
        twice = fake_quantize(once, cfg)
        np.testing.assert_allclose(once, twice, atol=1e-6)


class TestStochasticRounding:
    def test_unbiased_in_expectation(self):
        rng = np.random.default_rng(0)
        x = np.full(200_000, 0.3 * 0.02, dtype=np.float32)  # 0.3 of a step
        q = quantize(x, scale=0.02, qmax=127, rng=rng)
        assert q.mean() == pytest.approx(0.3, abs=0.01)

    def test_exact_values_not_perturbed(self):
        rng = np.random.default_rng(0)
        x = np.array([0.04, -0.02, 0.0], dtype=np.float32)
        q = quantize(x, scale=0.02, qmax=127, rng=rng)
        np.testing.assert_array_equal(q, [2, -1, 0])


class TestFp16Format:
    def test_fp16_roundtrip(self):
        x = np.array([1.0, 0.333333, 1e-5], dtype=np.float32)
        out = fake_quantize(x, QuantConfig(float16=True))
        np.testing.assert_allclose(
            out, x.astype(np.float16).astype(np.float32))

    def test_fp16_error_below_int8(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000).astype(np.float32)
        fp16_err = quantization_error(x, QuantConfig(float16=True))
        int8_err = quantization_error(
            x, QuantConfig(stochastic_rounding=False))
        assert fp16_err < int8_err

    def test_format_name(self):
        assert QuantConfig().format_name == "int8"
        assert QuantConfig(bits=4).format_name == "int4"
        assert QuantConfig(float16=True).format_name == "fp16"

    def test_ste_cast_fp16_gradient_identity(self):
        from repro.nn import Tensor
        from repro.quant import ste_cast_fp16
        x = Tensor(np.array([0.1, 0.2], dtype=np.float32),
                   requires_grad=True)
        ste_cast_fp16(x).backward(np.array([3.0, 4.0], dtype=np.float32))
        np.testing.assert_allclose(x.grad, [3.0, 4.0])


class TestQuantizationError:
    def test_zero_for_zero_tensor(self):
        assert quantization_error(np.zeros(4, np.float32),
                                  QuantConfig()) == 0.0

    def test_small_relative_error_for_8_bits(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000).astype(np.float32)
        err = quantization_error(x, QuantConfig(stochastic_rounding=False))
        assert err < 0.02

    def test_fewer_bits_more_error(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000).astype(np.float32)
        err8 = quantization_error(x, QuantConfig(bits=8,
                                                 stochastic_rounding=False))
        err4 = quantization_error(x, QuantConfig(bits=4,
                                                 stochastic_rounding=False))
        assert err4 > 5 * err8
