"""Alpha/beta metrics and the Eq. 5 weight merge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.models.registry import build_model
from repro.quant import (MixedPrecisionController, compute_alpha,
                         compute_beta, cpu_fraction, merge_weights)

from ..flat_reference import flat_state, per_key_merge


class TestAlpha:
    def test_identical_logits_give_one(self):
        logits = np.random.default_rng(0).standard_normal((8, 10))
        assert compute_alpha(logits, logits) == pytest.approx(1.0)

    def test_opposite_logits_give_minus_one(self):
        logits = np.random.default_rng(1).standard_normal((8, 10))
        assert compute_alpha(logits, -logits) == pytest.approx(-1.0)

    def test_orthogonal_logits_near_zero(self):
        a = np.zeros((1, 2)); a[0, 0] = 1.0
        b = np.zeros((1, 2)); b[0, 1] = 1.0
        assert compute_alpha(a, b) == pytest.approx(0.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((4, 6))
        assert compute_alpha(a, b) == pytest.approx(
            compute_alpha(10 * a, 0.1 * b))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_alpha(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_zero_logits_safe(self):
        assert compute_alpha(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


class TestBeta:
    def test_equal_speed_gives_half(self):
        assert compute_beta(1.0, 1.0) == pytest.approx(0.5)

    def test_faster_npu_gets_more(self):
        # NPU 4x faster -> beta = 0.8 -> NPU receives 80% of the batch
        assert compute_beta(t_cpu=0.4, t_npu=0.1) == pytest.approx(0.8)

    def test_invalid_latency_raises(self):
        with pytest.raises(ValueError):
            compute_beta(0.0, 1.0)


class TestCpuFraction:
    def test_rule_is_max_of_both_terms(self):
        assert cpu_fraction(alpha=1.0, beta=0.9) == pytest.approx(
            math.exp(-1.0))
        assert cpu_fraction(alpha=1.0, beta=0.1) == pytest.approx(0.9)

    def test_low_alpha_forces_cpu(self):
        assert cpu_fraction(alpha=0.0, beta=0.99) == pytest.approx(1.0)

    @given(st.floats(-1, 1), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_always_a_valid_fraction(self, alpha, beta):
        f = cpu_fraction(alpha, beta)
        assert 0.0 <= f <= 1.0
        # Eq. 5 floor: the CPU share never drops below e^-1 when alpha<=1
        assert f >= math.exp(-1.0) - 1e-9


class TestMergeWeights:
    def test_eq5_coefficients(self):
        w_fp = flat_state(w=np.array([1.0], dtype=np.float32))
        w_i8 = flat_state(w=np.array([3.0], dtype=np.float32))
        merged = merge_weights(w_fp, w_i8, alpha=0.0)  # e^0 = 1 -> all fp32
        np.testing.assert_allclose(merged["w"], [1.0])

    def test_alpha_one_favours_int8(self):
        w_fp = flat_state(w=np.array([0.0], dtype=np.float32))
        w_i8 = flat_state(w=np.array([1.0], dtype=np.float32))
        merged = merge_weights(w_fp, w_i8, alpha=1.0)
        np.testing.assert_allclose(merged["w"], [1.0 - math.exp(-1.0)],
                                   rtol=1e-6)

    def test_merge_identical_states_is_identity(self):
        state = flat_state(a=np.random.default_rng(0).standard_normal(5)
                           .astype(np.float32))
        merged = merge_weights(state, state, alpha=0.5)
        np.testing.assert_allclose(merged["a"], state["a"], rtol=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.37, 1.0])
    def test_fused_merge_equals_per_key_merge(self, alpha):
        """The whole-model merge against its per-key twin
        (``tests/flat_reference.py``), bit for bit; inputs untouched."""
        kwargs = dict(num_classes=10, in_channels=1, image_size=16)
        w_fp = build_model("lenet5", seed=0, **kwargs).state_dict()
        w_i8 = build_model("lenet5", seed=1, **kwargs).state_dict()
        before = w_fp.flat.copy(), w_i8.flat.copy()
        merged = merge_weights(w_fp, w_i8, alpha)
        expected = per_key_merge(w_fp, w_i8, alpha)
        assert list(merged) == list(expected)
        for key in expected:
            assert np.array_equal(merged[key], expected[key]), key
        assert np.array_equal(w_fp.flat, before[0])
        assert np.array_equal(w_i8.flat, before[1])

    def test_plain_dicts_are_refused(self):
        w = {"w": np.array([1.0], dtype=np.float32)}
        with pytest.raises(TypeError, match="not a FlatState"):
            merge_weights(w, w, alpha=0.5)


class TestController:
    def make(self):
        return MixedPrecisionController(t_cpu=0.14, t_npu=0.036)

    def test_beta_from_latencies(self):
        ctrl = self.make()
        assert ctrl.beta == pytest.approx(0.14 / 0.176)

    def test_split_batch_sums(self):
        ctrl = self.make()
        cpu, npu = ctrl.split_batch(64)
        assert cpu + npu == 64
        assert cpu >= int(64 * math.exp(-1.0)) - 1

    def test_update_alpha_records_history(self):
        ctrl = self.make()
        logits = np.random.default_rng(0).standard_normal((4, 3))
        ctrl.update_alpha(logits, logits + 0.01)
        assert len(ctrl.history) == 1
        assert ctrl.alpha > 0.9

    def test_step_time_parallel_processors(self):
        ctrl = self.make()
        ctrl.alpha = 1.0
        cpu, npu = ctrl.split_batch(64)
        expected = max(cpu * 0.14, npu * 0.036)
        assert ctrl.step_time(64) == pytest.approx(expected)

    def test_low_alpha_slows_but_protects_accuracy(self):
        ctrl = self.make()
        ctrl.alpha = 0.01
        cpu, _ = ctrl.split_batch(100)
        assert cpu >= 98  # nearly everything on the CPU
