"""Deep Gradient Compression: top-k + residual properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import DgcCompressor, SparseGradient


class TestSparseGradient:
    def test_densify_roundtrip(self):
        sparse = SparseGradient(indices=np.array([1, 3]),
                                values=np.array([2.0, -1.0],
                                                dtype=np.float32),
                                shape=(5,))
        np.testing.assert_allclose(sparse.densify(), [0, 2, 0, -1, 0])


class TestDgc:
    def test_keeps_largest_magnitudes(self):
        comp = DgcCompressor(ratio=0.25)
        grad = np.array([0.1, -5.0, 0.2, 3.0], dtype=np.float32)
        sparse = comp.compress("w", grad)
        assert len(sparse.indices) == 1
        assert sparse.values[0] == pytest.approx(-5.0)

    def test_residual_accumulates_dropped_mass(self):
        comp = DgcCompressor(ratio=0.25)
        grad = np.array([1.0, 10.0, 1.0, 1.0], dtype=np.float32)
        comp.compress("w", grad)
        # second round: the 1.0 entries have doubled in the residual sum
        sparse2 = comp.compress("w", grad)
        dense2 = sparse2.densify()
        assert dense2.max() == pytest.approx(10.0)  # fresh top value again

    def test_nothing_lost_over_rounds(self):
        """Conservation: transmitted + residual == total gradient mass."""
        comp = DgcCompressor(ratio=0.3)
        rng = np.random.default_rng(0)
        total_sent = np.zeros(20, dtype=np.float64)
        total_grad = np.zeros(20, dtype=np.float64)
        for _ in range(10):
            grad = rng.standard_normal(20).astype(np.float32)
            total_grad += grad
            total_sent += comp.compress("w", grad).densify()
        residual = comp._residuals["w"]
        np.testing.assert_allclose(total_sent + residual, total_grad,
                                   atol=1e-4)

    def test_ratio_one_sends_everything(self):
        comp = DgcCompressor(ratio=1.0)
        grad = np.random.default_rng(1).standard_normal(16).astype(np.float32)
        sparse = comp.compress("w", grad)
        np.testing.assert_allclose(sparse.densify(), grad, atol=1e-6)

    def test_min_keep_floor(self):
        comp = DgcCompressor(ratio=0.001, min_keep=2)
        sparse = comp.compress("w", np.ones(10, dtype=np.float32))
        assert len(sparse.indices) == 2

    def test_per_name_residuals_independent(self):
        comp = DgcCompressor(ratio=0.5)
        comp.compress("a", np.array([1.0, 2.0], dtype=np.float32))
        comp.compress("b", np.array([3.0, 4.0], dtype=np.float32))
        assert set(comp._residuals) == {"a", "b"}

    def test_invalid_ratio_raises(self):
        with pytest.raises(ValueError):
            DgcCompressor(ratio=0.0)

    @given(st.integers(0, 10_000), st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_nnz_matches_ratio(self, seed, ratio):
        comp = DgcCompressor(ratio=ratio)
        grad = np.random.default_rng(seed).standard_normal(100).astype(
            np.float32)
        sparse = comp.compress("w", grad)
        assert len(sparse.indices) == max(1, int(round(ratio * 100)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_multi_dim_shapes_preserved(self, seed):
        comp = DgcCompressor(ratio=0.1)
        grad = np.random.default_rng(seed).standard_normal(
            (4, 3, 2)).astype(np.float32)
        assert comp.compress("w", grad).densify().shape == (4, 3, 2)
