"""Initializer statistics and validation."""

import math

import numpy as np
import pytest

from repro.nn import init


class TestKaiming:
    def test_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_uniform((64, 128), rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 128)
        assert np.abs(w).max() <= bound + 1e-6

    def test_normal_std(self):
        rng = np.random.default_rng(1)
        w = init.kaiming_normal((256, 512), rng)
        assert w.std() == pytest.approx(math.sqrt(2.0 / 512), rel=0.05)

    def test_conv_fan_in(self):
        rng = np.random.default_rng(2)
        w = init.kaiming_normal((32, 16, 3, 3), rng)
        assert w.std() == pytest.approx(math.sqrt(2.0 / (16 * 9)), rel=0.05)


class TestMisc:
    def test_zeros_ones_dtype(self):
        assert init.zeros((3,)).dtype == np.float32
        assert init.ones((3,)).sum() == 3.0

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            init.kaiming_uniform((3,), np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        a = init.kaiming_uniform((8, 8), np.random.default_rng(7))
        b = init.kaiming_uniform((8, 8), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
