"""Range observer behaviour."""

import numpy as np
import pytest

from repro.quant import EmaObserver


class TestEma:
    def test_first_observation_sets_scale(self):
        obs = EmaObserver(127, momentum=0.9)
        obs.observe(np.array([1.27]))
        assert obs.scale == pytest.approx(0.01)

    def test_ema_update(self):
        obs = EmaObserver(127, momentum=0.5)
        obs.observe(np.array([2.0]))
        obs.observe(np.array([4.0]))
        assert obs.scale == pytest.approx(3.0 / 127)

    def test_zero_signal_safe(self):
        obs = EmaObserver(127)
        obs.observe(np.zeros(4))
        assert obs.scale == 1.0

    def test_invalid_momentum_raises(self):
        with pytest.raises(ValueError):
            EmaObserver(127, momentum=1.0)
