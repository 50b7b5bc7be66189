"""Range observers that track quantisation scales across steps.

A fixed per-batch max-abs scale is noisy; production INT8 training
tracks ranges with a running estimate.  Both variants are provided and
ablatable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MinMaxObserver", "EmaObserver"]


class MinMaxObserver:
    """Scale = running max of |x| / qmax (never shrinks)."""

    def __init__(self, qmax: int):
        self.qmax = qmax
        self._peak = 0.0

    def observe(self, x: np.ndarray) -> None:
        self._peak = max(self._peak, float(np.abs(x).max()))

    @property
    def scale(self) -> float:
        return self._peak / self.qmax if self._peak > 0 else 1.0


class EmaObserver:
    """Scale from an exponential moving average of the batch peak."""

    def __init__(self, qmax: int, momentum: float = 0.95):
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.qmax = qmax
        self.momentum = momentum
        self._ema: float | None = None

    def observe(self, x: np.ndarray) -> None:
        self.update(float(np.abs(x).max()))

    def update(self, peak: float) -> None:
        """Fold one batch peak into the EMA.

        Split out of :meth:`observe` so a caller that already holds
        the batch peak (the ``fake_quant`` kernel reduces it in a
        scratch buffer) runs the *same* EMA arithmetic.
        """
        if self._ema is None:
            self._ema = peak
        else:
            self._ema = self.momentum * self._ema + (1 - self.momentum) * peak

    @property
    def scale(self) -> float:
        if self._ema is None or self._ema == 0.0:
            return 1.0
        return self._ema / self.qmax
