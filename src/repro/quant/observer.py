"""The range observer that tracks a quantisation scale across steps.

A fixed per-batch max-abs scale is noisy; production INT8 training
tracks ranges with a running estimate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmaObserver"]


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
