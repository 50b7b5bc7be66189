"""A dropout layer for the tests: a layer that keeps a generator.

No zoo model holds random state, but the compiled step, the step arena
and the replica code must still handle a layer that does: its generator
is a leaf each replica resolves for itself, its stream must stay where
an eager step leaves it, and its ``p`` is configuration a plan bakes
in.  The mask is drawn through a kernel the INT8 step runs too:
stochastic rounding (:func:`repro.nn.kernels.fake_quant`, one draw per
element) of the keep probability ``1 - p`` onto the grid {0, 1} is 1
with probability ``1 - p``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import kernels as K
from repro.nn.modules import Module
from repro.nn.tensor import Tensor


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from ``rng``."""
    data = x.data
    keep = K.multiply(K.ones(data.shape), np.float32(1.0 - p))
    mask = K.fake_quant(keep, 1.0, 1, K.empty(data.shape, np.float32),
                        K.empty(data.shape, np.float64), rng,
                        K.empty(data.shape, np.bool_))
    K.divide(mask, np.float32(1.0 - p), out=mask)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(K.multiply(grad, mask))

    return Tensor._make(K.multiply(data, mask), (x,), backward)


class Dropout(Module):
    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, self.rng) if self.training else x
