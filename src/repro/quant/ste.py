"""Straight-through-estimator quantisation inside the autograd graph.

Real INT8 training quantises *every layer's* activations, not just the
input; :func:`ste_quantize` snaps a tensor onto the INT8 grid in the
forward pass while passing gradients through unchanged (the standard
STE).  :func:`attach_activation_quant` retrofits a model so each
Conv2d/Linear output is quantised with its own EMA-tracked scale, via
the layers' explicit ``output_quant`` hook (state-dict keys unchanged).
"""

from __future__ import annotations

import numpy as np

from ..nn import kernels as K
from ..nn.modules import Conv2d, Linear, Module
from ..nn.tensor import Tensor
from .int8 import QuantConfig
from .observer import EmaObserver

__all__ = ["ste_quantize", "ste_cast_fp16", "ActivationQuantizer",
           "attach_activation_quant"]


def _straight_through(x: Tensor, data: np.ndarray) -> Tensor:
    """``data`` as an op result whose gradient passes to ``x`` as is."""
    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad)

    return Tensor._make(data, (x,), backward)


def ste_quantize(x: Tensor, scale, qmax: int) -> Tensor:
    """Forward: snap to the INT8 grid; backward: identity gradient.

    ``scale`` is a fixed float, or a range observer
    (:class:`~repro.quant.observer.EmaObserver`): the kernel then
    observes ``x`` and quantises with the scale it reads back, on every
    eager step and every replay of a compiled one alike, so EMA scale
    drift does not force a recapture.
    """
    data = x.data
    return _straight_through(x, K.fake_quant(
        data, scale, qmax, K.empty(data.shape, np.float32),
        K.empty(data.shape, np.float64)))


def ste_cast_fp16(x: Tensor) -> Tensor:
    """Forward: round-trip through IEEE float16; backward: identity."""
    data = x.data
    return _straight_through(x, K.fp16_round_trip(
        data, K.empty(data.shape, np.float16)))


class ActivationQuantizer:
    """Per-layer INT8 activation quantiser with an EMA-tracked scale."""

    def __init__(self, config: QuantConfig):
        self.config = config
        self.observer = EmaObserver(config.qmax)

    def __call__(self, out: Tensor) -> Tensor:
        if self.config.float16:
            return ste_cast_fp16(out)
        return ste_quantize(out, self.observer, self.config.qmax)


def attach_activation_quant(model: Module, config: QuantConfig) -> int:
    """Give every Conv2d/Linear its own quantiser; returns the count."""
    attached = 0
    for module in model.modules():
        if isinstance(module, (Conv2d, Linear)):
            module.output_quant = ActivationQuantizer(config)
            attached += 1
    return attached
