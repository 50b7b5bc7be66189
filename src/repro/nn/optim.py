"""The optimiser.

SoCFlow trains with standard SGD on the CPU path (the paper, §3.2) and
the INT8 path re-uses the same update rule on a quantised grid, so SGD
with momentum / weight decay covers every experiment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .flat import PlaneParameter
from .tensor import Tensor

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent with momentum and weight decay, as
    a handful of whole-model array ops on one module's fused storage.

    ``params`` are the parameters of one flattened module, all of them
    and in order; ``flat`` is its
    :class:`~repro.nn.flat.FlatParamBuffer`, found from the parameters
    when not given.  The update's scratch comes from ``flat``'s arena
    (nothing in it outlives a step, so the replicas of a run share
    it); only the momentum is this optimiser's own.
    """

    def __init__(self, params: Sequence[Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 flat=None):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if flat is None and self.params and isinstance(self.params[0],
                                                       PlaneParameter):
            flat = self.params[0]._flat()
        if flat is None or list(map(id, flat.param_tensors)) != list(
                map(id, self.params)):
            raise ValueError(
                "SGD updates every parameter of one flattened module, in "
                "order: pass module.parameters() of a module built by "
                "make_model or flattened with flatten_parameters()")
        self._flat = flat
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = (np.zeros(flat.layout.param_total, dtype=np.float32)
                          if momentum else None)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()
        self._flat.claim_grads()

    def step(self) -> None:
        """The update over ``flat``'s trainable runs (a frozen
        parameter's weights and momentum are left alone).  Every
        parameter that trains must hold its gradient in the plane:
        one claimed by another replica since ``zero_grad``, or missing,
        raises and nothing is applied.

        Scalar factors stay weak-typed float32 under NEP 50, so the
        whole-model ops round exactly as a loop over the parameters
        would.
        """
        flat = self._flat
        flat._lease.check()
        missing = flat.missing_grads()
        if missing:
            raise RuntimeError(
                f"no gradient in the plane for trainable parameters "
                f"{missing}: backward() reached none, or it was rebound")
        arena, layout = flat.arena, flat.layout
        for start, stop in flat.trainable_runs():
            grads = flat.grads[start:stop]
            params = flat.params[start:stop]
            scratch = arena.param_scratch(layout)[start:stop]
            eff, spare = grads, scratch     # spare: scratch ``eff`` is not in
            if self.weight_decay:
                np.multiply(params, self.weight_decay, out=scratch)
                scratch += grads
                eff, spare = scratch, None
            if self.momentum:
                velocity = self._velocity[start:stop]
                velocity *= self.momentum
                velocity += eff
                eff, spare = velocity, scratch
            step = np.multiply(eff, self.lr, out=eff if spare is None
                               else spare)
            params -= step

    def state_dict(self) -> dict:
        """The learning rate and one momentum array per parameter
        (``None`` each without momentum)."""
        if self._velocity is None:
            return {"lr": self.lr, "velocity": [None] * len(self.params)}
        return {"lr": self.lr, "velocity": [
            v.copy() for v in self._flat.layout.param_views(self._velocity)]}

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        if self._velocity is not None:
            for view, value in zip(
                    self._flat.layout.param_views(self._velocity),
                    state["velocity"]):
                view[...] = 0.0 if value is None else value
