"""Optimisers and learning-rate schedules.

SoCFlow trains with standard SGD on the CPU path (the paper, §3.2) and
the INT8 path re-uses the same update rule on a quantised grid, so SGD
with momentum / weight decay covers every experiment.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["SGD", "Adam", "StepLR", "CosineAnnealingLR", "ConstantLR"]


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 nesterov: bool = False, flat=None):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)
        self._flat = None
        self._flat_velocity: np.ndarray | None = None
        if flat is not None:
            self.bind_flat(flat)

    def bind_flat(self, flat) -> bool:
        """Bind a :class:`~repro.nn.flat.FlatParamBuffer` for fused
        in-place updates.

        When every optimised parameter is (in order) a tensor of
        ``flat``, ``step`` collapses to a handful of whole-model array
        ops with no per-step temporaries — bit-identical to the
        per-parameter loop, which remains as the fallback whenever a
        trainable parameter's gradient is missing or was rebound away
        from the fused buffer.
        The update's scratch comes from ``flat``'s arena (nothing in it
        outlives a step, so the replicas of a run share it); only the
        momentum is this optimiser's own.
        Returns True when the binding took effect (or already had).
        """
        if flat is self._flat:
            return True
        if len(self.params) != len(flat.param_tensors):
            return False
        for mine, theirs in zip(self.params, flat.param_tensors):
            if mine is not theirs:
                return False
        self._flat = flat
        if self.momentum:
            previous = self._velocity
            self._flat_velocity = np.zeros(flat.layout.param_total,
                                           dtype=np.float32)
            # The slow path mutates these views, so both paths always
            # share one coherent velocity state.
            self._velocity = flat.layout.param_views(self._flat_velocity)
            # Re-binding (the module re-fused its storage mid-run)
            # carries the momentum accumulated so far.
            for view, value in zip(self._velocity, previous):
                if value is not None:
                    view[...] = value
        return True

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()
        if self._flat is not None:
            self._flat.claim_grads()

    def step(self) -> None:
        flat = self._flat
        if flat is not None and flat.is_intact() and flat.grads_ready():
            self._fused_step(flat)
            return
        # Reading ``.grad`` of a parameter whose gradient plane another
        # replica has claimed since raises: nothing is applied.
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(param.data)
                velocity = self._velocity[i]
                velocity *= self.momentum
                velocity += grad
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * grad

    def _fused_step(self, flat) -> None:
        """The update on the fused buffers, over ``flat``'s trainable
        runs (a frozen parameter's weights and momentum are left alone,
        as the per-parameter loop leaves them).

        Runs the exact elementwise operations of that loop over the
        concatenated storage (scalar factors stay weak-typed float32
        under NEP 50), so results match bit for bit.
        """
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
                velocity = self._flat_velocity[start:stop]
                velocity *= self.momentum
                velocity += eff
                if self.nesterov:
                    if spare is None:
                        spare = arena.param_scratch(layout, slot=1)[start:stop]
                    np.multiply(velocity, self.momentum, out=spare)
                    spare += eff
                    eff, spare = spare, None
                else:
                    eff, spare = velocity, scratch
            step = np.multiply(eff, self.lr, out=eff if spare is None
                               else spare)
            params -= step

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "velocity": [None if v is None else v.copy() for v in self._velocity],
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        if self._flat_velocity is not None:
            for view, value in zip(self._velocity, state["velocity"]):
                view[...] = 0.0 if value is None else value
        else:
            self._velocity = [None if v is None else v.copy()
                              for v in state["velocity"]]


class Adam:
    """Adam (Kingma & Ba) — used by the Transformer extension (§5).

    The paper's CNN experiments all use SGD; newer NPUs make training
    Transformers on SoC-Clusters plausible, and those need Adam.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: list[np.ndarray | None] = [None] * len(self.params)
        self._v: list[np.ndarray | None] = [None] * len(self.params)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._step
        bias2 = 1.0 - beta2 ** self._step
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(param.data)
                self._v[i] = np.zeros_like(param.data)
            m, v = self._m[i], self._v[i]
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _Scheduler:
    def __init__(self, optimizer: SGD):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self.get_lr()

    def get_lr(self) -> float:
        raise NotImplementedError


class ConstantLR(_Scheduler):
    def get_lr(self) -> float:
        return self.base_lr


class StepLR(_Scheduler):
    def __init__(self, optimizer: SGD, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** (self.epoch // self.step_size)


class CosineAnnealingLR(_Scheduler):
    def __init__(self, optimizer: SGD, total_epochs: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def get_lr(self) -> float:
        progress = min(self.epoch / self.total_epochs, 1.0)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * progress))
