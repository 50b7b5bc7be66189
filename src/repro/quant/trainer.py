"""The INT8 training loop wrapper (simulated NPU execution).

:class:`Int8Trainer` drives a model exactly like FP32 SGD but forces
the quantisation error sources of integer training:

- the *forward/backward pass* runs on weights snapped to the INT8 grid
  and on INT8-quantised inputs,
- *gradients* are quantised (stochastically rounded, as NITI does)
  before the update,
- FP32 master weights absorb the updates, exactly like integer training
  schemes keep higher-precision accumulators so that sub-grid updates
  are not erased.

This reproduces the error-accumulation behaviour the paper measures
(Figure 4c: 5.94–8.25% accuracy drop at 32 SoCs) without integer-only
kernels, which are irrelevant to the learning dynamics.
"""

from __future__ import annotations

import numpy as np

from ..nn.modules import Module
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from ..nn import functional as F
from .int8 import Int8StepScratch, QuantConfig, fake_quantize
from .observer import EmaObserver

__all__ = ["Int8Trainer"]


class Int8Trainer:
    """Run SGD steps with INT8 fake-quantised weights/activations/grads.

    On a flattened model the weight snapshot, both quantisation stages
    and the clip run in place through the arena's pooled
    :class:`~repro.quant.int8.Int8StepScratch` (``arena``: the run's
    :class:`~repro.nn.arena.StepArena` when this trainer is one replica
    of a run; the model's own otherwise), so a step allocates nothing
    parameter-sized and the trainer keeps only weights, momentum, its
    RNG and the observers.
    """

    def __init__(self, model: Module, lr: float, config: QuantConfig,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 seed: int = 0, max_grad_norm: float | None = 2.0,
                 arena=None):
        self.model = model
        self.config = config
        self.max_grad_norm = max_grad_norm
        self.optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                             weight_decay=weight_decay)
        self.rng = np.random.default_rng(seed)
        self._graph_exec = None
        self._input_observer = EmaObserver(config.qmax)
        if config.quantize_activations:
            from .ste import attach_activation_quant
            attach_activation_quant(model, config)
        flat = model.flatten_parameters(arena)
        if flat is not None:
            self.optimizer.bind_flat(flat)

    def _flat(self):
        flat = self.model._flat
        if flat is not None and flat.is_intact():
            return flat
        return None

    def _scratch(self, flat) -> Int8StepScratch:
        return Int8StepScratch.pooled(flat.arena, flat.layout, self.config)

    # ------------------------------------------------------------------
    def _quantized_weights(self):
        """Snap weights onto the INT8 grid, returning the FP32 masters.

        On a flattened model this is one fused in-place pass over the
        contiguous parameter region (the masters are the arena's pooled
        snapshot, valid until the next replica's step); the
        per-parameter loop remains for unflattened models.
        """
        flat = self._flat()
        if flat is not None:
            scratch = self._scratch(flat)
            np.copyto(scratch.masters, flat.params)
            if self.config.quantize_weights:
                scratch.quant(flat.params)
            return scratch.masters
        masters: list[np.ndarray] = []
        for param in self.model.parameters():
            masters.append(param.data)
            if self.config.quantize_weights:
                param.data = fake_quantize(param.data, self.config)
        return masters

    def _restore_weights(self, masters) -> None:
        if isinstance(masters, np.ndarray):       # fused snapshot
            self.model._flat.params[...] = masters
            return
        for param, master in zip(self.model.parameters(), masters):
            param.data = master

    def _quantize_input(self, x: np.ndarray) -> np.ndarray:
        if not self.config.quantize_activations:
            return x
        self._input_observer.observe(x)
        return fake_quantize(x, self.config,
                             scale=self._input_observer.scale)

    # ------------------------------------------------------------------
    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One SGD step on the INT8 path; returns the batch loss."""
        if self._graph_exec is not None:
            return self._graph_exec.step(inputs, targets)
        return self._eager_step(np.asarray(inputs, dtype=np.float32),
                                np.asarray(targets))

    def _eager_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """The uncompiled step: build the autograd tape every time."""
        self.model.train()
        self.optimizer.zero_grad()
        masters = self._quantized_weights()
        x = Tensor(self._quantize_input(inputs))
        logits = self.model(x)
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        return self._finish_step(loss, masters)

    def _finish_step(self, loss, masters) -> float:
        """Post-backward tail shared by the eager step and graph capture:
        master restore, clip, gradient quantisation, optimiser step."""
        self._restore_weights(masters)
        flat = self._flat()
        # Fused: clip and quantise this replica's complete gradient in
        # place on the plane, so the fused SGD step stays armed.
        scratch = (self._scratch(flat)
                   if flat is not None and flat.grads_ready() else None)
        if self.max_grad_norm is not None:
            if scratch is not None:
                scratch.clip(flat.grads, self.max_grad_norm)
            else:
                self._clip_gradients()
        if self.config.quantize_gradients:
            rng = self.rng if self.config.stochastic_rounding else None
            if scratch is not None:
                scratch.quant(flat.grads, rng=rng)
            else:
                for param in self.model.parameters():
                    if param.grad is not None:
                        param.grad = fake_quantize(param.grad, self.config,
                                                   rng=rng)
        self.optimizer.step()
        return loss.item()

    def _clip_gradients(self) -> None:
        """Global-norm gradient clipping: integer-training schemes bound
        the gradient scale so quantisation noise cannot self-amplify."""
        total = 0.0
        grads = [p.grad for p in self.model.parameters() if p.grad is not None]
        for grad in grads:
            total += float(np.sum(grad.astype(np.float64) ** 2))
        norm = np.sqrt(total)
        if norm > self.max_grad_norm:
            scale = self.max_grad_norm / norm
            for grad in grads:
                grad *= scale

    # ------------------------------------------------------------------
    def enable_graph_executor(self, max_programs: int = 8,
                              fuse: bool = True, arena=None):
        """Compile-and-replay the INT8 step via the graph executor.

        Mirrors ``Module.enable_graph_executor`` but wraps the *whole*
        trainer step (weight/input/gradient quantisation included), not
        just forward/backward.  ``arena`` is the run's
        :class:`~repro.nn.arena.StepArena` (replicas of one run compile
        once and share a workspace).  Idempotent."""
        from ..nn.graph import attach_int8_graph_executor
        return attach_int8_graph_executor(self, max_programs=max_programs,
                                          fuse=fuse, arena=arena)

    def disable_graph_executor(self) -> None:
        self._graph_exec = None

    def graph_stats(self) -> dict | None:
        if self._graph_exec is None:
            return None
        return self._graph_exec.snapshot()

    # ------------------------------------------------------------------
    def _activation_observers(self):
        observers = []
        for module in self.model.modules():
            quant = getattr(module, "output_quant", None)
            if quant is not None and hasattr(quant, "observer"):
                observers.append(quant.observer)
        return observers

    def runtime_state(self) -> dict:
        """Everything needed to resume this trainer bit-identically in
        another process: weights, optimiser velocity, the stochastic-
        rounding RNG stream and every EMA range observer."""
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "rng": self.rng.bit_generator.state,
            "input_ema": self._input_observer._ema,
            "activation_emas": [o._ema for o in self._activation_observers()],
        }

    def load_runtime_state(self, state: dict) -> None:
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.rng.bit_generator.state = state["rng"]
        self._input_observer._ema = state["input_ema"]
        for observer, ema in zip(self._activation_observers(),
                                 state["activation_emas"]):
            observer._ema = ema

    def predict_logits(self, inputs: np.ndarray) -> np.ndarray:
        """Inference logits through the quantised model."""
        self.model.eval()
        masters = self._quantized_weights()
        try:
            with no_grad():
                x = Tensor(self._quantize_input(
                    np.asarray(inputs, dtype=np.float32)))
                return self.model(x).data
        finally:
            self._restore_weights(masters)

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value
