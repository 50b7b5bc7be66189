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

from ..nn.graph import attach_graph_executor, train_step
from ..nn.modules import Module
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from .int8 import (Int8StepScratch, QuantConfig, fake_quantize,
                   fake_quantize_observed)
from .observer import EmaObserver

__all__ = ["Int8Trainer"]


class Int8Trainer:
    """Run SGD steps with INT8 fake-quantised weights/activations/grads.

    The step itself is :func:`repro.nn.graph.train_step`; the trainer
    is its ``stages``: :meth:`before` (master snapshot, weights and
    input onto the grid) and :meth:`after` (masters back, clip,
    gradient quantisation) around the forward/backward every replica
    shares.  On a flattened model both run in place through the
    arena's pooled :class:`~repro.quant.int8.Int8StepScratch`
    (``arena``: the run's :class:`~repro.nn.arena.StepArena` when this
    trainer is one replica of a run; the model's own otherwise), so a
    step allocates nothing parameter-sized and the trainer keeps only
    weights, momentum, its RNG and the observers.
    """

    #: arena/metrics label of this trainer's compiled steps
    precision = "int8"

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
        self._bound: tuple | None = None    # (flat, before, after, scratch)
        self._masters: list[np.ndarray] = []
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

    # ------------------------------------------------------------------
    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One SGD step on the INT8 path; returns the batch loss."""
        return train_step(self.model, self.optimizer, inputs, targets,
                          stages=self)

    # -- the stages of the step ------------------------------------------
    def bind(self, flat) -> tuple:
        """``(before, after, scratch)``: the fused stages over
        ``flat``'s storage and its arena's pooled scratch.

        Made once per storage and run by eager and compiled steps
        alike — a replay calls them with no intactness check or arena
        lookup of its own.  ``before(x, out, wide)`` fills a compiled
        plan's input buffer; eagerly it allocates the result.
        """
        if self._bound is None or self._bound[0] is not flat:
            config, max_norm = self.config, self.max_grad_norm
            scratch = Int8StepScratch.pooled(flat.arena, flat.layout, config)
            params, grads, masters = flat.params, flat.grads, scratch.masters
            quant, clip = scratch.quant, scratch.clip
            observer = (self._input_observer if config.quantize_activations
                        else None)
            rng = self.rng if config.stochastic_rounding else None

            def before(x, out=None, wide=None):
                # the masters are the arena's pooled snapshot, valid
                # until the next replica's step
                np.copyto(masters, params)
                if config.quantize_weights:
                    quant(params)
                return fake_quantize_observed(x, observer, config, out,
                                              wide)

            def after():
                np.copyto(params, masters)
                if max_norm is not None:
                    clip(grads, max_norm)
                if config.quantize_gradients:
                    quant(grads, rng=rng)

            self._bound = (flat, before, after, scratch)
        return self._bound[1:]

    def before(self, x: np.ndarray) -> np.ndarray:
        """Ahead of the forward pass: keep the FP32 masters, snap the
        weights onto the grid; returns the observed, quantised input.

        The per-parameter loop serves unflattened (or rebound) models
        and is the reference the fused stages are tested against.
        """
        flat = self._flat()
        if flat is not None:
            return self.bind(flat)[0](x)
        config = self.config
        self._masters = [param.data for param in self.model.parameters()]
        if config.quantize_weights:
            for param in self.model.parameters():
                param.data = fake_quantize(param.data, config)
        return fake_quantize_observed(
            x, self._input_observer if config.quantize_activations else None,
            config)

    def after(self) -> None:
        """Between backward and the update: masters back, global-norm
        clip, gradient quantisation.

        Fused when this replica's complete gradient sits on the plane
        (so the fused SGD step stays armed); per parameter otherwise —
        an unflattened model, or one whose frozen backbone received no
        gradient.
        """
        flat = self._flat()
        if flat is not None and flat.grads_ready():
            self.bind(flat)[1]()
            return
        self._restore(flat)
        config = self.config
        grads = [p.grad for p in self.model.parameters()
                 if p.grad is not None]
        if self.max_grad_norm is not None:
            # integer-training schemes bound the gradient scale so
            # quantisation noise cannot self-amplify
            total = 0.0
            for grad in grads:
                total += float(np.sum(grad.astype(np.float64) ** 2))
            norm = np.sqrt(total)
            if norm > self.max_grad_norm:
                scale = self.max_grad_norm / norm
                for grad in grads:
                    grad *= scale
        if config.quantize_gradients:
            rng = self.rng if config.stochastic_rounding else None
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad = fake_quantize(param.grad, config, rng=rng)

    def _restore(self, flat) -> None:
        """Put back the masters :meth:`before` kept."""
        if flat is not None:
            flat.params[...] = self.bind(flat)[2].masters
            return
        for param, master in zip(self.model.parameters(), self._masters):
            param.data = master

    # -- what a compiled plan is keyed and invalidated by ----------------
    @property
    def plan_key(self) -> tuple:
        """What the stages bake into a plan besides the model."""
        return (self.config, self.max_grad_norm)

    def signature(self) -> tuple:
        """Identity of the observers a binding closes over:
        re-running ``attach_activation_quant`` swaps them, and the
        executor then binds the same plan to the new ones."""
        return (id(self._input_observer),
                *(id(o) for o in self._activation_observers()))

    # ------------------------------------------------------------------
    def enable_graph_executor(self, max_programs: int = 8, arena=None):
        """Compile-and-replay the INT8 step via the graph executor.

        ``Module.enable_graph_executor`` with this trainer as the
        step's stages: the *whole* step (weight/input/gradient
        quantisation included) replays, not just forward/backward.
        ``arena`` is the run's :class:`~repro.nn.arena.StepArena`
        (replicas of one run compile once and share a workspace).
        Idempotent."""
        return attach_graph_executor(self.model, max_programs=max_programs,
                                     arena=arena, stages=self)

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
        x = self.before(np.asarray(inputs, dtype=np.float32))
        try:
            with no_grad():
                return self.model(Tensor(x)).data
        finally:
            self._restore(self._flat())

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value
