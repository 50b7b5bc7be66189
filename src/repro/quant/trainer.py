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

from ..nn import kernels as K
from ..nn.graph import attach_graph_executor, train_step
from ..nn.modules import Module
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from .int8 import Int8StepScratch, QuantConfig
from .observer import EmaObserver

__all__ = ["Int8Trainer"]


class Int8Trainer:
    """Run SGD steps with INT8 fake-quantised weights/activations/grads.

    The step itself is :func:`repro.nn.graph.train_step`; the trainer
    is its ``stages``: :meth:`before` (master snapshot, weights and
    input onto the grid) and :meth:`after` (masters back, clip,
    gradient quantisation) around the forward/backward every replica
    shares.  Both run in place on the model's fused storage through
    the arena's pooled :class:`~repro.quant.int8.Int8StepScratch`
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
        if config.quantize_activations:
            from .ste import attach_activation_quant
            attach_activation_quant(model, config)
        self.optimizer.bind_flat(model.flatten_parameters(arena))

    # ------------------------------------------------------------------
    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One SGD step on the INT8 path; returns the batch loss."""
        return train_step(self.model, self.optimizer, inputs, targets,
                          stages=self)

    # -- the stages of the step ------------------------------------------
    def bind(self, flat) -> tuple:
        """``(before, after, scratch)``: the stages over ``flat``'s
        storage and its arena's pooled scratch.

        Made once per storage and run by eager and compiled steps
        alike — a replay calls them with no intactness check or arena
        lookup of its own.  ``before(x, out, wide)`` fills a compiled
        plan's input buffer; eagerly it allocates the result.  Weights
        are snapped whole; the clip and the gradient quantisation (its
        RNG draw included) cover ``flat``'s trainable runs, so a frozen
        backbone is the same step on fewer elements.
        """
        if self._bound is None or self._bound[0] is not flat:
            config, max_norm = self.config, self.max_grad_norm
            scratch = Int8StepScratch.pooled(flat.arena, flat.layout, config)
            params, grads, masters = flat.params, flat.grads, scratch.masters
            quant, clip, qmax = scratch.quant, scratch.clip, config.qmax
            observer = (self._input_observer if config.quantize_activations
                        else None)
            rng = self.rng if config.stochastic_rounding else None

            def before(x, out=None, wide=None):
                # the masters are the arena's pooled snapshot, valid
                # until the next replica's step
                np.copyto(masters, params)
                if config.quantize_weights:
                    quant(params)
                if observer is None:        # activations stay FP32
                    return x if out is None else K.copy(x, out=out)
                if out is None:
                    out, (wide,) = np.empty_like(x), scratch.input_buffers(
                        x.shape)
                # The EMA advances on every call and the scale is read
                # back, so scale drift is an input of a compiled step.
                if config.float16:
                    observer.update(float(np.abs(x, out=out).max()))
                    return K.fp16_round_trip(x, wide, out=out)
                return K.fake_quant(x, observer, qmax, out, wide, out=out)

            def after():
                np.copyto(params, masters)
                runs = flat.trainable_runs()
                if max_norm is not None:
                    clip(grads, max_norm, runs)
                if config.quantize_gradients:
                    quant(grads, rng, runs)

            self.optimizer.bind_flat(flat)  # anew if storage was re-fused
            self._bound = (flat, before, after, scratch)
        return self._bound[1:]

    def before(self, x: np.ndarray) -> np.ndarray:
        """Ahead of the forward pass: keep the FP32 masters, snap the
        weights onto the grid; returns the observed, quantised input."""
        return self.bind(self.model.flatten_parameters())[0](x)

    def after(self) -> None:
        """Between backward and the update: masters back, global-norm
        clip, gradient quantisation — of this replica's gradient, so
        the plane must still hold it, whole."""
        flat = self.model.flatten_parameters()
        if not flat.grads_ready():
            raise RuntimeError(
                "the gradient plane does not hold this replica's gradient: "
                "it was claimed by another replica since zero_grad(), or a "
                "trainable parameter received no gradient")
        self.bind(flat)[1]()

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
        flat = self.model.flatten_parameters()
        before, _, scratch = self.bind(flat)
        x = before(np.asarray(inputs, dtype=np.float32))
        try:
            with no_grad():
                return self.model(Tensor(x)).data
        finally:
            np.copyto(flat.params, scratch.masters)

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value
