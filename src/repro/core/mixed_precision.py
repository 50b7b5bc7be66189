"""Per-group mixed-precision execution (§3.2).

One :class:`GroupMixedTrainer` embodies a logical group: because the
group synchronises every batch, its SoCs' CPU sub-batches are
mathematically one FP32 SGD step and its NPU sub-batches one INT8 step
(DESIGN.md decision 2).  Each batch is split by the controller's
``max(e^-alpha, 1-beta)`` rule, both paths step, and the weights merge
on-chip via Eq. 5 before the (instantaneous-in-math) intra-group ring.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..distributed.base import (RunConfig, fp32_train_step, make_model,
                                make_replica)
from ..nn.arena import StepArena
from ..nn.tensor import Tensor, no_grad
from ..quant.int8 import QuantConfig
# ``merge_weights`` is unused here: the claims benchmark's tracer
# (benchmarks/e2e/spans.py) patches it as an attribute of this module
from ..quant.mixed import (MixedPrecisionController,  # noqa: F401
                           merge_weights, merge_weights_inplace)
from ..quant.trainer import Int8Trainer
from ..telemetry import NULL_TELEMETRY

__all__ = ["GroupMixedTrainer"]


class GroupMixedTrainer:
    """FP32(CPU) + INT8(NPU) replica pair for one logical group.

    ``arena`` is the run's :class:`~repro.nn.arena.StepArena`: the
    logical groups of one run are structurally identical replicas that
    step one after another, so whoever builds them hands all of them
    the same arena and they share one gradient plane, one set of
    optimiser and quantiser step scratch and (``config.graph``) one
    compiled plan and workspace per precision.  A group keeps only
    what is live between its steps: two weight buffers, two momentum
    buffers, RNG and observer state.  A trainer built without an arena
    makes the run's; ``reform_groups`` passes it on to the members it
    adds.

    ``precision`` is the Figure 14 mode: ``"mixed"`` splits every
    batch by the controller and merges by Eq. 5, ``"fp32"`` trains on
    the CPUs alone (no INT8 twin is built), ``"int8"`` on the NPUs
    alone, the FP32 copy following the INT8 weights.

    ``init_weights=False`` is for a replica whose weights the caller
    loads before its first step (every group but the first of a run,
    every worker-process replica): its models are built without the
    random initialisation nobody would see.
    """

    def __init__(self, config: RunConfig,
                 controller: MixedPrecisionController,
                 quant_config: QuantConfig, seed_offset: int = 0,
                 precision: str = "mixed",
                 arena: "StepArena | None" = None,
                 init_weights: bool = True):
        if precision not in ("mixed", "fp32", "int8"):
            raise ValueError("precision must be mixed/fp32/int8")
        self.config = config
        self.controller = controller
        self.precision = precision
        self.arena = arena if arena is not None else StepArena()
        self.telemetry = (config.telemetry if config.telemetry is not None
                          else NULL_TELEMETRY)
        self.fp32, self.fp32_opt = make_replica(
            config, arena=self.arena, seed_offset=seed_offset,
            init_weights=init_weights)
        self.int8: Int8Trainer | None = None
        if precision != "fp32":
            # the twin starts from the FP32 weights, never from its own
            int8_model = make_model(config, seed_offset=seed_offset,
                                    init_weights=False)
            self.int8 = Int8Trainer(int8_model, lr=config.lr,
                                    config=quant_config,
                                    momentum=config.momentum,
                                    weight_decay=config.weight_decay,
                                    seed=config.seed + seed_offset,
                                    arena=self.arena)
            if init_weights:
                int8_model.load_state_dict(self.fp32.state_dict())
            if config.graph:
                # The INT8 replica honours the flag too: the whole
                # quantised step (weight/input/gradient fake-quant and
                # the stochastic-rounding RNG stream included) replays
                # through the same executor.
                self.int8.enable_graph_executor(arena=self.arena)

    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> None:
        """One group step: split, dual step, Eq. 5 merge."""
        if self.precision == "fp32":
            fp32_train_step(self.fp32, self.fp32_opt, x, y)
            return
        if self.precision == "int8":
            self.int8.train_step(x, y)
            self.fp32.load_state_dict(self.int8.model.state_dict())
            return
        cpu_n, npu_n = self.controller.split_batch(len(x))
        if cpu_n:
            fp32_train_step(self.fp32, self.fp32_opt, x[:cpu_n], y[:cpu_n])
        if npu_n:
            self.int8.train_step(x[cpu_n:], y[cpu_n:])
        # the two replicas are one architecture: one interned layout
        merge_weights_inplace(self.fp32.flatten_parameters().data,
                              self.int8.model.flatten_parameters().data,
                              self.controller.alpha)
        metrics = self.telemetry.metrics
        if metrics.enabled:
            # Real-execution (not simulated-scale) split accounting: how
            # many samples each processor actually trained, per Eq. 5
            # merge performed.
            metrics.counter("mixed.cpu_samples").inc(cpu_n)
            metrics.counter("mixed.npu_samples").inc(npu_n)
            metrics.counter("mixed.merges").inc()

    # ------------------------------------------------------------------
    def update_alpha(self, val_x: np.ndarray) -> float:
        """Profile FP32/INT8 logits on the validation set (per epoch)."""
        if self.precision != "mixed":
            return self.controller.alpha
        self.fp32.eval()
        with no_grad():
            logits_fp32 = self.fp32(Tensor(val_x)).data
        logits_int8 = self.int8.predict_logits(val_x)
        return self.controller.update_alpha(logits_fp32, logits_int8)

    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return self.fp32.state_dict()

    def live_state(self) -> "OrderedDict[str, np.ndarray]":
        """:meth:`state_dict` without the copy — the FP32 replica's
        fused storage itself, valid until the next step or load."""
        return self.fp32.flatten_parameters().live_state()

    def load_state(self, state: "OrderedDict[str, np.ndarray]") -> None:
        self.fp32.load_state_dict(state)
        if self.int8 is not None:
            self.int8.model.load_state_dict(state)

    # ------------------------------------------------------------------
    @staticmethod
    def _module_rng_states(model) -> list:
        """RNG state of every stateful-layer generator (e.g. Dropout)."""
        return [m.rng.bit_generator.state for m in model.modules()
                if getattr(m, "rng", None) is not None]

    @staticmethod
    def _load_module_rng_states(model, states: list) -> None:
        holders = [m for m in model.modules()
                   if getattr(m, "rng", None) is not None]
        for module, rng_state in zip(holders, states):
            module.rng.bit_generator.state = rng_state

    def runtime_state(self) -> dict:
        """Every mutable input of ``train_batch``, picklable, so a worker
        process can resume this group bit-identically mid-run.

        The controller is deliberately excluded: within an epoch it is
        read-only (alpha/beta update only at epoch boundaries), so the
        executor ships its two scalars separately.
        """
        state = {
            "fp32": self.fp32.state_dict(),
            "fp32_opt": self.fp32_opt.state_dict(),
            "fp32_rngs": self._module_rng_states(self.fp32),
        }
        if self.int8 is not None:
            state["int8"] = self.int8.runtime_state()
            state["int8_rngs"] = self._module_rng_states(self.int8.model)
        return state

    def load_runtime_state(self, state: dict) -> None:
        self.fp32.load_state_dict(state["fp32"])
        self.fp32_opt.load_state_dict(state["fp32_opt"])
        self._load_module_rng_states(self.fp32, state["fp32_rngs"])
        if self.int8 is not None and "int8" in state:
            self.int8.load_runtime_state(state["int8"])
            self._load_module_rng_states(self.int8.model,
                                         state["int8_rngs"])

    def set_lr(self, lr: float) -> None:
        self.fp32_opt.lr = lr
        if self.int8 is not None:
            self.int8.lr = lr

    # ------------------------------------------------------------------
    def graph_stats(self) -> dict | None:
        """Per-precision graph-executor counters, or ``None`` when the
        graph flag is off (neither replica has an executor)."""
        stats = {}
        fp32_exec = getattr(self.fp32, "_graph_exec", None)
        if fp32_exec is not None:
            stats["fp32"] = fp32_exec.snapshot()
        if self.int8 is not None:
            int8_stats = self.int8.graph_stats()
            if int8_stats is not None:
                stats["int8"] = int8_stats
        return stats or None
