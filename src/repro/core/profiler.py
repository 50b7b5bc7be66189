"""Runtime processor profiling (§3.2's beta measurement, done for real).

The paper profiles the CPU-to-NPU performance gap "before the training
task begins" and the FP32/INT8 logit agreement "prior to each training
epoch".  :class:`ProcessorProfiler` times actual training steps of both
paths on this machine and derives the same quantities, so the
mixed-precision controller can run from measured numbers instead of
spec-sheet constants — and so the simulated SoC can be given any real
measured ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..distributed.base import (RunConfig, fp32_train_step, make_model,
                                make_replica)
from ..quant.int8 import QuantConfig
from ..quant.trainer import Int8Trainer

__all__ = ["ProfileResult", "ProcessorProfiler"]


@dataclass(frozen=True)
class ProfileResult:
    """Measured per-sample training latencies and the derived beta."""

    t_cpu_sample_s: float
    t_npu_sample_s: float

    @property
    def beta(self) -> float:
        """NPU share of compute power (Eq. 6 semantics)."""
        return self.t_cpu_sample_s / (self.t_cpu_sample_s
                                      + self.t_npu_sample_s)

    @property
    def npu_speedup(self) -> float:
        return self.t_cpu_sample_s / self.t_npu_sample_s


class ProcessorProfiler:
    """Times real FP32 and fake-quant INT8 steps on the host machine.

    On the real SoC-Cluster the two paths run on different silicon; on
    this host both run on the CPU, so the measured INT8 path is *slower*
    (extra quantisation work), and ``npu_speedup_assumption`` rescales
    it to the configured NPU's relative throughput.  With the default
    ``None`` the raw measured ratio is reported — useful for regression
    tests of the profiling machinery itself.
    """

    def __init__(self, config: RunConfig, batch_size: int = 16,
                 warmup_steps: int = 1, timed_steps: int = 3,
                 npu_speedup_assumption: float | None = None):
        if timed_steps < 1:
            raise ValueError("timed_steps must be >= 1")
        self.config = config
        self.batch_size = batch_size
        self.warmup_steps = warmup_steps
        self.timed_steps = timed_steps
        self.npu_speedup_assumption = npu_speedup_assumption

    # ------------------------------------------------------------------
    def _batch(self) -> tuple[np.ndarray, np.ndarray]:
        task = self.config.task
        return (task.x_train[:self.batch_size],
                task.y_train[:self.batch_size])

    def _time_fp32(self) -> float:
        model, optimizer = make_replica(self.config)
        x, y = self._batch()
        return self._time_steps(
            lambda: fp32_train_step(model, optimizer, x, y))

    def _time_int8(self) -> float:
        trainer = Int8Trainer(make_model(self.config), lr=self.config.lr,
                              config=QuantConfig(), seed=0)
        x, y = self._batch()
        return self._time_steps(lambda: trainer.train_step(x, y))

    def _time_steps(self, step) -> float:
        for _ in range(self.warmup_steps):
            step()
        start = time.perf_counter()
        for _ in range(self.timed_steps):
            step()
        elapsed = time.perf_counter() - start
        return elapsed / (self.timed_steps * self.batch_size)

    # ------------------------------------------------------------------
    def profile(self) -> ProfileResult:
        t_cpu = self._time_fp32()
        t_npu = self._time_int8()
        if self.npu_speedup_assumption is not None:
            t_npu = t_cpu / self.npu_speedup_assumption
        return ProfileResult(t_cpu_sample_s=t_cpu, t_npu_sample_s=t_npu)
