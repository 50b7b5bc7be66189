"""The paper's mixed-precision control metrics (§3.2).

Two metrics steer the per-batch CPU/NPU data split on every SoC:

- ``alpha`` — *confidence*: cosine similarity between the FP32 and INT8
  models' logits on a validation set, profiled before each epoch (Eq. 4).
- ``beta`` — *compute power ratio*: ``T_npu / (T_npu + T_cpu)`` (Eq. 6),
  i.e. the share of a batch the NPU should take so neither processor
  idles.

The CPU receives ``max(e^-alpha, 1 - beta)`` of each batch, and weights
merge on-chip as ``w = e^-alpha * w_fp32 + (1 - e^-alpha) * w_int8``
(Eq. 5).
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from ..nn.flat import FlatState, common_flat_layout

__all__ = ["compute_alpha", "compute_beta", "cpu_fraction", "merge_weights",
           "merge_weights_inplace", "MixedPrecisionController"]


def compute_alpha(logits_fp32: np.ndarray, logits_int8: np.ndarray) -> float:
    """Cosine similarity of the two models' logits (Eq. 4), in [-1, 1].

    Flattens across the whole validation batch so one number summarises
    the INT8 model's agreement with the FP32 reference.
    """
    a = np.asarray(logits_fp32, dtype=np.float64)
    b = np.asarray(logits_int8, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"logit shapes differ: {a.shape} vs {b.shape}")
    a = a.ravel()
    b = b.ravel()
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / norm)


def compute_beta(t_cpu: float, t_npu: float) -> float:
    """NPU share of compute power, ``T_npu / (T_npu + T_cpu)`` (Eq. 6).

    ``t_cpu``/``t_npu`` are per-sample (or per-batch, same batch) training
    latencies.  A faster NPU has *smaller* ``t_npu``; the fraction of data
    it should receive to finish simultaneously with the CPU is
    ``t_cpu / (t_cpu + t_npu)`` — which is what Eq. 6 denotes with its
    ``T`` symbols standing for throughputs.  We follow the semantics (NPU
    gets the larger share when it is faster) rather than the ambiguous
    symbol, and expose both latencies for the energy model.
    """
    if t_cpu <= 0 or t_npu <= 0:
        raise ValueError("latencies must be positive")
    return t_cpu / (t_cpu + t_npu)


def cpu_fraction(alpha: float, beta: float) -> float:
    """Portion of each mini-batch fed to the CPU: ``max(e^-alpha, 1-beta)``."""
    return min(1.0, max(math.exp(-alpha), 1.0 - beta))


def merge_weights(w_fp32: "OrderedDict[str, np.ndarray]",
                  w_int8: "OrderedDict[str, np.ndarray]",
                  alpha: float) -> "OrderedDict[str, np.ndarray]":
    """On-chip weight aggregation (Eq. 5) of two state snapshots: a new
    state, :func:`merge_weights_inplace` applied to copies — of the two
    fused arrays when both are intact ``FlatState`` snapshots sharing a
    layout, key by key for any other pair of dicts."""
    layout = common_flat_layout((w_fp32, w_int8))
    if layout is not None:
        merged_flat = w_fp32.flat.copy()
        merge_weights_inplace(merged_flat, w_int8.flat.copy(), alpha)
        return FlatState(layout, merged_flat)
    merged: OrderedDict[str, np.ndarray] = OrderedDict()
    for name, fp32_value in w_fp32.items():
        merged[name] = np.array(fp32_value, dtype=np.float32)
        merge_weights_inplace(merged[name],
                              np.array(w_int8[name], dtype=np.float32), alpha)
    return merged


def merge_weights_inplace(w_fp32: np.ndarray, w_int8: np.ndarray,
                          alpha: float) -> None:
    """Eq. 5, ``w = e^-alpha * w_fp32 + (1 - e^-alpha) * w_int8``, on
    two float32 arrays — the live fused weights of one logical group:
    both end up holding the merge, nothing is allocated.

    Two weak-typed float32 products and their sum per element; the
    operands are overwritten with the products because neither
    outlives the merge.
    """
    coeff = math.exp(-alpha)
    w_fp32 *= coeff
    w_int8 *= 1.0 - coeff
    w_fp32 += w_int8
    w_int8[...] = w_fp32


class MixedPrecisionController:
    """Tracks alpha/beta over a training run and exposes the batch split.

    The paper profiles ``alpha`` on the validation set prior to each
    epoch; call :meth:`update_alpha` with fresh logits at epoch
    boundaries.  ``beta`` is profiled once, before training starts.
    """

    def __init__(self, t_cpu: float, t_npu: float):
        self.beta = compute_beta(t_cpu, t_npu)
        self.t_cpu = t_cpu
        self.t_npu = t_npu
        self.alpha = 1.0
        self.history: list[tuple[float, float]] = []

    def update_alpha(self, logits_fp32: np.ndarray,
                     logits_int8: np.ndarray) -> float:
        self.alpha = compute_alpha(logits_fp32, logits_int8)
        self.history.append((self.alpha, self.cpu_share))
        return self.alpha

    @property
    def cpu_share(self) -> float:
        return cpu_fraction(self.alpha, self.beta)

    @property
    def npu_share(self) -> float:
        return 1.0 - self.cpu_share

    def split_batch(self, batch_size: int) -> tuple[int, int]:
        """Integer (cpu_count, npu_count) split of one mini-batch."""
        cpu = int(round(self.cpu_share * batch_size))
        cpu = min(batch_size, max(0, cpu))
        return cpu, batch_size - cpu

    def step_time(self, batch_size: int) -> float:
        """Wall time of one mixed step: both processors run in parallel."""
        cpu_n, npu_n = self.split_batch(batch_size)
        return max(cpu_n * self.t_cpu, npu_n * self.t_npu)
