"""State-dict arithmetic shared by all aggregation schemes, plus the
timeout/retry policy collectives apply over degraded links."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn.flat import FlatState, common_flat_layout

__all__ = ["RetryPolicy", "average_states", "weighted_average_states"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry with exponential backoff for degraded links.

    A transfer crossing a PCB NIC running at a bandwidth multiplier at
    or below ``degraded_threshold`` starts missing its transport
    timeout; the sender retries with exponentially growing backoff.
    The model is deterministic: the number of timed-out attempts grows
    with the severity of the degradation (halving the bandwidth again
    costs one more retry), capped at ``max_retries``.
    """

    timeout_s: float = 1.0
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    max_retries: int = 5
    degraded_threshold: float = 0.5

    def __post_init__(self):
        if self.timeout_s < 0 or self.backoff_base_s < 0:
            raise ValueError("timeout and backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 < self.degraded_threshold <= 1.0:
            raise ValueError("degraded_threshold must be in (0, 1]")

    def retries_for(self, multiplier: float) -> int:
        """Timed-out attempts for a link at ``multiplier`` of nominal."""
        if multiplier >= 1.0 or multiplier > self.degraded_threshold:
            return 0
        if multiplier <= 0.0:
            return self.max_retries
        severity = self.degraded_threshold / multiplier
        return min(self.max_retries, 1 + int(math.floor(math.log2(severity))))

    def penalty_seconds(self, retries: int) -> float:
        """Wall-time cost of ``retries`` timed-out attempts + backoffs."""
        retries = min(retries, self.max_retries)
        if retries <= 0:
            return 0.0
        backoff = sum(self.backoff_base_s * self.backoff_factor ** k
                      for k in range(retries))
        return retries * self.timeout_s + backoff


def average_states(states: Sequence[FlatState], metrics=None
                   ) -> FlatState:
    """Uniform element-wise average of model state dicts."""
    if not states:
        raise ValueError("need at least one state")
    return weighted_average_states(states, [1.0] * len(states),
                                   metrics=metrics)


#: elements per cache block of the averaging kernel (64k floats =
#: 256 KiB — the accumulator block stays L2-resident across the k
#: add passes instead of streaming the whole model k times)
_AVG_BLOCK = 1 << 16


def _average_arrays_f32(arrays: Sequence[np.ndarray],
                        scales: Sequence[np.float32],
                        out: np.ndarray | None = None) -> np.ndarray:
    """Weighted sum of float32 arrays — the one averaging kernel.

    Every element is independent of array shape and block boundaries,
    so the whole-model and the bucketed averages agree bit for bit.

    Uniform weights take a sum-then-scale form — ``k-1`` in-place adds
    and one multiply, the cheapest exact formulation (and one rounding
    *fewer* per element than scale-then-sum).  Non-uniform weights
    scale each term first, reusing one scratch buffer.  Either way the
    kernel walks the storage in L2-sized blocks.

    ``out`` optionally receives the result (bucketed aggregation writes
    each segment into one preallocated whole-model buffer); same-shape
    float32, returned for convenience.
    """
    if len(arrays) == 1:
        if out is None:
            return arrays[0] * scales[0]
        np.multiply(arrays[0].reshape(-1), scales[0], out=out.reshape(-1))
        return out
    if out is None:
        out = np.empty_like(arrays[0])
    flat_out = out.reshape(-1)
    flats = [arr.reshape(-1) for arr in arrays]
    uniform = all(s == scales[0] for s in scales[1:])
    scratch = None if uniform else np.empty(
        min(_AVG_BLOCK, flat_out.size), dtype=np.float32)
    for start in range(0, flat_out.size, _AVG_BLOCK):
        sl = slice(start, start + _AVG_BLOCK)
        acc = flat_out[sl]
        if uniform:
            np.add(flats[0][sl], flats[1][sl], out=acc)
            for flat in flats[2:]:
                acc += flat[sl]
            acc *= scales[0]
        else:
            np.multiply(flats[0][sl], scales[0], out=acc)
            for flat, scale in zip(flats[1:], scales[1:]):
                tmp = scratch[:acc.size]
                np.multiply(flat[sl], scale, out=tmp)
                acc += tmp
    return out


def weighted_average_states(states: Sequence[FlatState],
                            weights: Sequence[float],
                            metrics=None
                            ) -> FlatState:
    """Weighted element-wise average (weights are normalised) of
    :class:`~repro.nn.flat.FlatState` snapshots of one layout, in one
    pass over the fused storage.

    The average is taken in single precision (sum-then-scale for
    uniform weights): for the k <= 32 replicas a merge ever sees the
    elementwise error is bounded by ~k ulp, invisible next to the
    inter-replica divergence being averaged, and it halves the memory
    traffic of a float64 accumulation (``benchmarks/perf`` measures
    the win against that reference).

    ``metrics`` optionally takes a telemetry
    :class:`~repro.telemetry.MetricsRegistry`; each call then counts one
    ``comm.merges`` and the state bytes actually averaged
    (``comm.merged_bytes``) — this is the *real* data-plane aggregation
    every strategy performs, as opposed to the simulated-scale transfer
    accounting in :class:`~repro.cluster.network.NetworkFabric`.
    """
    if len(states) != len(weights):
        raise ValueError("one weight per state required")
    total = float(sum(weights))
    if total <= 0 or not math.isfinite(total):
        raise ValueError("weights must sum to a positive finite value")
    scales = [np.float32(weight / total) for weight in weights]
    out = FlatState(common_flat_layout(states), _average_arrays_f32(
        [state.flat for state in states], scales))
    count_merge(metrics, out, len(states))
    return out


def count_merge(metrics, out: FlatState, num_states: int) -> None:
    """``comm.merges`` and ``comm.merged_bytes`` of one average."""
    if metrics is not None and metrics.enabled:
        metrics.counter("comm.merges").inc()
        metrics.counter("comm.merged_bytes").inc(
            out.flat.nbytes * num_states)
