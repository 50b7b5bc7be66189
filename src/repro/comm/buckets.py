"""Bucketed gradient fusion: DynaComm-style comm/compute overlap.

Whole-model synchronisation serialises after compute: backward must
finish before the first byte hits the wire.  Real training stacks
(Horovod, DDP, libai's ``nccl_fusion_threshold_mb`` /
``nccl_fusion_max_ops``) instead fuse gradients into *buckets* as
backward emits them — last layer first — and start each bucket's
collective while earlier layers are still computing.  This module
brings that scheduling dimension to the reproduction:

:class:`GradientBucket` / :class:`BucketPlan`
    A partition of the parameter region of one
    :class:`~repro.nn.flat.FlatLayout` into contiguous segments, built
    in backward-emission order (reverse parameter order).  The plan is
    the single source of truth for *both* sides of the hybrid-fidelity
    contract: the cost model prices one collective per bucket (sized at
    paper scale), and the host data plane aggregates per bucket over
    the same flat segments.

:func:`bucketed_average_states`
    Per-bucket fused averaging over :class:`~repro.nn.flat.FlatState`
    snapshots.  Bit-identical to the whole-model fused path by
    construction: both funnel every element through
    :func:`~repro.comm.primitives._average_arrays_f32`, whose result is
    independent of how the storage is segmented.

The timeline semantics (when a bucket may start its collective) live
with the network model in :func:`repro.cluster.network.overlap_timeline`;
this module only decides *what* the buckets are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn.flat import FlatLayout, FlatState, common_flat_layout

__all__ = ["GradientBucket", "BucketPlan", "BACKWARD_START_FRACTION",
           "bucketed_average_states"]

#: fraction of a step's compute window spent in forward: gradients only
#: start appearing once backward begins, i.e. after this share of the
#: window (forward ~ 1/3 of fwd+bwd at the usual 1:2 FLOP ratio).
BACKWARD_START_FRACTION = 1.0 / 3.0


@dataclass(frozen=True)
class GradientBucket:
    """One fused gradient segment, contiguous in the flat param region.

    ``index`` counts in *emission order*: bucket 0 holds the last
    parameters of the layout (the first gradients backward produces).
    ``start``/``stop`` are element offsets into the flat array.
    """

    index: int
    start: int
    stop: int
    num_tensors: int

    def __post_init__(self):
        if not 0 <= self.start < self.stop:
            raise ValueError(f"bucket [{self.start}, {self.stop}) is empty "
                             "or inverted")
        if self.num_tensors < 1:
            raise ValueError("bucket must fuse at least one tensor")

    @property
    def num_elements(self) -> int:
        return self.stop - self.start


class BucketPlan:
    """A partition of a layout's parameter region into gradient buckets.

    Buckets are stored in emission order (descending offsets).  The
    constructor enforces the conservation invariant the whole subsystem
    rests on: the buckets tile ``[0, param_total)`` exactly — no gap,
    no overlap — so the sum of per-bucket bytes always equals the
    whole-model bytes, at any payload scale.
    """

    def __init__(self, layout: FlatLayout, buckets: Sequence[GradientBucket]):
        self.layout = layout
        self.buckets = tuple(buckets)
        self.param_total = layout.param_total
        self.num_ops = layout.num_params
        cursor = self.param_total
        total_tensors = 0
        for bucket in self.buckets:
            if bucket.stop != cursor:
                raise AssertionError(
                    f"bucket {bucket.index} ends at {bucket.stop}, expected "
                    f"{cursor}: buckets must tile the param region")
            cursor = bucket.start
            total_tensors += bucket.num_tensors
        if self.buckets and cursor != 0:
            raise AssertionError(
                f"buckets stop at offset {cursor}, not 0: param region "
                "not fully covered")
        if self.buckets and total_tensors != self.num_ops:
            raise AssertionError(
                f"buckets fuse {total_tensors} tensors, layout has "
                f"{self.num_ops}")

    # ------------------------------------------------------------------
    @classmethod
    def from_layout(cls, layout: FlatLayout,
                    threshold_bytes: float | None = None,
                    max_ops: int | None = None,
                    total_bytes: float | None = None) -> "BucketPlan":
        """Greedy fusion in reverse parameter order (libai's knobs).

        A bucket closes once its accumulated payload reaches
        ``threshold_bytes`` or it holds ``max_ops`` tensors, whichever
        comes first; unset knobs don't constrain.  ``total_bytes``
        rescales the layout to the *simulated* payload so the MB knob
        means paper-scale megabytes even though the real (reduced-width)
        model is far smaller.
        """
        if threshold_bytes is not None and threshold_bytes <= 0:
            raise ValueError("threshold_bytes must be positive")
        if max_ops is not None and max_ops < 1:
            raise ValueError("max_ops must be >= 1")
        n = layout.num_params
        if total_bytes is None:
            total_bytes = 4.0 * layout.param_total
        bytes_per_element = (total_bytes / layout.param_total
                             if layout.param_total else 0.0)
        buckets: list[GradientBucket] = []
        stop = layout.offsets[n]
        acc_elements = 0
        acc_ops = 0
        for i in range(n - 1, -1, -1):
            acc_elements += layout.sizes[i]
            acc_ops += 1
            full = ((threshold_bytes is not None
                     and acc_elements * bytes_per_element >= threshold_bytes)
                    or (max_ops is not None and acc_ops >= max_ops))
            if full:
                start = layout.offsets[i]
                buckets.append(GradientBucket(len(buckets), start, stop,
                                              acc_ops))
                stop = start
                acc_elements = 0
                acc_ops = 0
        if acc_ops:
            buckets.append(GradientBucket(len(buckets), 0, stop, acc_ops))
        return cls(layout, buckets)

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def sim_bytes(self, total_bytes: float) -> list[float]:
        """Each bucket's share of a ``total_bytes`` payload.

        Proportional to element count, so the split is exact at any
        payload scale (FP32 paper-scale gradients, INT8, compressed
        wire formats alike).
        """
        # a whole-region bucket returns total_bytes verbatim so the
        # 1-bucket plan prices bit-identically to the unbucketed path
        return [total_bytes if bucket.num_elements == self.param_total
                else total_bytes * bucket.num_elements / self.param_total
                for bucket in self.buckets]

    def sim_tensors(self, total_tensors: float) -> list[float]:
        """Each bucket's share of the profile's collective-startup
        tensor count (fractional: startup cost is linear in it)."""
        return [float(total_tensors) if bucket.num_tensors == self.num_ops
                else total_tensors * bucket.num_tensors / self.num_ops
                for bucket in self.buckets]

    def ready_fractions(self) -> list[float]:
        """Fraction of the compute window at which each bucket's last
        gradient exists.

        Backward starts after :data:`BACKWARD_START_FRACTION` of the
        window and walks the parameters in reverse at a rate
        proportional to their size; bucket *i* is ready once every
        parameter at-or-after its ``start`` offset has been processed.
        The final bucket (the model's first layers) is ready exactly at
        1.0 — a single whole-model bucket therefore overlaps nothing,
        which is what makes one-bucket plans degrade to the sequential
        cost by construction.
        """
        out = []
        for bucket in self.buckets:
            if bucket.start == 0:
                # exact 1.0, immune to float residue in the blend below:
                # the closing bucket must never appear to finish early
                out.append(1.0)
                continue
            done = (self.param_total - bucket.start) / self.param_total
            out.append(BACKWARD_START_FRACTION
                       + (1.0 - BACKWARD_START_FRACTION) * done)
        return out

    def segments(self, include_buffers: bool = True
                 ) -> list[tuple[int, int]]:
        """``(start, stop)`` element ranges in storage order.

        Covers the full layout when ``include_buffers`` (the trailing
        non-parameter region becomes one extra segment) so a per-segment
        pass touches every element exactly once.
        """
        out = sorted((b.start, b.stop) for b in self.buckets)
        if include_buffers and self.layout.total > self.param_total:
            out.append((self.param_total, self.layout.total))
        return out


def bucketed_average_states(states: Sequence[FlatState],
                            plan: BucketPlan | None,
                            metrics=None) -> FlatState:
    """Uniform average of :class:`~repro.nn.flat.FlatState` snapshots,
    fused per bucket of ``plan`` over the shared flat storage (no plan:
    one whole-model segment).

    Bit-identical to :func:`~repro.comm.primitives.average_states`:
    the same elementwise kernel runs over the same storage, merely
    sliced at bucket boundaries, and every element's value is
    independent of the slicing.
    """
    from .primitives import _average_arrays_f32, count_merge
    layout = common_flat_layout(states)
    if plan is None:
        segments = [(0, layout.total)]
    elif plan.layout is layout:
        segments = plan.segments(include_buffers=True)
    else:
        raise ValueError("the bucket plan is for another layout")
    scales = [np.float32(1.0 / len(states))] * len(states)
    out = np.empty(layout.total, dtype=np.float32)
    flats = [state.flat for state in states]
    for start, stop in segments:
        _average_arrays_f32([flat[start:stop] for flat in flats], scales,
                            out=out[start:stop])
    result = FlatState(layout, out)
    count_merge(metrics, result, len(states))
    return result
