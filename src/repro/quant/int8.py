"""Symmetric INT8 quantisation primitives.

All quantisers are symmetric around zero (the format mobile NPUs such
as the Hexagon DSP support natively) with a per-tensor scale.  Rounding
to the grid is one kernel, :func:`repro.nn.kernels.fake_quant`; this
module decides what it runs on and in which storage — except
:func:`quantize` / :func:`dequantize`, the independent int32 reference
the kernel is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..nn import kernels as K

__all__ = ["QuantConfig", "quantize", "dequantize", "fake_quantize",
           "fake_quantize_segments", "SegmentQuantizer", "Int8StepScratch",
           "quantization_error"]


@dataclass(frozen=True)
class QuantConfig:
    """Quantisation settings for the INT8 training path.

    Attributes
    ----------
    bits:
        Bit width, 2 to 16 (8 for the Hexagon NPU; other widths let the
        harness explore the future-work formats the paper's §5
        mentions: INT4, INT16).
    stochastic_rounding:
        NITI-style stochastic rounding of gradients; reduces bias at the
        cost of variance.
    quantize_gradients / quantize_weights / quantize_activations:
        Which tensors are forced onto the integer grid each step.
    """

    bits: int = 8
    stochastic_rounding: bool = True
    quantize_gradients: bool = True
    quantize_weights: bool = True
    quantize_activations: bool = True
    #: use IEEE float16 instead of the integer grid — one of the newer
    #: NPU formats the paper's §5 anticipates (INT4/INT8/INT16/FP16)
    float16: bool = False

    def __post_init__(self):
        if not 2 <= self.bits <= 16:
            raise ValueError(
                f"bits must be between 2 and 16 (the NPU formats are INT4, "
                f"INT8, INT16; float16=True selects FP16), got {self.bits}: "
                f"one bit leaves no grid, and float32 stops holding a wide "
                f"one exactly")

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def format_name(self) -> str:
        return "fp16" if self.float16 else f"int{self.bits}"


def _scale_for(x: np.ndarray, qmax: int) -> float:
    peak = float(np.abs(x).max())
    if peak == 0.0:
        return 1.0
    return peak / qmax


def quantize(x: np.ndarray, scale: float, qmax: int,
             rng: np.random.Generator | None = None) -> np.ndarray:
    """Map ``x`` to integers in ``[-qmax, qmax]`` with the given scale."""
    scaled = x / scale
    if rng is not None:
        floor = np.floor(scaled)
        frac = scaled - floor
        scaled = floor + (rng.random(x.shape) < frac)
    else:
        scaled = np.rint(scaled)
    return np.clip(scaled, -qmax, qmax).astype(np.int32)


def dequantize(q: np.ndarray, scale: float) -> np.ndarray:
    return (q * scale).astype(np.float32)


def fake_quantize(x: np.ndarray, config: QuantConfig,
                  rng: np.random.Generator | None = None,
                  scale: float | None = None) -> np.ndarray:
    """Round-trip ``x`` through the configured low-precision format
    (a new float32 array; the per-tensor scale unless one is given)."""
    x = np.asarray(x, dtype=np.float32)
    if config.float16:
        return K.fp16_round_trip(x, np.empty(x.shape, np.float16))
    if scale is None:
        scale = _scale_for(x, config.qmax)
    if rng is None or not config.stochastic_rounding:
        rng = mask = None
    else:
        mask = np.empty(x.shape, np.bool_)
    return K.fake_quant(x, scale, config.qmax, np.empty_like(x),
                        np.empty(x.shape, np.float64), rng, mask)


def fake_quantize_segments(flat: np.ndarray, starts: np.ndarray,
                           sizes: np.ndarray, config: QuantConfig,
                           rng: np.random.Generator | None = None
                           ) -> np.ndarray:
    """:func:`fake_quantize` of each contiguous segment
    ``flat[starts[i]:starts[i]+sizes[i]]`` of a 1-D float32 array, in
    order — bit for bit, the stochastic-rounding stream included: one
    draw of ``flat.size`` consumes PCG64 like per-segment draws.
    Returns a new array; a step quantises in place
    (:class:`SegmentQuantizer`).
    """
    out = flat.copy()
    SegmentQuantizer(starts, sizes, config, stochastic=rng is not None)(
        out, rng)
    return out


#: elements quantised per pass: the scale, product and mask planes of
#: one block stay in cache from the divide to the narrowing copy
_BLOCK = 1 << 15


class SegmentQuantizer:
    """The working storage of in-place per-segment quantisation for one
    ``(starts, sizes)`` segmentation (a
    :class:`repro.nn.flat.FlatLayout`'s parameter regions) and one
    :class:`QuantConfig`: one block of scratch and of the two
    per-element scale planes :func:`repro.nn.kernels.fake_quant`
    computes in, no arithmetic.  ``stochastic=True`` adds the rounding
    mask (gradient path); the weight path never draws.

    Nothing in it outlives a call, so a run keeps a single one (in its
    :class:`Int8StepScratch`) for the weight and the gradient stage of
    every replica, eager or compiled.
    """

    def __init__(self, starts: np.ndarray, sizes: np.ndarray,
                 config: QuantConfig, stochastic: bool = False):
        self.config = config
        self.starts = np.asarray(starts, dtype=np.intp)
        self.total = int(np.sum(sizes))
        if config.float16:
            dtypes = [np.float16]
        else:
            # scratch and narrow scales; wide scales and products (where
            # a stochastic draw lands first); the rounding mask
            dtypes = [np.float32, np.float32, np.float64, np.float64]
            if stochastic and config.stochastic_rounding:
                dtypes.append(np.bool_)
        block = max(1, min(self.total, _BLOCK))
        self._planes = [np.empty(block, dtype=dtype) for dtype in dtypes]

    def buffers(self) -> list[np.ndarray]:
        """Every scratch array this instance owns."""
        return list(self._planes)

    def __call__(self, flat: np.ndarray,
                 rng: np.random.Generator | None = None,
                 runs=None) -> None:
        """Quantise ``flat`` in place (1-D float32, length ``total``):
        all of it, or its ``(start, stop)`` ``runs`` of whole segments
        (``FlatParamBuffer.trainable_runs``) one after another — the
        generator then draws for those elements only, in order.

        Each run goes block by block: the per-segment scales first (two
        reductions over the run), then every block through the kernel
        with its scale planes filled from them; a block-wise draw is
        the same stream as one draw of the run.
        """
        qmax = self.config.qmax
        if not self.config.stochastic_rounding:
            rng = None
        block = len(self._planes[0])
        for start, stop in ((0, self.total),) if runs is None else runs:
            if not self.config.float16:
                lo, hi = np.searchsorted(self.starts, (start, stop))
                bounds = [*self.starts[lo:hi].tolist(), stop]
                scales = K.segment_scales(
                    flat[start:stop], self.starts[lo:hi] - start,
                    qmax).tolist()
            for at in range(start, stop, block):
                part = flat[at:min(at + block, stop)]
                work = [plane[:len(part)] for plane in self._planes]
                if self.config.float16:
                    K.fp16_round_trip(part, *work, out=part)
                    continue
                scratch, narrow, widened, wide, *mask = work
                segment = bisect_right(bounds, at) - 1
                while bounds[segment] < at + len(part):
                    piece = slice(max(bounds[segment] - at, 0),
                                  bounds[segment + 1] - at)
                    narrow[piece] = widened[piece] = scales[segment]
                    segment += 1
                K.fake_quant(part, (narrow, widened), qmax, scratch, wide,
                             rng, *mask, out=part)


class Int8StepScratch:
    """Everything one INT8 training step needs besides the replica's
    own weights, momentum and RNG, for one (layout, config): the
    master-weight snapshot, one :class:`SegmentQuantizer` serving both
    the weight and the gradient stage (they never overlap) and the
    clip's float64 buffer, as long as the largest parameter.  Nothing
    in it outlives a step, so a run pools one in its arena for all
    replicas, eager and compiled alike; ``guard`` is the re-entrancy
    cell the compiled plans drawing on it share.
    """

    def __init__(self, layout, config: QuantConfig):
        n = layout.num_params
        self.config = config
        self.guard = [False]
        self.masters = np.empty(layout.param_total, dtype=np.float32)
        self._own = [self.masters]
        self.quant: SegmentQuantizer | None = None
        if config.quantize_weights or config.quantize_gradients:
            self.quant = SegmentQuantizer(
                layout.offsets[:n], layout.sizes[:n], config,
                stochastic=config.quantize_gradients)
            self._own += self.quant.buffers()
        # the clip squares in float64, one parameter at a time: its
        # pairwise sums need whole segments, not blocks
        self._sq = np.empty(int(np.max(layout.sizes[:n], initial=0)),
                            dtype=np.float64)
        self._own.append(self._sq)
        self._offsets = layout.offsets

    @classmethod
    def pooled(cls, arena, layout, config: QuantConfig) -> "Int8StepScratch":
        """The one instance ``arena`` keeps for (layout, config)."""
        return arena.pooled(("int8", layout, config),
                            lambda: cls(layout, config))

    def clip(self, grads: np.ndarray, max_norm: float, runs) -> None:
        """Global-norm clip, in place, of the fused gradient ``grads``
        over its ``(start, stop)`` ``runs`` (integer-training schemes
        bound the gradient scale so quantisation noise cannot
        self-amplify).

        Bit-identical to clipping parameter by parameter: squares in
        float64, one pairwise ``np.sum`` per parameter accumulated in
        parameter order (float addition order matters), then a single
        multiply per run — elementwise what a per-view loop does.
        """
        total = 0.0
        for start, stop in runs:
            first = bisect_left(self._offsets, start)
            for lo, hi in zip(
                    self._offsets[first:bisect_left(self._offsets, stop)],
                    self._offsets[first + 1:]):
                # widened exactly, then squared: astype(float64) ** 2
                squares = np.square(grads[lo:hi], dtype=np.float64,
                                    out=self._sq[:hi - lo])
                total += float(np.sum(squares))
        norm = np.sqrt(total)
        if norm > max_norm:
            for start, stop in runs:
                part = grads[start:stop]
                np.multiply(part, max_norm / norm, out=part)

    def buffers(self) -> list[np.ndarray]:
        return self._own

    def input_buffers(self, shape) -> tuple:
        """Fresh working storage of the input stage for one batch
        shape (the float16 / float64 widening buffer) — not pooled: the
        compiled plan of that shape owns it."""
        if not self.config.quantize_activations:
            return ()
        return (np.empty(shape, dtype=(np.float16 if self.config.float16
                                       else np.float64)),)


def quantization_error(x: np.ndarray, config: QuantConfig) -> float:
    """Relative L2 error introduced by one quantisation round trip."""
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(fake_quantize(x, config) - x)) / norm
