"""Symmetric INT8 quantisation primitives.

All quantisers are symmetric around zero (the format mobile NPUs such
as the Hexagon DSP support natively) with a per-tensor scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantConfig", "quantize", "dequantize", "fake_quantize",
           "fake_quantize_observed", "fake_quantize_segments",
           "SegmentQuantizer", "Int8StepScratch", "quantization_error"]


@dataclass(frozen=True)
class QuantConfig:
    """Quantisation settings for the INT8 training path.

    Attributes
    ----------
    bits:
        Bit width (8 for the Hexagon NPU; other widths let the harness
        explore the future-work formats the paper's §5 mentions).
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
    """Round-trip ``x`` through the configured low-precision format."""
    if config.float16:
        return x.astype(np.float16).astype(np.float32)
    qmax = config.qmax
    if scale is None:
        scale = _scale_for(x, qmax)
    use_rng = rng if config.stochastic_rounding else None
    return dequantize(quantize(x, scale, qmax, rng=use_rng), scale)


def _wide_dtype(config: QuantConfig):
    """What :func:`fake_quantize_observed` widens through."""
    return np.float16 if config.float16 else np.float64


def fake_quantize_observed(x: np.ndarray, observer, config: QuantConfig,
                           out: np.ndarray | None = None,
                           wide: np.ndarray | None = None) -> np.ndarray:
    """Observe one float32 input batch and fake-quantise it into ``out``.

    The input stage of the INT8 step, eager and compiled alike:
    bit-identical to ``observer.observe(x)`` followed by
    ``fake_quantize(x, config, scale=observer.scale)``, without that
    form's temporaries.  ``out`` is the compiled plan's input buffer
    (fresh when omitted) and doubles as the scratch of the peak
    reduction; ``wide`` is the float16 / float64 widening buffer of the
    configured format (``Int8StepScratch.input_buffers``) — the
    dequantisation multiplies by a float64 scale, and a float32 product
    would double-round.  The EMA advances on every call and the scale
    is re-read, so scale drift is an input of a compiled step, not
    part of it.  ``observer=None`` means activations are not
    quantised: ``x`` passes through (copied when ``out`` is given).
    """
    if observer is None:
        if out is None:
            return x
        np.copyto(out, x)
        return out
    if out is None:
        out = np.empty_like(x)
    observer.update(float(np.abs(x, out=out).max()))
    if wide is None:
        wide = np.empty(x.shape, dtype=_wide_dtype(config))
    if config.float16:
        np.copyto(wide, x)          # copyto casts exactly like astype
    else:
        scale, qmax = observer.scale, config.qmax
        np.divide(x, scale, out=out)
        np.rint(out, out=out)
        np.clip(out, -qmax, qmax, out=out)
        np.copyto(wide, out)
        np.multiply(wide, scale, out=wide)
    np.copyto(out, wide)
    return out


def fake_quantize_segments(flat: np.ndarray, starts: np.ndarray,
                           sizes: np.ndarray, config: QuantConfig,
                           rng: np.random.Generator | None = None
                           ) -> np.ndarray:
    """Fused :func:`fake_quantize` over contiguous segments of one array.

    ``flat`` is a 1-D float32 array; segment ``i`` spans
    ``flat[starts[i]:starts[i]+sizes[i]]`` and gets its own per-tensor
    scale, exactly as if :func:`fake_quantize` had been called on each
    segment in order — bit for bit, including the stochastic-rounding
    random stream: one ``rng.random(flat.size)`` draw consumes the PCG64
    stream identically to per-segment draws.
    """
    if config.float16:
        return flat.astype(np.float16).astype(np.float32)
    qmax = config.qmax
    maxima = np.maximum.reduceat(np.abs(flat), starts)
    # Per-tensor path computes the scale as a float64 python scalar but
    # divides weak-typed, i.e. in float32; mirror both dtypes exactly.
    scales = np.where(maxima == 0.0, 1.0, maxima.astype(np.float64) / qmax)
    scaled = flat / np.repeat(scales.astype(np.float32), sizes)
    if rng is not None and config.stochastic_rounding:
        floor = np.floor(scaled)
        frac = scaled - floor
        scaled = floor + (rng.random(flat.size) < frac)
    else:
        scaled = np.rint(scaled)
    q = np.clip(scaled, -qmax, qmax).astype(np.int32)
    # Dequantise: int32 * float64 scale, then one cast to float32 — the
    # same promotion ``(q * scale).astype(float32)`` performs per tensor.
    return (q * np.repeat(scales, sizes)).astype(np.float32)


class SegmentQuantizer:
    """Preallocated, in-place twin of :func:`fake_quantize_segments`.

    The functional form allocates roughly eight arrays per call; inside
    the compiled graph executor's replay loop that allocation churn is
    the dominant cost of the weight/gradient quantisation stages.  This
    class owns every scratch buffer up front and quantises ``flat``
    *in place*, producing bit-identical results — including the
    stochastic-rounding random stream: the single ``rng.random(out=)``
    draw consumes the PCG64 stream exactly like ``rng.random(n)``.

    One instance is bound to one ``(starts, sizes)`` segmentation (a
    :class:`repro.nn.flat.FlatLayout`'s parameter regions) and one
    :class:`QuantConfig`.  Pass ``stochastic=True`` to allocate the
    rounding buffers (gradient path); the weight path never draws.

    Nothing in the scratch outlives a call, so one instance serves any
    number of arrays of that segmentation one after another — a run
    keeps a single one (in its :class:`Int8StepScratch`) for the weight
    and the gradient stage of every replica, eager or compiled.
    """

    def __init__(self, starts: np.ndarray, sizes: np.ndarray,
                 config: QuantConfig, stochastic: bool = False):
        self.config = config
        self.starts = np.asarray(starts, dtype=np.intp)
        self.sizes = np.asarray(sizes, dtype=np.intp)
        n = int(self.sizes.sum())
        self.total = n
        if config.float16:
            self._h16 = np.empty(n, dtype=np.float16)
            return
        k = len(self.starts)
        self._abs = np.empty(n, dtype=np.float32)
        self._maxima = np.empty(k, dtype=np.float32)
        self._scales64 = np.empty(k, dtype=np.float64)
        self._scales32 = np.empty(k, dtype=np.float32)
        self._rep32 = np.empty(n, dtype=np.float32)
        self._rep64 = np.empty(n, dtype=np.float64)
        self._scaled = np.empty(n, dtype=np.float32)
        self._out64 = np.empty(n, dtype=np.float64)
        if stochastic and config.stochastic_rounding:
            self._floor = np.empty(n, dtype=np.float32)
            self._r64 = np.empty(n, dtype=np.float64)
            self._lt = np.empty(n, dtype=np.bool_)

    def buffers(self) -> list[np.ndarray]:
        """Every scratch array this instance owns (the private ones)."""
        return [v for k, v in vars(self).items() if k.startswith("_")]

    def __call__(self, flat: np.ndarray,
                 rng: np.random.Generator | None = None) -> None:
        """Quantise ``flat`` in place (1-D float32, length ``total``)."""
        config = self.config
        if config.float16:
            np.copyto(self._h16, flat)      # casts exactly like astype
            np.copyto(flat, self._h16)
            return
        qmax = config.qmax
        np.abs(flat, out=self._abs)
        np.maximum.reduceat(self._abs, self.starts, out=self._maxima)
        # astype-to-float64 *then* divide, exactly like the functional
        # form (a float32 divide widened afterwards rounds differently).
        np.copyto(self._scales64, self._maxima)
        self._scales64 /= qmax
        self._scales64[self._maxima == 0.0] = 1.0
        np.copyto(self._scales32, self._scales64)
        for i, (start, size) in enumerate(zip(self.starts, self.sizes)):
            self._rep32[start:start + size] = self._scales32[i]
            self._rep64[start:start + size] = self._scales64[i]
        scaled = self._scaled
        np.divide(flat, self._rep32, out=scaled)
        if rng is not None and config.stochastic_rounding:
            np.floor(scaled, out=self._floor)
            np.subtract(scaled, self._floor, out=scaled)      # frac
            rng.random(out=self._r64)
            np.less(self._r64, scaled, out=self._lt)
            np.add(self._floor, self._lt, out=scaled)
        else:
            np.rint(scaled, out=scaled)
        np.clip(scaled, -qmax, qmax, out=scaled)
        # The functional form casts to int32 here; the values are
        # already integral and within ±qmax, so float32 holds them
        # exactly and the int32 round trip is skippable.  The float64
        # dequantisation multiply is NOT: int32 * float64 promotes, and
        # a float32 product would double-round.
        np.multiply(scaled, self._rep64, out=self._out64)
        np.copyto(flat, self._out64)


class Int8StepScratch:
    """Everything one INT8 training step needs besides the replica's
    own weights, momentum and RNG, for one (layout, config): the
    master-weight snapshot, one :class:`SegmentQuantizer` serving both
    the weight and the gradient stage (they never overlap) and the
    clip's float64 buffer.  Nothing in it outlives a step, so a run
    pools one in its arena for all replicas, eager and compiled alike;
    ``guard`` is the re-entrancy cell the compiled plans drawing on it
    share.
    """

    def __init__(self, layout, config: QuantConfig):
        n = layout.num_params
        self.config = config
        self.guard = [False]
        self.masters = np.empty(layout.param_total, dtype=np.float32)
        self.quant: SegmentQuantizer | None = None
        if config.quantize_weights or config.quantize_gradients:
            self.quant = SegmentQuantizer(
                layout.offsets[:n], layout.sizes[:n], config,
                stochastic=config.quantize_gradients)
        self._own = [self.masters]
        # the clip squares in float64; the integer quantiser's float64
        # product buffer is idle whenever the clip runs
        if self.quant is not None and not config.float16:
            self._sq = self.quant._out64
        else:
            self._sq = np.empty(layout.param_total, dtype=np.float64)
            self._own.append(self._sq)
        self._sq_segments = tuple(
            self._sq[a:b] for a, b in zip(layout.offsets[:n],
                                          layout.offsets[1:n + 1]))

    @classmethod
    def pooled(cls, arena, layout, config: QuantConfig) -> "Int8StepScratch":
        """The one instance ``arena`` keeps for (layout, config)."""
        return arena.pooled(("int8", layout, config),
                            lambda: cls(layout, config))

    def clip(self, grads: np.ndarray, max_norm: float) -> None:
        """Global-norm clip of the fused gradient ``grads`` in place.

        Bit-identical to the per-parameter clip of
        ``Int8Trainer.after``: squares in
        float64, one pairwise ``np.sum`` per parameter segment
        accumulated in parameter order (float addition order matters),
        then a single multiply of the whole buffer — elementwise what
        the per-view loop does, since the parameter views tile it.
        """
        np.copyto(self._sq, grads)              # astype-exact widening
        np.square(self._sq, out=self._sq)       # ndarray ** 2 is np.square
        total = 0.0
        for segment in self._sq_segments:
            total += float(np.sum(segment))
        norm = np.sqrt(total)
        if norm > max_norm:
            np.multiply(grads, max_norm / norm, out=grads)

    def buffers(self) -> list[np.ndarray]:
        return self._own + (self.quant.buffers()
                            if self.quant is not None else [])

    def input_buffers(self, shape) -> tuple:
        """Fresh :func:`fake_quantize_observed` scratch for one batch
        shape (``wide``) — not pooled: the compiled plan of that shape
        owns it."""
        if not self.config.quantize_activations:
            return ()
        return (np.empty(shape, dtype=_wide_dtype(self.config)),)


def quantization_error(x: np.ndarray, config: QuantConfig) -> float:
    """Relative L2 error introduced by one quantisation round trip."""
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(fake_quantize(x, config) - x)) / norm
