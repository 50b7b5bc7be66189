"""The array kernels every op of :mod:`repro.nn` is spelled with.

An op's forward and backward (``nn/tensor.py``, ``nn/functional.py``,
``quant/ste.py``) do their array arithmetic, reductions, copies and
in-place writes by calling the functions below instead of raw numpy;
views (``reshape`` of a contiguous array, ``transpose``, slicing,
``expand_dims``, ``swapaxes``, ``broadcast_to``) and shape arithmetic
stay plain numpy.  That is the whole contract between an op and the
graph executor (:mod:`repro.nn.graph`): while a training step is being
captured, :data:`trace` is the recorder and every kernel call reports
``(kernel, arguments, result)`` to it; the compiled step is that call
stream replayed with ``out=`` buffers.  With no trace active a kernel
is its numpy call plus one ``is None`` test.

Every kernel follows one convention:

- ``kernel(*args, out=None)`` returns the result array.  Without
  ``out`` it allocates the result (or returns a view of an argument
  when there is nothing to compute); with ``out`` it overwrites *all*
  of ``out`` and returns it.  A partial write is spelled by passing a
  view as ``out``; an in-place update by passing an argument as ``out``.
- The result is the same bits either way — ``out=`` ufuncs run the
  same inner loops as their allocating forms, ``np.copyto`` casts
  exactly like ``astype`` — so a replay is bit-identical to the eager
  step by construction.
- Anything a kernel reads that changes between steps is an array
  argument or lives in an object argument (a layer's generator, a
  range observer).  Python scalars are configuration: a replay bakes
  them in.

Two properties tell the compiler what it may do with a call:
``elementwise`` (``out`` may be the storage of any argument with the
same layout that dies at this call) and ``constant`` (the result
depends on no array, so a buffer nobody accumulates into is computed
once per plan instead of once per step).  Two kernels it knows by
name, for what they are: :func:`copy`, the identity (computed in place
it is no call at all), and :func:`empty`, storage without a value
(never a call).
"""

from __future__ import annotations

import functools

import numpy as np

#: the recorder of the step being captured
#: (:class:`repro.nn.graph.GraphCapture`), or ``None``
trace = None


def _kernel(raw=None, *, elementwise: bool = False, constant: bool = False):
    """Enter ``raw(*args, out=None, **kwargs)`` into the table."""
    if raw is None:
        return functools.partial(_kernel, elementwise=elementwise,
                                 constant=constant)
    nin = raw.nin if isinstance(raw, np.ufunc) else None
    if nin == 1:        # fixed-arity forms: most calls are ufuncs, and
        def call(a, out=None):      # ``*args`` costs as much as the test
            result = raw(a, out=out)
            if trace is not None:
                return trace.record(call, (a,), {}, out, result)
            return result
    elif nin == 2:
        def call(a, b, out=None):
            result = raw(a, b, out=out)
            if trace is not None:
                return trace.record(call, (a, b), {}, out, result)
            return result
    else:
        def call(*args, out=None, **kwargs):
            result = raw(*args, out=out, **kwargs)
            if trace is not None:
                return trace.record(call, args, kwargs, out, result)
            return result

    call.raw = raw
    call.elementwise = elementwise
    call.constant = constant
    call.__name__ = call.__qualname__ = raw.__name__
    call.__doc__ = raw.__doc__
    return call


# -- ufuncs and reductions: numpy's own functions ------------------------
add = _kernel(np.add, elementwise=True)
subtract = _kernel(np.subtract, elementwise=True)
multiply = _kernel(np.multiply, elementwise=True)
divide = _kernel(np.divide, elementwise=True)
negative = _kernel(np.negative, elementwise=True)
power = _kernel(np.power, elementwise=True)
square = _kernel(np.square, elementwise=True)
exp = _kernel(np.exp, elementwise=True)
log = _kernel(np.log, elementwise=True)
sqrt = _kernel(np.sqrt, elementwise=True)
tanh = _kernel(np.tanh, elementwise=True)
clip = _kernel(np.clip, elementwise=True)
greater = _kernel(np.greater)
greater_equal = _kernel(np.greater_equal)
less_equal = _kernel(np.less_equal)
equal = _kernel(np.equal)
logical_and = _kernel(np.logical_and, elementwise=True)
mean = _kernel(np.mean)
var = _kernel(np.var)
matmul = _kernel(np.matmul)


@_kernel
def sum(a, axis=None, keepdims=False, out=None):    # noqa: A001 -- ``K.sum``
    """``np.sum`` minus its Python-side dispatch (what it calls)."""
    return np.add.reduce(a, axis=axis, keepdims=keepdims, out=out)


@_kernel
def amax(a, axis=None, keepdims=False, out=None):
    return np.maximum.reduce(a, axis=axis, keepdims=keepdims, out=out)


@_kernel
def einsum(spec, a, b, out=None):
    return np.einsum(spec, a, b, out=out, optimize=True)


# -- allocation, copies, gathers and scatters ------------------------------
def _zeroed(arr: np.ndarray) -> np.ndarray:
    arr[...] = 0
    return arr


@_kernel(constant=True)
def zeros(shape, dtype=np.float32, order="C", out=None):
    return np.zeros(shape, dtype, order) if out is None else _zeroed(out)


@_kernel(constant=True)
def ones(shape, out=None):
    if out is None:
        return np.ones(shape, np.float32)
    out[...] = 1
    return out


@_kernel
def empty(shape, dtype, out=None):
    """Scratch with unspecified content (handed to a kernel that needs
    working storage, so a compiled step gets it from the arena)."""
    return np.empty(shape, dtype) if out is None else out


@_kernel(elementwise=True)
def copy(a, dtype=np.float32, out=None):
    """A C-ordered copy of ``a`` cast to ``dtype`` (``out``'s own when
    given)."""
    if out is None:
        return a.astype(dtype, order="C", copy=True)
    np.copyto(out, a)
    return out


#: ``ndarray.reshape(copy=False)`` (numpy 2.1) refuses where it would
#: have to copy; older numpy is asked after the fact, which costs a
#: discarded copy on the copying case
_RESHAPE_REFUSES = np.lib.NumpyVersion(np.__version__) >= "2.1.0"


def reshape(a: np.ndarray, shape) -> np.ndarray:
    """``a.reshape(shape)``.  Not a kernel: a view where numpy makes
    one, and where it has to copy the copy is :func:`copy`'s."""
    if a.flags.c_contiguous:
        return a.reshape(shape)
    if _RESHAPE_REFUSES:
        try:
            return a.reshape(shape, copy=False)
        except ValueError:
            return copy(a, a.dtype).reshape(shape)
    view = a.reshape(shape)
    if np.may_share_memory(view, a):
        return view
    return copy(a, a.dtype).reshape(shape)


@_kernel
def concatenate(axis, *arrays, out=None):
    return np.concatenate(arrays, axis=axis, out=out)


@_kernel
def take(a, index, out=None):
    """``a[index]`` for an advanced (copying) index."""
    if out is None:
        return a[index]
    out[...] = a[index]
    return out


@_kernel
def scatter_add(index, values, shape, out=None):
    """Zeros of ``shape`` with ``values`` added at ``index`` (repeated
    indices accumulate)."""
    out = np.zeros(shape, np.float32) if out is None else _zeroed(out)
    np.add.at(out, index, values)
    return out


# -- convolution layout ------------------------------------------------------
# Patch columns are K-major: ``(C*k*k, N, L)`` with ``L = out_h*out_w``.
# One sample's columns are the ``(C*k*k, L)`` panel ``cols[:, n]`` with
# row pitch ``N*L`` (a leading dimension to BLAS: a per-sample ``matmul``
# reads and writes it in place), and all samples together are the
# ``(C*k*k, N*L)`` matrix of the weight-gradient GEMM — as a view, where
# the N-major layout has that GEMM transpose-copy the layer's largest
# tensor first.  Pooling windows are the ``C = 1`` case over ``N*C``
# images: one contiguous slab per window position.

#: maps this wide are gathered through one flat index instead of copied
#: window by window: that copy's inner runs are ``out_w`` long, and at 2
#: its per-run overhead costs 3-4x the gather (at 4 the two are within
#: 1.1-1.8x for an index four times the size; at 1 the windows are
#: whole images and the copy is a plain transpose)
_GATHER_WIDTH = 2

#: ... and only while the index (as long as the columns, kept per shape)
#: stays small: training batches, not a 256-image evaluation batch
_GATHER_MAX_SIZE = 1 << 17

#: overlapping windows are folded as whole-image runs while the padded
#: image is at most this many times the size of the map (a 1x1 map
#: under a 3x3 kernel is 9 times: nine tenths of each run would be
#: filler)
_WIDE_MAX_BLOWUP = 4


def _windows(h: int, w: int, kernel: int, stride: int) -> tuple[int, int]:
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


@functools.lru_cache(maxsize=32)
def _gather_index(x_shape: tuple, kernel: int, stride: int) -> np.ndarray:
    """Where in a flat ``x`` each element of its K-major columns sits
    (int32: the index is as long as the columns, and kept)."""
    at = np.arange(int(np.prod(x_shape)), dtype=np.int32).reshape(x_shape)
    index = np.lib.stride_tricks.sliding_window_view(
        at, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    index = np.ascontiguousarray(index.transpose(1, 4, 5, 0, 2, 3)).reshape(-1)
    index.flags.writeable = False       # one array, handed to every caller
    return index


def _six(cols, x_shape, kernel, stride):
    """``cols`` as the view ``(C, k, k, N, out_h, out_w)``: it is that
    already, or K-major ``(C*k*k, N, L)``."""
    if cols.ndim == 6:
        return cols
    n, c, h, w = x_shape
    return cols.reshape(c, kernel, kernel, n, *_windows(h, w, kernel, stride))


@_kernel
def im2col(x, kernel, stride, out=None):
    """Unfold NCHW ``x`` into K-major ``(C*k*k, N, L)`` patch columns.

    ``x`` must already be padded.  A 1x1 kernel at stride 1 needs no
    copy (the columns are a view of ``x``); a training batch of maps
    two pixels wide is gathered through a flat index kept per shape;
    anything else is one strided copy.  ``out``, when given, is a
    contiguous ``(C*k*k, N, L)`` array or any ``(C, k, k, N, out_h,
    out_w)`` view — a transposed one receives the same columns in
    another memory order.
    """
    n, c, h, w = x.shape
    out_h, out_w = _windows(h, w, kernel, stride)
    if kernel == 1 and stride == 1 and out is None:
        return x.reshape(n, c, h * w).transpose(1, 0, 2)
    if out is None:
        out = np.empty((c * kernel * kernel, n, out_h * out_w), x.dtype)
    if (out.ndim == 3 and out_w == _GATHER_WIDTH
            and out.size <= _GATHER_MAX_SIZE):
        np.take(x.reshape(-1), _gather_index(x.shape, kernel, stride),
                out=out.reshape(-1), mode="clip")
        return out
    s0, s1, s2, s3 = x.strides
    np.copyto(_six(out, x.shape, kernel, stride),
              np.lib.stride_tricks.as_strided(
                  x, shape=(c, kernel, kernel, n, out_h, out_w),
                  strides=(s1, s2, s3, s0, s2 * stride, s3 * stride),
                  writeable=False))
    return out


def wide_shape(x_shape, kernel: int, stride: int) -> tuple | None:
    """The shape of the working storage :func:`col2im` folds these
    windows through, or None when it takes a path that needs none."""
    n, c, h, w = x_shape
    out_h, out_w = _windows(h, w, kernel, stride)
    if stride != 1 or kernel == 1 or h * w > _WIDE_MAX_BLOWUP * out_h * out_w:
        return None
    return (kernel, n, c, h, w)


@_kernel
def col2im(cols, x_shape, kernel, stride, wide=None, out=None):
    """Fold K-major ``(C*k*k, N, L)`` columns (or any ``(C, k, k, N,
    out_h, out_w)`` view) back into NCHW, summing overlaps per kernel
    offset ``(ki, kj)``, in that order.

    Non-overlapping strides take copy-only paths (no accumulation).
    Overlapping windows at stride 1 are folded through ``wide`` (float32
    working storage of :func:`wide_shape`, allocated when absent), one
    kernel row of offsets at a time: the columns of each offset are
    scattered once into a zeroed image of their own, rows at the image's
    pitch, which makes the window of offset ``(ki, kj)`` over *all*
    images the one contiguous run of the flat output that starts at
    ``ki*w + kj``.  The ``+0.0`` filler between the rows lands on pixels of other windows and changes none
    of them: the accumulator starts at ``+0.0``, a float sum is ``-0.0``
    only when both terms are, so it never is, and ``a + +0.0`` is ``a``
    bit for bit for every other ``a``, NaN payloads included.
    """
    n, c, h, w = x_shape
    out_h, out_w = _windows(h, w, kernel, stride)
    cols = _six(cols, x_shape, kernel, stride)
    if stride == kernel and h == out_h * kernel and w == out_w * kernel:
        # Exact tiling (the pooling case): pure scatter-free transpose.
        x = np.empty(x_shape, dtype=cols.dtype) if out is None else out
        np.copyto(x.reshape(n, c, out_h, kernel, out_w, kernel),
                  cols.transpose(3, 0, 4, 1, 5, 2))
        return x
    x = np.zeros(x_shape, dtype=cols.dtype) if out is None else _zeroed(out)
    shape = wide_shape(x_shape, kernel, stride)
    if shape is not None:
        wide = np.empty(shape, cols.dtype) if wide is None else wide
        flat = x.reshape(-1)
        for ki in range(kernel):        # one kernel row of offsets at a time
            wide[...] = 0
            wide[..., :out_h, :out_w] = cols[:, ki].transpose(1, 2, 0, 3, 4)
            for kj in range(kernel):
                run = flat[ki * w + kj:]
                np.add(run, wide[kj].reshape(-1)[:run.size], out=run)
        return x
    for ki in range(kernel):
        for kj in range(kernel):
            window = x[:, :, ki:ki + stride * out_h:stride,
                       kj:kj + stride * out_w:stride]
            offset = cols[:, ki, kj].transpose(1, 0, 2, 3)
            if stride >= kernel:
                # Disjoint windows with possible gaps: assign.
                window[...] = offset
            else:
                window += offset
    return x


def _select_mask(picked: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask`` (unsigned, the width of the floats it will select) set
    to all ones where the boolean ``picked`` is true, zero elsewhere."""
    np.copyto(mask, picked)
    return np.negative(mask, out=mask)


@_kernel
def window_max(cols, index, out=None):
    """The maximum of each pooling window — ``cols`` is ``(k*k, M, L)``,
    one slab per window position — and, in ``index`` (integer storage
    shaped like a slab), which slab it came from.

    It is the *first* maximum, as ``np.argmax`` picks it: a tie,
    ``-0.0 == +0.0`` included, keeps the earlier slab, and a window
    holding NaNs yields its first.  Values are selected as bit patterns
    (a sign of zero or a NaN payload is the chosen slab's own), slab by
    slab over whole contiguous slabs, where ``argmax`` walks a strided
    axis element by element.
    """
    if out is None:
        out = np.empty(cols.shape[1:], cols.dtype)
    unsigned = np.dtype(f"u{cols.itemsize}")
    best, slabs = out.view(unsigned), cols.view(unsigned)
    np.copyto(out, cols[0])
    index[...] = 0
    ahead, ordered = np.empty((2, *out.shape), bool)
    step = np.empty_like(index)
    mask, swap = np.empty((2, *out.shape), unsigned)
    for slab in range(1, len(cols)):
        # ahead: larger than the best so far, or the first NaN
        np.less_equal(cols[slab], out, out=ahead)
        np.logical_not(ahead, out=ahead)
        np.equal(out, out, out=ordered)
        np.logical_and(ahead, ordered, out=ahead)
        # slabs only go up: index = max(index, slab where ahead)
        np.multiply(ahead, index.dtype.type(slab), out=step)
        np.maximum(index, step, out=index)
        # best ^= (best ^ slab) & mask: the slab's bits where ahead
        np.bitwise_xor(best, slabs[slab], out=swap)
        np.bitwise_and(swap, _select_mask(ahead, mask), out=swap)
        np.bitwise_xor(best, swap, out=best)
    return out


@_kernel
def window_scatter(index, values, slabs, out=None):
    """Zeros of ``(slabs, *values.shape)`` with each value in the slab
    ``index`` names — the gradient columns of :func:`window_max` — also
    as bit patterns: a routed value is exact whatever it is, and the
    rest is ``+0.0``."""
    if out is None:
        out = np.empty((slabs, *values.shape), values.dtype)
    unsigned = np.dtype(f"u{values.itemsize}")
    bits, planes = values.view(unsigned), out.view(unsigned)
    hit = np.empty(values.shape, bool)
    mask = np.empty(values.shape, unsigned)
    for slab in range(slabs):
        np.equal(index, slab, out=hit)
        np.bitwise_and(bits, _select_mask(hit, mask), out=planes[slab])
    return out


# -- quantisation and the loss ------------------------------------------------
@_kernel(elementwise=True)
def fake_quant(a, scale, qmax, scratch, wide, rng=None, mask=None, out=None):
    """Fake-quantise float32 ``a`` onto the symmetric integer grid
    ``±qmax`` — the one spelling of "round to the grid", bit-identical
    to the int32 reference ``dequantize(quantize(a, scale, qmax, rng),
    scale)`` of :mod:`repro.quant.int8`.

    ``scale`` is a float; a live range observer (the kernel folds this
    batch's peak into it and reads the scale back, so scale drift is an
    input of a compiled step, not part of it); or a ``(float32,
    float64)`` pair of per-element scale arrays (each segment's
    :func:`segment_scales` value over its elements) — the reference divides in float32 and multiplies int32 by a
    float64 scale, where a float32 product would double-round.  Its
    int32 round trip is skipped: float32 holds the post-clip integers
    exactly for ``qmax < 2**24``, and ``QuantConfig`` allows 16 bits.
    With ``rng`` rounding is stochastic, floor + (u < frac), ``u`` one
    float64 draw into ``wide``: the stream of ``rng.random(a.shape)``.

    ``scratch`` (float32), ``wide`` (float64) and, with ``rng``,
    ``mask`` (bool) are working storage shaped like ``a``.  ``out`` may
    be ``a`` or, without ``rng`` (which keeps the floors there),
    ``scratch``: both are done with before the first write.
    """
    if hasattr(scale, "update"):
        scale.update(float(np.abs(a, out=scratch).max()))
        scale = scale.scale
    narrow, widened = scale if isinstance(scale, tuple) else (scale, scale)
    out = np.divide(a, narrow, out=out)
    if rng is None:
        np.rint(out, out=out)
    else:
        np.floor(out, out=scratch)
        np.subtract(out, scratch, out=out)      # the fractional part
        rng.random(out=wide)
        np.less(wide, out, out=mask)
        np.add(scratch, mask, out=out)
    np.clip(out, -qmax, qmax, out=out)
    np.multiply(out, widened, out=wide, dtype=np.float64)
    np.copyto(out, wide)
    return out


def segment_scales(a, starts, qmax) -> np.ndarray:
    """The per-tensor scale of each segment of the 1-D float32 ``a``,
    as float64: segment ``i`` runs from ``starts[i]`` to the next start
    (the last to the end) and gets ``max|a| / qmax``, or 1 when it is
    all zero — the float32 peak widened *then* divided (the other order
    rounds differently).  The peak is ``max(max a, -min a)``, which
    needs no ``|a|`` the size of ``a``.
    """
    peaks = np.minimum.reduceat(a, starts)
    np.negative(peaks, out=peaks)
    np.maximum(peaks, np.maximum.reduceat(a, starts), out=peaks)
    scales = peaks.astype(np.float64)
    scales /= qmax
    scales[peaks == 0.0] = 1.0
    return scales


@_kernel(elementwise=True)
def fp16_round_trip(a, half, out=None):
    """``a`` rounded to IEEE float16 and widened back; ``half`` is the
    float16 working storage shaped like ``a``."""
    np.copyto(half, a)              # copyto casts exactly like astype
    if out is None:
        return half.astype(np.float32)
    np.copyto(out, half)
    return out


@_kernel
def ce_loss(log_probs, targets, inv_n, out=None):
    """``-mean(log_probs[i, targets[i]])`` as a 0-d float32 array."""
    picked = log_probs[np.arange(len(targets)), targets]
    loss = -(picked.sum() * inv_n)
    if out is None:
        return np.asarray(loss, dtype=np.float32)
    out[...] = loss
    return out


@_kernel
def ce_grad(grad, soft, targets, inv_n, out=None):
    """Gradient of :func:`ce_loss` through the log-softmax: the gather
    indices are unique, so the scatter is a direct assignment."""
    upstream = (-grad) * inv_n           # d loss / d picked[i]
    out = np.zeros_like(soft) if out is None else _zeroed(out)
    out[np.arange(len(targets)), targets] = upstream
    out -= soft * upstream
    return out
