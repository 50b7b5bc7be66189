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
  argument or lives in an object argument (a dropout generator, a
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
argmax = _kernel(np.argmax)
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


def reshape(a: np.ndarray, shape) -> np.ndarray:
    """``a.reshape(shape)``.  Not a kernel: a view where numpy makes
    one, and where it has to copy the copy is :func:`copy`'s."""
    view = a.reshape(shape)
    if a.flags.c_contiguous or np.may_share_memory(view, a):
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


@_kernel
def take_along(a, index, axis, out=None):
    picked = np.take_along_axis(a, index, axis)
    if out is None:
        return picked
    np.copyto(out, picked)
    return out


@_kernel
def put_along(index, values, axis, shape, out=None):
    """Zeros of ``shape`` with ``values`` put at ``index`` along ``axis``."""
    out = np.zeros(shape, values.dtype) if out is None else _zeroed(out)
    np.put_along_axis(out, index, values, axis)
    return out


@_kernel
def random(rng, shape, out=None):
    """One uniform float64 draw from ``rng`` (the same stream position
    either way)."""
    return rng.random(shape) if out is None else rng.random(out=out)


# -- convolution layout ------------------------------------------------------
@_kernel
def im2col(x, kernel, stride, out=None):
    """Unfold NCHW ``x`` into ``(N, C*k*k, L)`` patch columns.

    ``x`` must already be padded.  Uses stride tricks: no data copy
    until the final reshape (none at all for a 1x1 kernel at stride 1,
    where the columns are a view of ``x``).  ``out``, when given, must
    be a contiguous ``(N, C*k*k, L)`` array.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    if out is None:
        return windows.reshape(n, c * kernel * kernel, out_h * out_w)
    np.copyto(out.reshape(n, c, kernel, kernel, out_h, out_w), windows)
    return out


@_kernel
def col2im(cols, x_shape, kernel, stride, out=None):
    """Fold ``(N, C*k*k, L)`` columns back into NCHW, summing overlaps.

    Non-overlapping strides take copy-only fast paths (no zero-init, no
    accumulation); the generic overlapping case accumulates per kernel
    offset.
    """
    n, c, h, w = x_shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    if (stride == kernel and h == out_h * kernel and w == out_w * kernel):
        # Exact tiling (the pooling case): pure scatter-free transpose.
        x = np.empty(x_shape, dtype=cols.dtype) if out is None else out
        np.copyto(x.reshape(n, c, out_h, kernel, out_w, kernel),
                  cols.transpose(0, 1, 4, 2, 5, 3))
        return x
    x = np.zeros(x_shape, dtype=cols.dtype) if out is None else _zeroed(out)
    for ki in range(kernel):
        h_end = ki + stride * out_h
        for kj in range(kernel):
            w_end = kj + stride * out_w
            window = x[:, :, ki:h_end:stride, kj:w_end:stride]
            if stride >= kernel:
                # Disjoint windows with possible gaps: assign.
                window[...] = cols[:, :, ki, kj]
            else:
                window += cols[:, :, ki, kj]
    return x


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
    float64)`` pair of per-element scale arrays (:func:`segment_scales`)
    — the reference divides in float32 and multiplies int32 by a
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
    np.copyto(wide, out)
    np.multiply(wide, widened, out=wide)
    np.copyto(out, wide)
    return out


def segment_scales(a, starts, qmax, scratch, narrow, widened) -> None:
    """Fill ``narrow`` (float32) and ``widened`` (float64) with each
    element's per-tensor scale: segment ``i`` of the 1-D float32 ``a``
    runs from ``starts[i]`` to the next start (the last to the end) and
    gets ``max|a| / qmax``, or 1 when it is all zero — the float32 peak
    widened *then* divided (the other order rounds differently), and
    its float32 rounding, which is what a float32 array divided by that
    Python float is divided by.  ``scratch`` is float32 like ``a``.
    """
    np.abs(a, out=scratch)
    maxima = np.maximum.reduceat(scratch, starts)
    scales = maxima.astype(np.float64)
    scales /= qmax
    scales[maxima == 0.0] = 1.0
    bounds = [*starts.tolist(), a.size]
    for start, stop, scale in zip(bounds, bounds[1:], scales.tolist()):
        narrow[start:stop] = scale
        widened[start:stop] = scale


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
