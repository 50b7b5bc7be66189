"""Neural-network ops with hand-written, vectorised backward passes.

Convolution uses im2col/col2im so that both directions reduce to one
large matrix multiply — the only way a pure-numpy CNN stays fast enough
to train inside the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from . import kernels as K
from .kernels import col2im, im2col
from .tensor import Tensor, grad_enabled

__all__ = [
    "linear", "conv2d", "max_pool2d", "global_avg_pool2d",
    "batch_norm", "log_softmax", "softmax", "cross_entropy",
    "im2col", "col2im", "clear_workspaces", "workspace_evictions",
    "workspace_mark", "release_workspaces",
]

# ---------------------------------------------------------------------------
# Workspace buffers
#
# The conv/pool hot path allocates the same large scratch arrays every
# step (im2col columns, col2im outputs, gradient columns).  A small
# keyed cache reuses them across steps.  Only arrays whose lifetime ends
# within the op that requested them may come from here — anything a
# backward closure captures (e.g. the forward im2col columns of conv2d)
# must stay freshly allocated, because a later layer with the same shape
# would overwrite it.
# ---------------------------------------------------------------------------

_WORKSPACES: dict[tuple, np.ndarray] = {}
_WORKSPACE_LIMIT = 64
#: process-wide tallies: buffers ever created, buffers evicted at the limit
_WORKSPACE_COUNTS = {"created": 0, "evicted": 0}


def _workspace(tag: str, shape: tuple[int, ...],
               dtype=np.float32) -> np.ndarray:
    key = (tag, shape, np.dtype(dtype))
    buf = _WORKSPACES.get(key)
    if buf is None:
        if len(_WORKSPACES) >= _WORKSPACE_LIMIT:
            # Full: drop the oldest buffer only (the dict keeps creation
            # order).  Counted — a run cycling through more shapes than
            # the limit reallocates every step and should say so.
            del _WORKSPACES[next(iter(_WORKSPACES))]
            _WORKSPACE_COUNTS["evicted"] += 1
        buf = np.empty(shape, dtype=dtype)
        _WORKSPACES[key] = buf
        _WORKSPACE_COUNTS["created"] += 1
    return buf


def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """Float32 working storage that is dead again when the kernel call
    it is handed to returns.  Nothing is carried between calls, so
    callers share buffers by size class (the next power of two) instead
    of holding one per shape."""
    size = int(np.prod(shape))
    return _workspace("scratch", (1 << size.bit_length(),))[:size].reshape(
        shape)


def _fold(grad_cols: np.ndarray, x_shape: tuple, kernel: int, stride: int,
          tag: str) -> np.ndarray:
    """``col2im`` of gradient columns into the reusable ``tag`` buffer,
    with the scratch its wide-row path wants."""
    wide = K.wide_shape(x_shape, kernel, stride)
    if wide is not None:
        wide = K.empty(wide, np.float32, out=_scratch(wide))
    return col2im(grad_cols, x_shape, kernel, stride, wide,
                  out=_workspace(tag, x_shape))


def clear_workspaces() -> None:
    """Drop all cached scratch buffers (frees memory; safe any time)."""
    _WORKSPACES.clear()


def workspace_mark() -> tuple[int, int, int]:
    """A point in the cache's history — buffers created, evicted and
    cached so far — for the two functions below."""
    return (_WORKSPACE_COUNTS["created"], _WORKSPACE_COUNTS["evicted"],
            len(_WORKSPACES))


def workspace_evictions(mark: tuple[int, int, int]) -> int:
    """Buffers created since ``mark`` that the full cache evicted again:
    the working set since then does not fit.  Eviction is oldest-first,
    so the first evictions after ``mark`` only clear out what was
    cached before it and say nothing about the work since — which makes
    the count independent of what the process ran earlier."""
    _, evicted, cached = mark
    return max(0, _WORKSPACE_COUNTS["evicted"] - evicted - cached)


def release_workspaces(mark: tuple[int, int, int]) -> None:
    """Drop the buffers created since ``mark`` (safe any time: a buffer
    still wanted is simply allocated again)."""
    fresh = min(len(_WORKSPACES), _WORKSPACE_COUNTS["created"] - mark[0])
    for key in list(_WORKSPACES)[len(_WORKSPACES) - fresh:]:
        del _WORKSPACES[key]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with ``weight`` shaped (out, in)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` is shaped ``(out_channels, in_channels // groups, k, k)``.
    ``groups=in_channels`` gives the depthwise convolution MobileNet needs.

    With ``groups == 1`` every product is a ``matmul`` on the K-major
    columns of :func:`repro.nn.kernels.im2col`: per sample on
    ``(C*k*k, L)`` panels forward and for the input gradient, and one
    ``(C*k*k, N*L) @ (N*L, O)`` GEMM on a *view* of the columns for the
    weight gradient.  Under :func:`~repro.nn.tensor.no_grad` nothing is
    kept for backward, and the forward unfolds :data:`_CHUNK` samples
    at a time instead of the whole batch (:func:`_conv_chunked`).
    """
    if padding:
        x = x.pad2d(padding)
    n, c, h, w = x.shape
    out_c, in_c_per_group, kernel, _ = weight.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    # The forward columns are captured by the backward closure, so they
    # must NOT come from the reusable workspace (a same-shape sibling
    # layer would overwrite them before backward runs).  Without a tape
    # nothing captures them: they are built a chunk at a time in scratch.
    # Grouped columns stay whole: einsum picks its loop order by operand
    # shape, so a chunk of them would move bits.
    if groups == 1 and not grad_enabled() and (kernel, stride) != (1, 1):
        out_data = _conv_chunked(x.data, weight.data.reshape(out_c, -1),
                                 kernel, stride, out_h * out_w)
        backward = None
    elif groups == 1:
        cols = im2col(x.data, kernel, stride)               # (C*k*k, N, L)
        w_mat = weight.data.reshape(out_c, -1)              # (O, C*k*k)
        out_data = K.matmul(w_mat[None, :, :], cols.transpose(1, 0, 2))

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, out_c, -1)           # (N, O, L)
            if weight.requires_grad and grad_mat.size == out_c:
                # One column is no GEMM: einsum spelled its gradient as
                # the outer product of both operands summed over their
                # singleton axes, where a zero loses its sign (a GEMM
                # adds the signed products to +0.0 instead).
                weight._accumulate(K.multiply(
                    K.add(K.reshape(cols, (1, -1)), 0.0),
                    K.add(grad_mat[0], 0.0)).reshape(weight.shape))
            elif weight.requires_grad:
                grad_rows = K.reshape(grad_mat.transpose(0, 2, 1),
                                      (-1, out_c))          # (N*L, O)
                weight._accumulate(K.matmul(
                    K.reshape(cols, (len(cols), -1)), grad_rows,
                ).T.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = _workspace("conv_gcols", cols.shape)
                K.matmul(w_mat.T[None, :, :], grad_mat,
                         out=grad_cols.transpose(1, 0, 2))
                x._accumulate(_fold(grad_cols, x.shape, kernel, stride,
                                    "conv_gx"))
    else:
        # Grouped/depthwise: three einsums, batched over the group
        # axis.  numpy lowers each to a batched matmul whose operand
        # order and BLAS variant follow the strides it is handed, so
        # these columns stay N-major, (N, C*k*k, L): the same kernels
        # fill and fold them through a transposed view.
        def k_major(columns: np.ndarray) -> np.ndarray:
            return columns.reshape(n, c, kernel, kernel, out_h, out_w
                                   ).transpose(1, 2, 3, 0, 4, 5)

        group_out = out_c // groups
        cols = K.empty((n, groups, in_c_per_group * kernel * kernel,
                        out_h * out_w), np.float32)
        im2col(x.data, kernel, stride, out=k_major(cols))
        w_mat = weight.data.reshape(groups, group_out, -1)
        out_data = K.einsum(
            "gok,ngkl->ngol", w_mat, cols,
            out=K.empty((n, groups, group_out, cols.shape[-1]), np.float32))

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, groups, group_out, -1)
            if weight.requires_grad:
                weight._accumulate(K.einsum(
                    "ngol,ngkl->gok", grad_mat, cols,
                    out=K.empty(w_mat.shape, np.float32)
                ).reshape(weight.shape))
            if x.requires_grad:
                grad_cols = K.einsum("gok,ngol->ngkl", w_mat, grad_mat,
                                     out=K.empty(cols.shape, np.float32))
                x._accumulate(_fold(k_major(grad_cols), x.shape, kernel,
                                    stride, "conv_gx"))

    out = Tensor._make(out_data.reshape(n, out_c, out_h, out_w),
                       (x, weight), backward)
    if bias is not None:
        out = out + bias.reshape(1, out_c, 1, 1)
    return out


#: samples an inference convolution (nothing kept for backward) unfolds
#: at a time: its columns are this many samples' worth, not the batch's
_CHUNK = 16


def _conv_chunked(x: np.ndarray, w_mat: np.ndarray, kernel: int,
                  stride: int, length: int) -> np.ndarray:
    """The ``groups == 1`` forward with no backward to feed: columns of
    :data:`_CHUNK` samples at a time in one scratch buffer, each
    sample's ``(O, C*k*k) x (C*k*k, L)`` product written straight into
    the output — the whole-batch forward's panels, whose leading
    dimension alone differs, so the same bits."""
    n = len(x)
    rows = w_mat.shape[1]
    out = K.empty((n, len(w_mat), length), np.float32)
    buf = _scratch((rows * min(n, _CHUNK) * length,))
    for lo in range(0, n, _CHUNK):
        part = x[lo:lo + _CHUNK]
        cols = im2col(part, kernel, stride,
                      out=buf[:rows * len(part) * length].reshape(
                          rows, len(part), length))
        K.matmul(w_mat[None, :, :], cols.transpose(1, 0, 2),
                 out=out[lo:lo + len(part)])
    return out


def _pool_cols(x: Tensor, kernel: int, stride: int):
    """``x``'s pooling windows as ``(k*k, N*C, L)`` columns — one
    contiguous slab per window position — and the shape of the output.
    Neither the columns nor the gradient columns outlive the op, so
    both come from reusable workspaces (no per-step allocation)."""
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols_shape = (kernel * kernel, n * c, out_h * out_w)
    cols = im2col(K.reshape(x.data, (n * c, 1, h, w)), kernel, stride,
                  out=_workspace("pool_cols", cols_shape, x.data.dtype))
    return cols, (n, c, out_h, out_w)


def _pool_backward(x: Tensor, grad_cols: np.ndarray, kernel: int,
                   stride: int) -> None:
    n, c, h, w = x.shape
    grad_x = _fold(grad_cols, (n * c, 1, h, w), kernel, stride, "pool_gx")
    x._accumulate(grad_x.reshape(x.shape))


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    stride = stride or kernel
    cols, out_shape = _pool_cols(x, kernel, stride)
    cols_shape = cols.shape
    slabs, slab = cols_shape[0], cols_shape[1:]
    arg = K.empty(slab, np.int8 if slabs < 128 else np.intp)
    out_data = K.window_max(cols, arg)

    def backward(grad: np.ndarray) -> None:
        grad_cols = K.window_scatter(
            arg, K.reshape(grad, slab), slabs,
            out=_workspace("pool_gcols", cols_shape))
        _pool_backward(x, grad_cols, kernel, stride)

    return Tensor._make(out_data.reshape(out_shape), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over H and W, returning (N, C)."""
    return x.mean(axis=(2, 3))


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel axis of NC or NCHW input.

    Mutates ``running_mean``/``running_var`` in place during training, as
    torch does; they are plain numpy buffers owned by the module.
    """
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)

    if training:
        mean = K.mean(x.data, axis=axes)
        var = K.var(x.data, axis=axes)
        for running, batch in ((running_mean, mean), (running_var, var)):
            K.multiply(running, 1.0 - momentum, out=running)
            K.add(running, K.multiply(batch, momentum), out=running)
    else:
        mean, var = running_mean, running_var

    inv_std = K.add(var, eps)
    K.sqrt(inv_std, out=inv_std)
    K.divide(1.0, inv_std, out=inv_std)
    inv_std = inv_std.reshape(shape)
    scale = weight.data.reshape(shape)
    x_hat = K.subtract(x.data, mean.reshape(shape))
    K.multiply(x_hat, inv_std, out=x_hat)
    out_data = K.multiply(x_hat, scale)
    K.add(out_data, bias.data.reshape(shape), out=out_data)

    count = x.data.size // x.shape[1 if x.ndim > 1 else 0]

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(K.sum(grad, axis=axes))
        if weight.requires_grad:
            weight._accumulate(K.sum(K.multiply(grad, x_hat), axis=axes))
        if x.requires_grad:
            g = K.multiply(grad, scale)
            if training:
                # g - sum(g)/count - (x_hat * sum(g*x_hat))/count, with
                # that association: dividing the dot first only matches
                # bitwise when count is a power of two
                grad_sum = K.sum(g, axis=axes, keepdims=True)
                t = K.multiply(g, x_hat)
                grad_dot = K.sum(t, axis=axes, keepdims=True)
                K.divide(grad_sum, count, out=grad_sum)
                K.subtract(g, grad_sum, out=g)
                K.multiply(x_hat, grad_dot, out=t)
                K.divide(t, count, out=t)
                K.subtract(g, t, out=g)
            x._accumulate(K.multiply(g, inv_std, out=g))

    return Tensor._make(out_data, (x, weight, bias), backward)


def _log_softmax(data: np.ndarray, axis: int):
    """``(log_softmax(data), softmax(data))`` along ``axis``."""
    shifted = K.subtract(data, K.amax(data, axis=axis, keepdims=True))
    soft = K.exp(shifted)
    log_z = K.sum(soft, axis=axis, keepdims=True)
    K.log(log_z, out=log_z)
    log_probs = K.subtract(shifted, log_z)
    return log_probs, K.exp(log_probs, out=soft)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    out_data, soft = _log_softmax(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        t = K.multiply(soft, K.sum(grad, axis=axis, keepdims=True))
        x._accumulate(K.subtract(grad, t, out=t))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and int targets (N,).

    Fused into a single graph node: the composed
    ``log_softmax -> gather -> mean -> neg`` chain funnels its backward
    through an ``np.add.at`` scatter, which dominates the loss hot path;
    since the gather indices are unique, the same gradient is a direct
    assignment.  Forward and backward reproduce the composed chain's
    arithmetic operation-for-operation, so values are unchanged.
    """
    targets = np.asarray(targets)
    log_probs, soft = _log_softmax(logits.data, -1)
    inv_n = np.float32(1.0 / float(logits.shape[0]))

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(K.ce_grad(grad, soft, targets, inv_n))

    return Tensor._make(K.ce_loss(log_probs, targets, inv_n), (logits,),
                        backward)
