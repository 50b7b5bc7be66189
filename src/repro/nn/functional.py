"""Neural-network ops with hand-written, vectorised backward passes.

Convolution uses im2col/col2im so that both directions reduce to one
large matrix multiply — the only way a pure-numpy CNN stays fast enough
to train inside the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "linear", "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
    "batch_norm", "log_softmax", "softmax", "cross_entropy", "dropout",
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


def _workspace(tag: str, shape: tuple[int, ...], dtype=np.float32,
               zero: bool = False) -> np.ndarray:
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
        if zero:
            buf[...] = 0
    elif zero:
        buf[...] = 0
    return buf


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


def im2col(x: np.ndarray, kernel: int, stride: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unfold NCHW ``x`` into ``(N, C*k*k, L)`` patch columns.

    ``x`` must already be padded.  Uses stride tricks: no data copy
    until the final reshape.  ``out``, when given, must be a contiguous
    ``(N, C*k*k, L)`` array that receives the columns (reusing a
    workspace instead of allocating).
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


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kernel: int,
           stride: int, out: np.ndarray | None = None) -> np.ndarray:
    """Fold ``(N, C*k*k, L)`` columns back into NCHW, summing overlaps.

    Non-overlapping strides take copy-only fast paths (no zero-init, no
    accumulation); the generic overlapping case accumulates per kernel
    offset.  ``out``, when given, is used as the (fully overwritten)
    result buffer.
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
    if stride >= kernel:
        # Disjoint windows with possible gaps: assign, don't accumulate.
        x = np.zeros(x_shape, dtype=cols.dtype) if out is None \
            else _zeroed(out)
        for ki in range(kernel):
            h_end = ki + stride * out_h
            for kj in range(kernel):
                w_end = kj + stride * out_w
                x[:, :, ki:h_end:stride, kj:w_end:stride] = cols[:, :, ki, kj]
        return x
    x = np.zeros(x_shape, dtype=cols.dtype) if out is None else _zeroed(out)
    for ki in range(kernel):
        h_end = ki + stride * out_h
        for kj in range(kernel):
            w_end = kj + stride * out_w
            x[:, :, ki:h_end:stride, kj:w_end:stride] += cols[:, :, ki, kj]
    return x


def _zeroed(arr: np.ndarray) -> np.ndarray:
    arr[...] = 0
    return arr


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
    """
    if padding:
        x = x.pad2d(padding)
    n, c, h, w = x.shape
    out_c, in_c_per_group, kernel, _ = weight.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    if groups == 1:
        # The forward columns are captured by the backward closure, so
        # they must NOT come from the reusable workspace (a same-shape
        # sibling layer would overwrite them before backward runs).
        cols = im2col(x.data, kernel, stride)              # (N, C*k*k, L)
        w_mat = weight.data.reshape(out_c, -1)              # (O, C*k*k)
        out_data = np.matmul(w_mat[None, :, :], cols)
        out_data = out_data.reshape(n, out_c, out_h, out_w)

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, out_c, -1)           # (N, O, L)
            if weight.requires_grad:
                grad_w = np.einsum("nol,nkl->ok", grad_mat, cols, optimize=True)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = np.matmul(
                    w_mat.T[None, :, :], grad_mat,
                    out=_workspace("conv_gcols", cols.shape, grad_mat.dtype))
                grad_x = col2im(grad_cols, x.shape, kernel, stride,
                                out=_workspace("conv_gx", x.shape,
                                               grad_cols.dtype))
                x._accumulate(grad_x)

        out = Tensor._make(out_data, (x, weight), backward, op="conv2d",
                           ctx={"kernel": kernel, "stride": stride,
                                "groups": 1})
    else:
        # Grouped/depthwise: run each group through the same im2col path.
        group_in = c // groups
        group_out = out_c // groups
        cols = im2col(x.data, kernel, stride)
        cols = cols.reshape(n, groups, group_in * kernel * kernel, -1)
        w_mat = weight.data.reshape(groups, group_out, -1)
        # einsum's optimized path returns a transposed-layout view; write
        # into a C-contiguous buffer so downstream reductions (batch-norm
        # mean/var) see a canonical layout.
        out_data = np.einsum(
            "gok,ngkl->ngol", w_mat, cols, optimize=True,
            out=np.empty((n, groups, group_out, cols.shape[-1]),
                         dtype=np.float32))
        out_data = out_data.reshape(n, out_c, out_h, out_w)

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, groups, group_out, -1)
            if weight.requires_grad:
                grad_w = np.einsum("ngol,ngkl->gok", grad_mat, cols, optimize=True)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = np.einsum("gok,ngol->ngkl", w_mat, grad_mat,
                                      optimize=True)
                grad_cols = grad_cols.reshape(n, c * kernel * kernel, -1)
                x._accumulate(col2im(grad_cols, x.shape, kernel, stride))

        out = Tensor._make(out_data, (x, weight), backward, op="conv2d",
                           ctx={"kernel": kernel, "stride": stride,
                                "groups": groups})

    if bias is not None:
        out = out + bias.reshape(1, out_c, 1, 1)
    return out


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    # Neither the columns nor the gradient columns outlive this op, so
    # both come from reusable workspaces (no per-step allocation).
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride,
                  out=_workspace("pool_cols",
                                 (n * c, kernel * kernel, out_h * out_w),
                                 x.data.dtype))
    arg = cols.argmax(axis=1)                               # (N*C, L)
    out_data = np.take_along_axis(cols, arg[:, None, :], axis=1)
    out_data = out_data.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad_cols = _workspace("pool_gcols",
                               (n * c, kernel * kernel, out_h * out_w),
                               np.float32, zero=True)
        np.put_along_axis(grad_cols, arg[:, None, :],
                          grad.reshape(n * c, 1, -1), axis=1)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride,
                        out=_workspace("pool_gx", (n * c, 1, h, w),
                                       np.float32))
        x._accumulate(grad_x.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward, op="max_pool2d",
                        ctx={"kernel": kernel, "stride": stride})


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride,
                  out=_workspace("pool_cols",
                                 (n * c, kernel * kernel, out_h * out_w),
                                 x.data.dtype))
    out_data = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        grad_cols = _workspace("pool_gcols",
                               (n * c, kernel * kernel, out_h * out_w),
                               np.float32)
        np.multiply(grad.reshape(n * c, 1, -1), scale, out=grad_cols)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride,
                        out=_workspace("pool_gx", (n * c, 1, h, w),
                                       np.float32))
        x._accumulate(grad_x.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward, op="avg_pool2d",
                        ctx={"kernel": kernel, "stride": stride})


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
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(shape)) * inv_std.reshape(shape)
    out_data = x_hat * weight.data.reshape(shape) + bias.data.reshape(shape)

    count = x.data.size // x.shape[1 if x.ndim > 1 else 0]

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes))
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).sum(axis=axes))
        if x.requires_grad:
            g = grad * weight.data.reshape(shape)
            if training:
                grad_sum = g.sum(axis=axes, keepdims=True)
                grad_dot = (g * x_hat).sum(axis=axes, keepdims=True)
                grad_x = (g - grad_sum / count
                          - x_hat * grad_dot / count) * inv_std.reshape(shape)
            else:
                grad_x = g * inv_std.reshape(shape)
            x._accumulate(grad_x.astype(np.float32))

    return Tensor._make(out_data, (x, weight, bias), backward,
                        op="batch_norm",
                        ctx={"running_mean": running_mean,
                             "running_var": running_var,
                             "training": training, "momentum": momentum,
                             "eps": eps})


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward, op="log_softmax",
                        ctx={"axis": axis})


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
    n = logits.shape[0]
    rows = np.arange(n)

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    soft = np.exp(log_probs)
    picked = log_probs[rows, targets]
    inv_n = np.float32(1.0 / float(n))
    loss = -(picked.sum() * inv_n)

    def backward(grad: np.ndarray) -> None:
        upstream = (-grad) * inv_n           # d loss / d picked[i]
        g = np.zeros_like(soft)
        g[rows, targets] = upstream
        g -= soft * upstream
        logits._accumulate(g)

    return Tensor._make(np.asarray(loss, dtype=np.float32), (logits,),
                        backward, op="cross_entropy",
                        ctx={"targets": targets})


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator) -> Tensor:
    """Inverted dropout as a single graph node.

    One ``rng.random`` draw per call keeps the generator stream aligned
    with the historical ``x * Tensor(mask)`` form, and the forward/
    backward arithmetic is operation-for-operation identical to it, so
    values are unchanged.  Being one node (instead of a mul against an
    anonymous constant tensor) is what lets the graph executor replay
    dropout by re-drawing the mask from the captured generator.
    """
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward, op="dropout",
                        ctx={"p": p, "rng": rng})
