"""Neural-network ops with hand-written, vectorised backward passes.

Convolution uses im2col/col2im so that both directions reduce to one
large matrix multiply — the only way a pure-numpy CNN stays fast enough
to train inside the benchmark harness.
"""

from __future__ import annotations

import functools
import math

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
    return _workspace("scratch", (1 << (size - 1).bit_length(),))[
        :size].reshape(shape)


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
    weight gradient.  With groups, every product is the ``matmul`` or
    ``multiply`` numpy's ``einsum`` makes of its contraction
    (:func:`_contract`), on columns stored as its forward operand is
    (:func:`_grouped_cols`).  Under :func:`~repro.nn.tensor.no_grad`
    nothing is kept for backward, and the forward unfolds about
    :data:`_CHUNK` samples at a time instead of the whole batch
    (:func:`_conv_chunked`, :func:`_grouped_chunked`).
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
        group_out = out_c // groups
        w_mat = weight.data.reshape(groups, group_out, -1)
        out_data = K.empty((n, groups, group_out, out_h * out_w),
                           np.float32)
        if not grad_enabled():
            _grouped_chunked(x.data, w_mat, kernel, stride, out_data)
            backward = None
        else:
            k_minor = _k_minor(n, out_h * out_w)
            cols = _grouped_cols(x.data, groups, kernel, stride, k_minor)
            _contract("ngkl,gok->ngol", cols, w_mat, out_data)
            # K-minor columns are not kept: the weight gradient's
            # operand is C-ordered (G, C/G*k*k, N*L) rows, the K-major
            # layout im2col unfolds as fast as a copy of them would take
            kept = None if k_minor else cols

            def backward(grad: np.ndarray) -> None:
                grad_mat = grad.reshape(out_data.shape)
                if weight.requires_grad:
                    rows = kept
                    if rows is None:
                        rows = K.empty((groups, in_c_per_group * kernel
                                        * kernel, n, out_h * out_w),
                                       np.float32)
                        im2col(x.data, kernel, stride,
                               out=rows.reshape(c * kernel * kernel, n, -1))
                        rows = rows.transpose(2, 0, 1, 3)
                    weight._accumulate(_contract(
                        "ngkl,ngol->gok", rows, grad_mat,
                        K.empty(w_mat.shape, np.float32)
                    ).reshape(weight.shape))
                if x.requires_grad:
                    grad_cols = _contract(
                        "ngol,gok->ngkl", grad_mat, w_mat,
                        K.empty((n, groups, w_mat.shape[2], out_h * out_w),
                                np.float32))
                    x._accumulate(_fold(
                        grad_cols.reshape(n, c, kernel, kernel, out_h, out_w
                                          ).transpose(1, 2, 3, 0, 4, 5),
                        x.shape, kernel, stride, "conv_gx"))

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


@functools.lru_cache(maxsize=64)
def _bmm_plan(spec: str, a_shape: tuple, b_shape: tuple) -> tuple:
    """How numpy 2.4's ``einsum(spec, a, b, out=..., optimize=True)``
    computes one of the grouped convolution's contractions (two
    operands, no repeated index, a group axis in all three terms;
    ``numpy._core.einsumfunc.bmm_einsum``), as data for
    :func:`_contract`: per operand the size-1 axes it drops, the order
    of the rest and the shape it fuses them to; then either a
    broadcast ``multiply`` into ``out`` (nothing is contracted) or a
    batched ``matmul`` and the shape and axis order that carry its
    product into ``out``."""
    inputs, out = spec.split("->")
    terms = inputs.split(",")
    size = dict(zip("".join(terms), a_shape + b_shape))
    a_big, b_big = ([ix for ix in term if size[ix] > 1] for term in terms)
    con = [ix for ix in a_big if ix in b_big and ix not in out]
    if not con:
        desired = ([ix for ix in out if ix in term] for term in terms)
        shapes = ([size[ix] if ix in term else 1 for ix in out]
                  for term in terms)
        return (*map(_operand_plan, terms, desired, shapes), None)
    bat = [ix for ix in a_big if ix in b_big and ix in out]     # the groups
    a_keep = [ix for ix in a_big if ix not in b_big]
    b_keep = [ix for ix in b_big if ix not in a_big]
    groups = ((bat, a_keep, con), (bat, con, b_keep), (bat, a_keep, b_keep))

    def fused(group_list):
        if all(len(group) == 1 for group in group_list):
            return None
        return tuple(math.prod(size[ix] for ix in group)
                     for group in group_list)

    plans = [_operand_plan(term, sum(group_list, []), fused(group_list))
             for term, group_list in zip(terms, groups)]
    ones = [ix for ix in out if size[ix] == 1]
    produced = ones + sum(groups[2], [])
    shape = None
    if fused(groups[2]) is not None or ones:
        shape = tuple(size[ix] for ix in produced)
    perm = None
    if produced != list(out):
        perm = tuple(produced.index(ix) for ix in out)
    return (*plans, (shape, perm))


def _operand_plan(term: str, desired: list, shape) -> tuple:
    """``(index dropping the axes not desired, order of the rest,
    fused shape)`` of one operand."""
    drop = tuple(0 if ix not in desired else slice(None) for ix in term)
    kept = [ix for ix in term if ix in desired]
    return drop, tuple(kept.index(ix) for ix in desired), shape


def _operand(array: np.ndarray, drop: tuple, perm: tuple, shape):
    """An operand as einsum hands it on: a view where it only permutes
    axes, a copy where it drops size-1 ones (a sum over one term:
    ``0 + x``, so ``-0.0`` comes out ``+0.0``, laid out in the input's
    memory order), then fused to ``shape`` (a view where the strides
    allow it, else a C-ordered copy)."""
    view = array[drop].transpose(perm)
    if view.ndim < array.ndim:
        view = K.add(view, 0.0)
    return view if shape is None else K.reshape(view, shape)


def _contract(spec: str, a: np.ndarray, b: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, a, b, out=out, optimize=True)`` for the grouped
    convolution's contractions, through the same ``multiply`` or
    ``matmul`` calls on the same operands (layout included: BLAS picks
    its routine by strides) — so the same bits — without einsum's
    per-call path search.  ``spec`` names the operands in the order
    einsum contracts them, which is the reverse of how it is written:
    ``"gok,ngkl->ngol"`` runs as ``"ngkl,gok->ngol"``."""
    plan_a, plan_b, product = _bmm_plan(spec, a.shape, b.shape)
    a, b = _operand(a, *plan_a), _operand(b, *plan_b)
    if product is None:
        return K.multiply(a, b, out=out)
    shape, perm = product
    ab = K.matmul(a, b)
    if shape is not None:
        ab = ab.reshape(shape)
    if perm is not None:
        ab = ab.transpose(perm)
    return K.copy(ab, out=out)


def _k_minor(n: int, length: int) -> bool:
    """Whether grouped columns are stored K-minor: einsum's forward
    multiplies a C-ordered ``(G, N*L, C/G*k*k)`` copy of its N-major
    operand, except with one sample or one column a sample, where the
    copy that drops that axis keeps the N-major memory order."""
    return n > 1 and length > 1


def _grouped_cols(x: np.ndarray, groups: int, kernel: int, stride: int,
                  k_minor: bool, buf: np.ndarray | None = None
                  ) -> np.ndarray:
    """``x``'s columns as the ``(N, G, C/G*k*k, L)`` operand of the
    grouped contractions, stored as einsum's forward operand is
    (:func:`_k_minor`): K-minor, ``(G, N, L, C/G*k*k)``, the matrix it
    multiplies as a view; else N-major, ``(N, G, C/G*k*k, L)``.
    ``buf``, when given, is float32 storage for them."""
    n, c, h, w = x.shape
    out_h, out_w = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    shape = ((groups, n, out_h, out_w, c // groups, kernel, kernel)
             if k_minor else
             (n, groups, c // groups, kernel, kernel, out_h, out_w))
    if buf is None:
        store = K.empty(shape, np.float32)
    else:
        store = buf[:math.prod(shape)].reshape(shape)
    cols = store.transpose((0, 4, 5, 6, 1, 2, 3) if k_minor
                           else (1, 2, 3, 4, 0, 5, 6))
    im2col(x, kernel, stride, out=cols)             # (G, C/G, k, k, N, ..)
    return cols.transpose(4, 0, 1, 2, 3, 5, 6).reshape(
        n, groups, -1, out_h * out_w)


#: rows of a grouped product an inference chunk holds a multiple of:
#: each chunk then starts where a block of the whole batch's product
#: starts, for any kernel that takes rows in blocks dividing this
#: (OpenBLAS's sgemv takes 4)
_ROW_BLOCK = 64


def _grouped_chunk(length: int) -> int:
    """Samples per grouped inference chunk at ``length`` columns a
    sample: the fewest, from :data:`_CHUNK` up, whose rows are a
    multiple of :data:`_ROW_BLOCK`."""
    step = _ROW_BLOCK // math.gcd(length, _ROW_BLOCK)
    return -(-_CHUNK // step) * step


def _grouped_chunked(x: np.ndarray, w_mat: np.ndarray, kernel: int,
                     stride: int, out: np.ndarray) -> None:
    """The grouped forward with no backward to feed: columns of about
    :data:`_CHUNK` samples at a time in one scratch buffer, each
    chunk's product written into its rows of ``out``.

    Only a product with one output per group (a matrix-vector product)
    over more than one column a sample is chunked, by a multiple of
    :data:`_ROW_BLOCK` rows: every output is then the same dot product
    at the same position in its block as in the whole batch's.  A
    wider product is a GEMM whose blocking follows the row count, so it
    unfolds the whole batch, as training does."""
    n, length = len(x), out.shape[-1]
    groups, group_out, rows = w_mat.shape
    chunk = _grouped_chunk(length)
    if group_out > 1 or length == 1 or chunk >= n:
        _contract("ngkl,gok->ngol", _grouped_cols(
            x, groups, kernel, stride, _k_minor(n, length)), w_mat, out)
        return
    buf = _scratch((chunk * groups * rows * length,))
    for lo in range(0, n, chunk):
        cols = _grouped_cols(x[lo:lo + chunk], groups, kernel, stride,
                             k_minor=True, buf=buf)
        _contract("ngkl,gok->ngol", cols, w_mat, out[lo:lo + chunk])


#: bytes of float32 pooling columns a no-grad max-pool unfolds at a time
_POOL_BLOCK_BYTES = 1 << 19


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input: the first maximum of each window
    (:func:`repro.nn.kernels.window_max`) and, for backward, the window
    position it came from.

    The windows are unfolded as ``(k*k, rows, L)`` columns of the
    ``N*C`` images, one contiguous slab per window position.  With a
    tape that is one unfold of all rows.  Under
    :func:`~repro.nn.tensor.no_grad` nothing is kept, and blocks of rows
    of at most :data:`_POOL_BLOCK_BYTES` of columns are unfolded into
    scratch, each block's maxima written straight into the output: a
    window's maximum is selected element by element, so the bits do
    not depend on the block.
    """
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    slabs, rows, length = kernel * kernel, n * c, out_h * out_w
    images = K.reshape(x.data, (rows, 1, h, w))
    index = np.int8 if slabs < 128 else np.intp
    if not grad_enabled():
        out_data = _pool_blocks(images, kernel, stride, length, index)
        backward = None
    else:
        cols = im2col(images, kernel, stride)
        arg = K.empty((rows, length), index)
        out_data = K.window_max(cols, arg)
        cols_shape = cols.shape

        def backward(grad: np.ndarray) -> None:
            grad_cols = K.window_scatter(
                arg, K.reshape(grad, (rows, length)), slabs,
                out=_workspace("pool_gcols", cols_shape))
            grad_x = _fold(grad_cols, (rows, 1, h, w), kernel, stride,
                           "pool_gx")
            x._accumulate(grad_x.reshape(x.shape))

    return Tensor._make(out_data.reshape(n, c, out_h, out_w), (x,), backward)


def _pool_blocks(images: np.ndarray, kernel: int, stride: int, length: int,
                 index) -> np.ndarray:
    """The max-pool forward with no backward to feed: the windows of
    blocks of rows of ``images`` unfolded into one scratch buffer, each
    block's maxima written into its rows of the output."""
    rows, slabs = len(images), kernel * kernel
    block = max(1, _POOL_BLOCK_BYTES // (4 * slabs * length))
    # the budget's size class at any batch: a short batch (an
    # evaluation's tail) unfolds into the buffer the full ones did
    buf = _scratch((max(_POOL_BLOCK_BYTES // 4, slabs * length),))
    arg = K.empty((min(rows, block), length), index)
    out = K.empty((rows, length), np.float32)
    for lo in range(0, rows, block):
        part = images[lo:lo + block]
        cols = im2col(part, kernel, stride,
                      out=buf[:slabs * len(part) * length].reshape(
                          slabs, len(part), length))
        K.window_max(cols, arg[:len(part)], out=out[lo:lo + len(part)])
    return out


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
        # the batch mean once; the variance of the centred values,
        # which are kept as x_hat
        stats = K.empty((2, x.shape[1]), x.data.dtype)
        x_hat = K.centre(x.data, axes, stats)
        mean, var = stats
        for running, batch in ((running_mean, mean), (running_var, var)):
            K.multiply(running, 1.0 - momentum, out=running)
            K.add(running, K.multiply(batch, momentum), out=running)
    else:
        mean, var = running_mean, running_var
        x_hat = K.subtract(x.data, mean.reshape(shape))

    inv_std = K.add(var, eps)
    K.sqrt(inv_std, out=inv_std)
    K.divide(1.0, inv_std, out=inv_std)
    inv_std = inv_std.reshape(shape)
    scale = weight.data.reshape(shape)
    K.multiply(x_hat, inv_std, out=x_hat)
    # without a tape nothing reads x_hat again: the output overwrites it
    out_data = K.multiply(x_hat, scale,
                          out=None if grad_enabled() else x_hat)
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
