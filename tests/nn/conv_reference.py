"""The N-major conv/pool spellings ``repro.nn`` had before the K-major
column layout, kept as the bit-for-bit reference of
``tests/nn/test_conv_layout.py`` and the ``conv_layout`` section of
``benchmarks/perf/perf_harness.py``.

``im2col`` emits ``(N, C*k*k, L)``; the weight gradient is
``einsum("nol,nkl->ok")`` (which transposes and copies both operands
ahead of its one GEMM), grouped convolutions are three ``einsum``\\ s,
``col2im`` adds each kernel offset window by window and max-pooling is
``argmax`` on the strided window axis + ``take_along_axis``.  Plain
numpy: nothing here is traced or replayed.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def im2col(x, kernel, stride, out=None):
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


def col2im(cols, x_shape, kernel, stride, out=None):
    n, c, h, w = x_shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    if (stride == kernel and h == out_h * kernel and w == out_w * kernel):
        x = np.empty(x_shape, dtype=cols.dtype) if out is None else out
        np.copyto(x.reshape(n, c, out_h, kernel, out_w, kernel),
                  cols.transpose(0, 1, 4, 2, 5, 3))
        return x
    if out is None:
        x = np.zeros(x_shape, dtype=cols.dtype)
    else:
        x = out
        x[...] = 0
    for ki in range(kernel):
        h_end = ki + stride * out_h
        for kj in range(kernel):
            w_end = kj + stride * out_w
            window = x[:, :, ki:h_end:stride, kj:w_end:stride]
            if stride >= kernel:
                window[...] = cols[:, :, ki, kj]
            else:
                window += cols[:, :, ki, kj]
    return x


def _einsum(spec, a, b, shape):
    return np.einsum(spec, a, b, out=np.empty(shape, np.float32),
                     optimize=True)


def _allocate(tag, shape):
    return np.empty(shape, np.float32)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1,
           workspace=_allocate) -> Tensor:
    """``workspace(tag, shape)`` supplies the gradient buffers the
    product reused across steps through its ``_workspace`` cache (the
    perf harness passes one for timing parity)."""
    if padding:
        x = x.pad2d(padding)
    n, c, h, w = x.shape
    out_c, in_c_per_group, kernel, _ = weight.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = im2col(x.data, kernel, stride)                   # (N, C*k*k, L)

    if groups == 1:
        w_mat = weight.data.reshape(out_c, -1)              # (O, C*k*k)
        out_data = np.matmul(w_mat[None, :, :], cols)

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, out_c, -1)           # (N, O, L)
            if weight.requires_grad:
                weight._accumulate(_einsum(
                    "nol,nkl->ok", grad_mat, cols, w_mat.shape
                ).reshape(weight.shape))
            if x.requires_grad:
                grad_cols = np.matmul(
                    w_mat.T[None, :, :], grad_mat,
                    out=workspace("conv_gcols", cols.shape))
                x._accumulate(col2im(
                    grad_cols, x.shape, kernel, stride,
                    out=workspace("conv_gx", x.shape)))
    else:
        group_out = out_c // groups
        cols = np.ascontiguousarray(cols).reshape(
            n, groups, (c // groups) * kernel * kernel, -1)
        w_mat = weight.data.reshape(groups, group_out, -1)
        out_data = _einsum("gok,ngkl->ngol", w_mat, cols,
                           (n, groups, group_out, cols.shape[-1]))

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, groups, group_out, -1)
            if weight.requires_grad:
                weight._accumulate(_einsum(
                    "ngol,ngkl->gok", grad_mat, cols, w_mat.shape
                ).reshape(weight.shape))
            if x.requires_grad:
                grad_cols = _einsum("gok,ngol->ngkl", w_mat, grad_mat,
                                    cols.shape)
                x._accumulate(col2im(
                    grad_cols.reshape(n, c * kernel * kernel, -1), x.shape,
                    kernel, stride))

    out = Tensor._make(out_data.reshape(n, out_c, out_h, out_w),
                       (x, weight), backward)
    if bias is not None:
        out = out + bias.reshape(1, out_c, 1, 1)
    return out


def _pool_cols(x: Tensor, kernel: int, stride: int, workspace):
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols_shape = (n * c, kernel * kernel, out_h * out_w)
    cols = im2col(np.ascontiguousarray(x.data).reshape(n * c, 1, h, w),
                  kernel, stride, out=workspace("pool_cols", cols_shape))
    return cols, cols_shape, (n, c, out_h, out_w)


def _pool_backward(x: Tensor, grad_cols, kernel, stride, workspace) -> None:
    n, c, h, w = x.shape
    grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride,
                    out=workspace("pool_gx", (n * c, 1, h, w)))
    x._accumulate(grad_x.reshape(x.shape))


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None,
               workspace=_allocate) -> Tensor:
    stride = stride or kernel
    cols, cols_shape, out_shape = _pool_cols(x, kernel, stride, workspace)
    arg = np.argmax(cols, axis=1)[:, None, :]               # (N*C, 1, L)
    out_data = np.take_along_axis(cols, arg, 1)

    def backward(grad: np.ndarray) -> None:
        grad_cols = workspace("pool_gcols", cols_shape)
        grad_cols[...] = 0
        np.put_along_axis(grad_cols, arg,
                          grad.reshape(cols_shape[0], 1, -1), 1)
        _pool_backward(x, grad_cols, kernel, stride, workspace)

    return Tensor._make(out_data.reshape(out_shape), (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None,
               workspace=_allocate) -> Tensor:
    stride = stride or kernel
    cols, cols_shape, out_shape = _pool_cols(x, kernel, stride, workspace)
    out_data = np.mean(cols, axis=1)
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        grad_cols = np.multiply(
            grad.reshape(cols_shape[0], 1, -1), scale,
            out=workspace("pool_gcols", cols_shape))
        _pool_backward(x, grad_cols, kernel, stride, workspace)

    return Tensor._make(out_data.reshape(out_shape), (x,), backward)
