"""The K-major column layout against the N-major spellings it replaced.

``repro.nn.kernels`` lays conv/pool columns out as ``(C*k*k, N, L)``
and ``nn/functional.py`` spells every conv product as a ``matmul`` on
them; ``tests/nn/conv_reference.py`` holds what ran before (``einsum``
weight gradient, window-by-window ``col2im``, ``argmax`` pooling).  The
layout moved no GEMM and no float add, so everything here is compared
*bit for bit* — outputs, input and parameter gradients, eager and
replayed — over the shape classes where numpy dispatches differently
(one sample, 1x1 maps, one channel, depthwise) and on inputs seeded
with ``-0.0``, infinities and NaNs.

Two dot-product-shaped corners are outside the contract
(:func:`test_the_shape_classes_outside_the_contract`): a *single*
output channel on a 1x1 map with more than one sample — numpy spells
that ``(1, K) @ (K, 1)`` product as a ``dot`` / ``gemv`` whose
summation order follows the operand strides — and an average pool over
a whole map of eight or more pixels, which the N-major layout reduced
along a contiguous axis (pairwise) and this one slab by slab.  Both
agree with the reference to rounding, not to the bit.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.nn import (AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU,
                      Sequential, Tensor)
from repro.nn import functional as F
from repro.nn import kernels as K
from repro.nn.graph import attach_graph_executor, train_step
from repro.nn.optim import SGD

from . import conv_reference as R

#: Inf - Inf and 0 * Inf are part of the seeded inputs
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SIGNED_ZEROS = np.array([-0.0, 0.0], dtype=np.float32)
WILD = np.array([np.inf, -np.inf, np.nan, -np.nan], dtype=np.float32)


def bits(array: np.ndarray) -> np.ndarray:
    """The bit patterns of ``array``, every NaN as one pattern: which
    of two colliding NaNs an add lets through (they differ in sign
    here) is the compiler's choice of operand order per inner loop, not
    arithmetic."""
    array = np.ascontiguousarray(array)
    pattern = array.view(f"u{array.itemsize}").copy()
    if array.dtype.kind == "f":
        pattern[np.isnan(array)] = 0
    return pattern


def assert_same_bits(actual, expected, what=""):
    __tracebackhide__ = True
    assert actual.shape == expected.shape, what
    assert np.array_equal(bits(actual), bits(expected)), what
    if actual.dtype.kind == "f":
        assert np.array_equal(np.isnan(actual), np.isnan(expected)), what


def values(rng, shape, special: bool = False) -> np.ndarray:
    """Normal draws; with ``special`` a tenth of them become signed
    zeros (what a ReLU feeds a pool) and one in fifty Inf or NaN."""
    out = rng.standard_normal(shape).astype(np.float32)
    if special:
        flat = out.reshape(-1)
        zeros = rng.random(flat.size) < 0.1
        flat[zeros] = SIGNED_ZEROS[rng.integers(0, 2, size=int(zeros.sum()))]
        wild = rng.random(flat.size) < 0.02
        flat[wild] = WILD[rng.integers(0, 4, size=int(wild.sum()))]
    return out


def out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# ----------------------------------------------------------------------
# conv2d: forward, input gradient, weight gradient, bias gradient
# ----------------------------------------------------------------------
def conv_cases():
    """(n, c, size, out_c, kernel, stride, padding, groups): kernel
    1/3/5/7, stride 1 / 2 / patch, padding 0-3, maps down to 1x1."""
    cases = []
    for kernel, (stride, padding) in itertools.product(
            (1, 3, 5, 7), ((1, 0), (1, 1), (2, 1), (2, 3), (0, 0), (1, 2))):
        stride = stride or kernel                       # the patch conv
        for size in (1, 2, 4, 9):
            if size + 2 * padding < kernel or padding > kernel:
                continue
            for n in (1, 2, 11):
                cases.append((n, 3, size, 4, kernel, stride, padding, 1))
            cases.append((2, 4, size, 4, kernel, stride, padding, 4))
            cases.append((11, 6, size, 6, kernel, stride, padding, 3))
    # the bench layer shapes (vgg11 / lenet5 at 16x16) and odd corners
    cases += [
        (16, 3, 16, 16, 3, 1, 1, 1), (16, 16, 8, 32, 3, 1, 1, 1),
        (16, 64, 4, 64, 3, 1, 1, 1), (16, 128, 2, 128, 3, 1, 1, 1),
        (16, 128, 1, 128, 3, 1, 1, 1), (7, 128, 1, 128, 3, 1, 1, 1),
        (16, 1, 16, 6, 5, 1, 2, 1), (16, 6, 8, 16, 5, 1, 0, 1),
        (1, 1, 5, 1, 3, 1, 1, 1), (2, 1, 5, 1, 3, 1, 0, 1),
        (1, 5, 1, 1, 3, 1, 1, 1), (3, 8, 6, 8, 3, 2, 1, 8),
        (1, 8, 1, 8, 3, 1, 1, 8), (5, 8, 1, 16, 3, 1, 1, 8),
    ]
    return cases


def run_conv(conv, x, w, b, grad, stride, padding, groups):
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = conv(xt, wt, bt, stride=stride, padding=padding, groups=groups)
    out.backward(grad)
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
def test_conv2d_matches_the_reference_bit_for_bit(special):
    F.clear_workspaces()
    for case in conv_cases():
        n, c, size, out_c, kernel, stride, padding, groups = case
        if out_c == 1 and n > 1 and out_size(size, kernel, stride,
                                             padding) == 1:
            continue                    # outside the contract: see below
        rng = np.random.default_rng(hash(case) % 2**32)
        x = values(rng, (n, c, size, size), special)
        w = values(rng, (out_c, c // groups, kernel, kernel), special)
        b = values(rng, (out_c,)) if kernel == 3 else None
        side = out_size(size, kernel, stride, padding)
        grad = values(rng, (n, out_c, side, side), special)
        got = run_conv(F.conv2d, x, w, b, grad, stride, padding, groups)
        want = run_conv(R.conv2d, x, w, b, grad, stride, padding, groups)
        for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"),
                              got, want):
            if e is not None:
                assert_same_bits(a, e, f"{name} of {case}")


def test_an_all_zero_gradient_folds_to_positive_zero():
    """The wide-row fold adds filler to pixels other windows own; with
    nothing but zeros coming in every pixel must still be ``+0.0``."""
    rng = np.random.default_rng(3)
    for n, c, size, kernel, padding in ((2, 3, 8, 3, 1), (3, 2, 6, 5, 2),
                                        (1, 4, 2, 3, 1)):
        x = values(rng, (n, c, size, size))
        w = values(rng, (5, c, kernel, kernel))
        for zero in (0.0, -0.0):
            grad = np.full((n, 5, size, size), zero, np.float32)
            got = run_conv(F.conv2d, x, w, None, grad, 1, padding, 1)
            want = run_conv(R.conv2d, x, w, None, grad, 1, padding, 1)
            assert_same_bits(got[1], want[1])
            assert_same_bits(got[2], want[2])


def test_the_shape_classes_outside_the_contract():
    rng = np.random.default_rng(4)
    x, w = values(rng, (11, 8, 1, 1)), values(rng, (1, 8, 3, 3))
    grad = values(rng, (11, 1, 1, 1))
    got = run_conv(F.conv2d, x, w, None, grad, 1, 1, 1)
    want = run_conv(R.conv2d, x, w, None, grad, 1, 1, 1)
    assert_same_bits(got[1], want[1])               # the input gradient
    for a, e in zip(got[:3], want[:3]):
        np.testing.assert_allclose(a, e, rtol=1e-5, atol=1e-6)
    x = values(rng, (4, 3, 4, 4))
    pooled = [module.avg_pool2d(Tensor(x), 4).data for module in (F, R)]
    np.testing.assert_allclose(*pooled, rtol=1e-6, atol=1e-7)


# ----------------------------------------------------------------------
# the layout kernels themselves
# ----------------------------------------------------------------------
LAYOUT_CASES = [
    # (n, c, h, w, kernel, stride)
    (2, 3, 8, 8, 3, 1), (11, 2, 18, 18, 3, 1), (16, 8, 6, 6, 3, 1),
    (16, 16, 4, 4, 3, 1), (4, 5, 3, 3, 3, 1), (3, 2, 9, 9, 5, 1),
    (2, 2, 10, 7, 3, 1), (2, 3, 9, 9, 3, 2), (2, 3, 10, 10, 7, 2),
    (2, 3, 8, 8, 2, 2), (2, 3, 9, 9, 2, 2), (2, 3, 9, 9, 2, 3),
    (1, 4, 6, 6, 1, 1), (3, 4, 6, 6, 1, 2), (1, 1, 4, 4, 3, 1),
    (5, 1, 16, 16, 2, 2), (5, 1, 7, 7, 3, 2), (5, 1, 2, 2, 2, 2),
]


@pytest.mark.parametrize("case", LAYOUT_CASES, ids=str)
def test_im2col_is_the_reference_columns_k_major(case):
    n, c, h, w, kernel, stride = case
    x = values(np.random.default_rng(5), (n, c, h, w), special=True)
    want = R.im2col(x, kernel, stride).transpose(1, 0, 2)
    got = K.im2col(x, kernel, stride)
    assert_same_bits(got, want)
    if kernel == 1 and stride == 1:
        assert np.shares_memory(got, x)         # no copy for a 1x1 kernel
    into = np.full(want.shape, 7.0, np.float32)
    assert K.im2col(x, kernel, stride, out=into) is into
    assert_same_bits(into, want)


@pytest.mark.parametrize("case", LAYOUT_CASES, ids=str)
@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
def test_col2im_adds_what_the_reference_adds_in_its_order(case, special):
    n, c, h, w, kernel, stride = case
    rng = np.random.default_rng(6)
    length = (((h - kernel) // stride + 1) * ((w - kernel) // stride + 1))
    cols = values(rng, (n, c * kernel * kernel, length), special)
    want = R.col2im(cols, (n, c, h, w), kernel, stride)
    k_major = np.ascontiguousarray(cols.transpose(1, 0, 2))
    assert_same_bits(K.col2im(k_major, (n, c, h, w), kernel, stride), want)
    # into dirty storage, with dirty working storage
    wide = K.wide_shape((n, c, h, w), kernel, stride)
    if wide is not None:
        wide = np.full(wide, np.nan, np.float32)
    into = np.full((n, c, h, w), np.nan, np.float32)
    K.col2im(k_major, (n, c, h, w), kernel, stride, wide, out=into)
    assert_same_bits(into, want)


def test_wide_rows_are_chosen_by_shape():
    assert K.wide_shape((16, 3, 18, 18), 3, 1) == (3, 16, 3, 18, 18)
    assert K.wide_shape((16, 128, 4, 4), 3, 1) == (3, 16, 128, 4, 4)
    assert K.wide_shape((16, 128, 3, 3), 3, 1) is None    # a 1x1 map: 9x
    assert K.wide_shape((16, 3, 18, 18), 3, 2) is None    # strided runs
    assert K.wide_shape((16, 3, 16, 16), 2, 2) is None    # no overlap
    assert K.wide_shape((16, 3, 16, 16), 1, 1) is None


def pool_windows(rng, slabs, shape, special):
    cols = values(rng, (slabs, *shape), special)
    if special:
        cols[:, 0] = 0.0                # all-tie rows, both signs of zero
        cols[1::2, 0, ::2] = -0.0
        cols[:, 1] = np.nan             # all-NaN rows
        cols[0, 2] = -np.inf            # -Inf first, then something larger
    return cols


@pytest.mark.parametrize("slabs", [1, 4, 9])
@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
def test_window_max_is_argmax_and_take_along(slabs, special):
    rng = np.random.default_rng(7)
    cols = pool_windows(rng, slabs, (12, 5), special)
    want_index = np.argmax(cols, axis=0)
    want = np.take_along_axis(cols, want_index[None], 0)[0]
    for dtype in (np.int8, np.intp):
        index = np.full((12, 5), 99, dtype)
        got = K.window_max(cols, index)
        assert np.array_equal(index, want_index)
        assert_same_bits(got, want)
    # the routed gradient: put_along_axis on zeros
    grad = values(rng, (12, 5), special)
    want_cols = np.zeros_like(cols)
    np.put_along_axis(want_cols, want_index[None], grad[None], 0)
    into = np.full(cols.shape, np.nan, np.float32)
    K.window_scatter(index, grad, slabs, out=into)
    assert_same_bits(into, want_cols)
    assert_same_bits(K.window_scatter(index, grad, slabs), want_cols)


POOL_CASES = [
    # (n, c, h, w, kernel, stride)
    (16, 16, 16, 16, 2, 2), (11, 3, 8, 8, 2, 2), (1, 128, 2, 2, 2, 2),
    (2, 3, 9, 9, 2, 2), (2, 3, 9, 9, 3, 2), (3, 2, 7, 7, 3, 1),
    (2, 2, 8, 8, 2, 3), (2, 5, 6, 6, 3, 3), (4, 3, 4, 4, 2, 4),
]


@pytest.mark.parametrize("pool", ["max_pool2d", "avg_pool2d"])
@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
def test_pooling_matches_the_reference_bit_for_bit(pool, special):
    F.clear_workspaces()
    for case in POOL_CASES:
        n, c, h, w, kernel, stride = case
        rng = np.random.default_rng(hash(case) % 2**32)
        x = values(rng, (n, c, h, w), special)
        if special:
            x[0, 0] = 0.0
            x[0, 0, ::2, 1::2] = -0.0
        results = []
        for module in (F, R):
            xt = Tensor(x, requires_grad=True)
            out = getattr(module, pool)(xt, kernel, stride)
            grad = values(np.random.default_rng(8), out.shape, special)
            out.backward(grad)
            results.append((out.data, xt.grad))
        for a, e in zip(*results):
            assert_same_bits(a, e, f"{pool} of {case}")


# ----------------------------------------------------------------------
# whole steps: reference ops, eager kernels and the compiled replay
# ----------------------------------------------------------------------
def small_cnn(seed: int = 0) -> Sequential:
    """Overlapping and patch convs, a depthwise one, both pools, maps
    from 12x12 down to 1x1."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(2, 6, 3, rng, padding=1), ReLU(), MaxPool2d(2),       # 6x6
        Conv2d(6, 6, 3, rng, padding=1, groups=6), ReLU(),           # dw
        Conv2d(6, 8, 3, rng, stride=2, padding=1), ReLU(),           # 3x3
        AvgPool2d(2, 1),                                             # 2x2
        Conv2d(8, 8, 1, rng), ReLU(), MaxPool2d(2),                  # 1x1
        Conv2d(8, 12, 3, rng, padding=1), ReLU(),
        Flatten(), Linear(12, 5, rng))


def train(steps: int, graph: bool, batch_size: int = 6):
    model = small_cnn()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    flat=model.flatten_parameters())
    executor = attach_graph_executor(model) if graph else None
    losses = []
    for step in range(steps):
        rng = np.random.default_rng(100 + step)
        x = rng.standard_normal((batch_size, 2, 12, 12)).astype(np.float32)
        y = rng.integers(0, 5, size=batch_size)
        losses.append(train_step(model, optimizer, x, y))
    return losses, model.state_dict(), executor


@pytest.mark.parametrize("batch_size", [1, 6])
def test_training_is_the_same_with_reference_ops_eager_and_replayed(
        monkeypatch, batch_size):
    eager = train(5, graph=False, batch_size=batch_size)
    replayed = train(5, graph=True, batch_size=batch_size)
    assert replayed[2].stats == {"captures": 1, "replays": 4,
                                 "eager_steps": 0, "fallbacks": 0}
    for name in ("conv2d", "max_pool2d", "avg_pool2d"):
        monkeypatch.setattr(F, name, getattr(R, name))
    reference = train(5, graph=False, batch_size=batch_size)
    for other in (eager, replayed):
        assert other[0] == reference[0]
        for key, value in reference[1].items():
            assert_same_bits(other[1][key], value, key)


# ----------------------------------------------------------------------
# structure: one spelling, and it stays the matmul one
# ----------------------------------------------------------------------
def test_functional_spells_conv_with_matmul_and_pool_without_argmax():
    source = Path(repro.__file__).parent / "nn" / "functional.py"
    tree = ast.parse(source.read_text())
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}

    def names(node) -> set[str]:
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                } | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    ungrouped, = [node for node in ast.walk(functions["conv2d"])
                  if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "groups == 1"]
    assert "einsum" not in set().union(*map(names, ungrouped.body))
    assert "matmul" in set().union(*map(names, ungrouped.body))
    assert "einsum" in set().union(*map(names, ungrouped.orelse))
    assert not {"argmax", "take_along", "put_along"} & names(
        functions["max_pool2d"])
    # the old kernels are gone from the table, not merely unused
    for name in ("argmax", "take_along", "put_along"):
        assert not hasattr(K, name), name
