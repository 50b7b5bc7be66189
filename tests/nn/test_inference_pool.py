"""Inference leaves nothing resident: blocked pooling, in-place batch norm.

A ``max_pool2d`` whose windows nobody keeps for backward (``no_grad``:
``evaluate_accuracy``, ``update_alpha``, ``predict_logits``) unfolds
blocks of rows of at most ``_POOL_BLOCK_BYTES`` of columns into one
scratch buffer and writes each block's maxima straight into the output.
A window's maximum is selected element by element, so the output is
compared *byte for byte* — NaN payloads, signed zeros and infinities
planted — against the whole batch unfolded at once
(``tests/nn/conv_reference.whole_batch_max_pool2d``), at batch sizes
around 16 and 256 and at block budgets down to a row.  The five models'
logits digests of ``tests/nn/test_inference_conv.py`` pin the same bits
end to end.

What a no-grad forward allocates is bounded and left to nobody: no
keyed workspace but the scratch size classes (the keyed cache serves
training shapes), none at all once an evaluation's shapes have run, and
batch norm's output written over its normalised input.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.distributed.base import evaluate_accuracy
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.quant import Int8Trainer, QuantConfig

from . import conv_reference as R
from .test_conv_layout import assert_same_bytes, values
from .test_inference_conv import MODELS, inputs, make_model

#: batches around a 16-sample block and a 256-sample evaluation batch
BATCHES = (1, 15, 16, 17, 88, 255, 256, 257)
#: (channels, map side, kernel, stride): vgg11's first pool at the bench
#: preset, overlapping 3x3 windows at stride 2, a map two wide (im2col's
#: gather path) and a 1x1 output
SHAPES = ((16, 16, 2, 2), (5, 9, 3, 2), (8, 4, 2, 2), (32, 2, 2, 2))
#: block budgets: the default, one of an odd number of rows, one row
BUDGETS = (None, 3000, 1)


class Unfolds:
    """Rows of every ``im2col`` call ``max_pool2d`` makes."""

    def __init__(self, monkeypatch):
        self.rows: list[int] = []
        unfold = F.im2col

        def recording(x, kernel, stride, out=None):
            self.rows.append(len(x))
            return unfold(x, kernel, stride, out=out)

        monkeypatch.setattr(F, "im2col", recording)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n", BATCHES)
def test_blocked_pool_is_the_whole_batch_pool(n, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(F, "_POOL_BLOCK_BYTES", budget)
    unfolds = Unfolds(monkeypatch)
    for shape in SHAPES:
        c, side, kernel, stride = shape
        rng = np.random.default_rng([n, *shape])
        x = Tensor(values(rng, (n, c, side, side), special=True))
        want = R.whole_batch_max_pool2d(x, kernel, stride)
        unfolds.rows.clear()
        with no_grad():
            got = F.max_pool2d(x, kernel, stride)
        assert not got.requires_grad
        assert_same_bytes(got.data, want.data, f"no_grad {n} {shape}")
        length = want.shape[2] * want.shape[3]
        block = max(1, F._POOL_BLOCK_BYTES // (4 * kernel * kernel * length))
        assert sum(unfolds.rows) == n * c
        assert max(unfolds.rows) == min(n * c, block), (n, shape)
        unfolds.rows.clear()
        trained = F.max_pool2d(Tensor(x.data, requires_grad=True), kernel,
                               stride)
        assert unfolds.rows == [n * c]          # training: all rows once
        assert_same_bytes(trained.data, want.data, f"tape {n} {shape}")


def test_the_batches_straddle_the_default_blocks():
    """At vgg11's first pool a default block is 32 samples: the
    batches above run one, several and a ragged last block."""
    c, side, kernel, _ = SHAPES[0]
    per_sample = 4 * kernel * kernel * c * (side // kernel) ** 2
    samples = F._POOL_BLOCK_BYTES // per_sample
    assert 1 < samples < 256
    assert {n <= samples for n in BATCHES} == {True, False}
    assert any(n % samples for n in BATCHES if n > samples)


def forwards(key: str, batches) -> None:
    """``evaluate_accuracy`` over ``batches`` samples each, α's FP32
    logits and ``predict_logits`` over 128 of them."""
    model = make_model(key)
    x, y = inputs(key, max(batches))
    for count in batches:
        evaluate_accuracy(model, x[:count], y[:count])
    with no_grad():
        model(Tensor(x[:128]))
    Int8Trainer(model, lr=0.05, config=QuantConfig(),
                seed=7).predict_logits(x[:128])


@pytest.mark.parametrize("key", sorted(MODELS))
def test_inference_keeps_no_keyed_workspace(key):
    """A no-grad forward caches no whole-batch columns: from an empty
    cache it leaves only scratch size classes, and once an
    evaluation's shapes (256, its tail, α's 128) have run, running them
    again creates nothing."""
    F.clear_workspaces()
    forwards(key, (344, 300))
    assert {tag for tag, *_ in F._WORKSPACES} <= {"scratch"}
    mark = F.workspace_mark()
    forwards(key, (344, 300, 600))
    assert F.workspace_mark() == mark


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_grad_pool_peaks_near_its_output():
    """vgg11's first pool at an evaluation batch of 256: the output,
    one block's columns and window_max's block temporaries (1.9x the
    output), where the whole batch's columns peaked at 8x."""
    c, side, kernel, stride = SHAPES[0]
    x = Tensor(np.random.default_rng(0).standard_normal(
        (256, c, side, side)).astype(np.float32))
    F.clear_workspaces()
    with no_grad():
        out_bytes = 256 * c * (side // kernel) ** 2 * 4
        peak = traced_peak(lambda: F.max_pool2d(x, kernel, stride))
    assert peak <= 2.5 * out_bytes, peak / out_bytes
    whole = traced_peak(lambda: R.whole_batch_max_pool2d(x, kernel, stride))
    assert whole >= 4 * out_bytes


@pytest.mark.parametrize("training", [False, True])
def test_no_grad_batch_norm_writes_over_its_normalised_input(training):
    """Without a tape nothing reads ``x_hat`` again, so the output is
    computed in its storage, with the same bits: an evaluation holds
    one array the size of the input, where a forward on the tape holds
    two.  (The training statistics square the deviations into a
    temporary of their own either way.)"""
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((64, 16, 8, 8)).astype(np.float32))
    weight = Tensor(rng.standard_normal(16).astype(np.float32),
                    requires_grad=True)
    bias = Tensor(rng.standard_normal(16).astype(np.float32),
                  requires_grad=True)
    stats = [rng.random(16).astype(np.float32) for _ in range(2)]

    def forward():
        mean, var = (s.copy() for s in stats)
        return F.batch_norm(x, weight, bias, mean, var, training)

    taped = forward()
    with no_grad():
        peak = traced_peak(forward)
        got = forward()
    assert_same_bytes(got.data, taped.data, "no_grad vs tape")
    if not training:
        assert peak < 1.25 * x.data.nbytes
        assert traced_peak(forward) > 1.9 * x.data.nbytes
