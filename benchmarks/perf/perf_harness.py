"""Host wall-clock performance harness (``BENCH_perf.json``).

Every other number this repo reports is *simulated* time from the
calibrated :class:`~repro.cluster.clock.PhaseClock`; this harness is
the opposite: it measures the **host** wall-clock cost of the real
numpy data plane, so data-plane optimisations (fused flat buffers,
workspace reuse, the scatter-free col2im) are visible and regressions
are catchable in CI.

Sections
--------
- ``conv``: forward and forward+backward of a representative conv
  stack (the VGG11 trunk at quick scale).
- ``conv_layout``: the K-major conv/pool kernels against the N-major
  spellings they replaced (``tests/nn/conv_reference.py``), per product
  — forward, weight gradient, input gradient, pool forward/backward —
  at the eight conv and four pool shapes of vgg11 at the bench preset
  and lenet5's two and two, paired call by call in one process with a
  bit-equality assert first.  Gated: ≥ 1.15x in aggregate.
- ``inference_conv``: vgg11 at the bench preset evaluating one
  256-sample batch under ``no_grad`` — convolution columns unfolded
  ``_CHUNK`` samples at a time against the same forward with the chunk
  widened to the whole batch, timed alternately after a bit-equality
  assert.  Gated: chunked at most 0.9x the whole-batch time.
- ``grouped_conv``: the jobs day's nine depthwise mobilenet layers
  (batch 16), forward and both gradients, as ``matmul``/``multiply``
  calls on K-minor columns against the three ``einsum``\ s on N-major
  ones they replaced (``tests/nn/conv_reference.grouped_conv2d``),
  and training batch norm's statistics (``kernels.centre``: one mean,
  the variance of the kept deviations) against ``np.mean`` +
  ``np.var`` + the subtraction on the day's six BN shapes — each
  paired call by call after a byte-equality assert and gated as the
  median ratio (≤ 0.8x and ≤ 0.75x).  Plus the ``tracemalloc`` peak of
  a no-grad forward of the first depthwise layer at the day's
  evaluation batch (200) over the bytes of its output, a structural
  gate (≤ 4x): the columns are unfolded a chunk at a time.
- ``aggregation``: ``average_states`` over 8 model replicas — the
  fused whole-model path (shared :class:`~repro.nn.flat.FlatState`
  layout, float32 sum-then-scale) against the pre-fusion per-key
  float64 reference loop, timed alternately — the microbenchmark the
  CI regression gate watches.
- ``bucketed_aggregation``: the overlap data plane's per-bucket
  averaging against the whole-model fused path — same kernel, same
  bytes, sliced at bucket boundaries — with a bit-equality assert at
  every geometry.
- ``step_time``: the end-to-end training step (forward, loss,
  backward, fused SGD) on the eager tape interpreter against the
  trace-once/replay-many graph executor, per registry model, with a
  bit-equality assert before timing — the second microbenchmark the
  CI regression gate watches.
- ``int8_step_time``: the same protocol for the full INT8 training
  step (``Int8Trainer.train_step``: fake-quantised weights/activations,
  STE hooks, clip, stochastically-rounded gradient quantisation,
  master-weight update) — the third gated microbenchmark.
- ``graph_replicas``: fifteen ``GroupMixedTrainer``s (the logical
  groups of a 60-SoC run) stepping round-robin at the bench preset,
  vit_tiny and vgg11, eager against compiled — the multi-replica
  number the single-model ``step_time`` cannot show: ms per group
  step, plans compiled, bindings made, shared-workspace bytes (also
  at two replicas: it must not depend on the count) and resident-set
  growth.  Gated: compiled must not be slower than eager end to end.
- ``replica_memory``: what a logical group costs in host memory —
  ``tracemalloc`` live bytes after a few rounds at 2, 8 and 15 groups,
  same two models, eager and compiled: bytes per added group (a mixed
  group owns its FP32 weights and two momentum buffers; gradients,
  every step scratch and the INT8 twins' weights are the run's, in its
  step arena) and the per-run constant.  Gated: at most 3.3
  parameter-sized arrays per added group.
- ``epoch``: one end-to-end SoCFlow epoch (real math + simulated
  clock) at quick scale, sequential and with ``--workers 2``.
- ``serving_day``: a 24 h request-level serving day with a flash crowd
  on a 16-SoC pool, no training tenants — seconds to generate the
  arrival stream, host microseconds of ``ServingPlane.advance`` per
  request, and the quotient of the two taken alternately
  (``dispatch_vs_generation``: the serving event core's gated number —
  microseconds per request move with the host, the quotient does not),
  and generation's ``tracemalloc`` peak over the bytes it returns
  (``generation_peak_vs_output``, gated at 2.5: the thinning streams
  its candidates chunk by chunk).

Usage::

    PYTHONPATH=src python benchmarks/perf/perf_harness.py \
        --out BENCH_perf.json [--mode smoke|full]

The committed ``baseline.json`` stores the gated speedups measured at
authoring time; ``test_perf_smoke.py`` fails when a measured speedup
drops below 75% of its baseline.  Regenerate the baseline with
``--update-baseline`` (plus ``--mode full``) instead of hand-editing —
see DESIGN.md's baseline-regeneration workflow.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.comm.primitives import average_states
from repro.nn.models.registry import build_model
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

#: replicas averaged in the aggregation benchmark (paper: 8 LGs)
NUM_REPLICAS = 8


def _summary(samples: list) -> dict:
    samples.sort()
    return {
        "median_s": samples[len(samples) // 2],
        "min_s": samples[0],
        "max_s": samples[-1],
        "repeats": len(samples),
    }


def _time(fn, repeats: int, warmup: int = 1) -> dict:
    """Median/min wall seconds of ``fn()`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return _summary(samples)


def _time_paired(first, second, repeats: int, warmup: int = 1, setup=None):
    """``(timing of first, timing of second, ratio)`` with the two
    called alternately, so a load change on the host lands on both:
    ``ratio`` is the median over the pairs of ``first / second``, which
    is what a gate should read — the quotient of two medians taken
    minutes apart moves with the host.  ``setup`` runs, untimed, ahead
    of every pair."""
    samples: tuple[list, list] = ([], [])
    for index in range(warmup + repeats):
        if setup is not None:
            setup()
        for fn, into in zip((first, second), samples):
            t0 = time.perf_counter()
            fn()
            if index >= warmup:
                into.append(time.perf_counter() - t0)
    ratio = statistics.median(a / b for a, b in zip(*samples))
    return _summary(samples[0]), _summary(samples[1]), ratio


# ----------------------------------------------------------------------
def bench_conv(repeats: int, batch: int = 32) -> dict:
    """Forward and forward+backward of the quick-scale VGG11 trunk."""
    model = build_model("vgg11", num_classes=10, in_channels=3,
                        image_size=32, width=0.25, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=batch)

    def forward():
        model.train()
        return model(Tensor(x))

    def forward_backward():
        model.train()
        for p in model.parameters():
            p.zero_grad()
        loss = F.cross_entropy(model(Tensor(x)), y)
        loss.backward()
        return loss

    return {
        "batch": batch,
        "forward": _time(forward, repeats),
        "forward_backward": _time(forward_backward, repeats),
    }


# ----------------------------------------------------------------------
#: (name, in channels, map side, out channels, kernel, padding) of every
#: conv layer of vgg11 at the bench preset (16x16 images, width 0.25)
#: and of lenet5 (width 1.0); one group's batch of 16
CONV_LAYOUT_SHAPES = (
    ("vgg11.conv1", 3, 16, 16, 3, 1), ("vgg11.conv2", 16, 8, 32, 3, 1),
    ("vgg11.conv3", 32, 4, 64, 3, 1), ("vgg11.conv4", 64, 4, 64, 3, 1),
    ("vgg11.conv5", 64, 2, 128, 3, 1), ("vgg11.conv6", 128, 2, 128, 3, 1),
    ("vgg11.conv7", 128, 1, 128, 3, 1), ("vgg11.conv8", 128, 1, 128, 3, 1),
    ("lenet5.conv1", 1, 16, 6, 5, 2), ("lenet5.conv2", 6, 8, 16, 5, 0),
)
#: (name, channels, map side) of their 2x2 max-pools
POOL_LAYOUT_SHAPES = (
    ("vgg11.pool1", 16, 16), ("vgg11.pool2", 32, 8), ("vgg11.pool3", 64, 4),
    ("vgg11.pool4", 128, 2), ("lenet5.pool1", 6, 16), ("lenet5.pool2", 16, 4),
)
CONV_LAYOUT_BATCH = 16


def _conv_reference():
    """``tests/nn/conv_reference.py``, by path: the harness runs as a
    script and ``tests`` is not a package on its path."""
    path = (Path(__file__).resolve().parents[2] / "tests" / "nn"
            / "conv_reference.py")
    spec = importlib.util.spec_from_file_location("conv_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_conv_layout(repeats: int) -> dict:
    """Each conv/pool product at each bench layer shape, the N-major
    reference against the K-major kernels, paired call by call.

    A backward product is timed as ``out.backward(grad)`` on a fresh
    (untimed) forward with only the weight, or only the input, asking
    for a gradient.  The reference reuses its gradient buffers across
    calls as the product's workspace cache did.  ``speedup`` rows are
    medians of per-pair ratios; ``aggregate`` is total reference time
    over total kernel time, the number the CI gate reads.
    """
    reference = _conv_reference()
    buffers: dict = {}

    def workspace(tag, shape):
        if (tag, shape) not in buffers:
            buffers[tag, shape] = np.empty(shape, np.float32)
        return buffers[tag, shape]

    rng = np.random.default_rng(5)
    out: dict = {"batch": CONV_LAYOUT_BATCH, "layers": {}}
    totals = {"reference": 0.0, "kernels": 0.0}

    def compare(row, product, ops, arrays, grad=None, needs=()):
        """Time ``product`` of the ``(reference, kernels)`` pair
        ``ops`` on ``arrays``: the forward, or — with ``grad`` — the
        backward of a forward rebuilt (untimed) ahead of every pair,
        with a gradient asked of the inputs at ``needs`` only, so one
        conv product is timed at a time."""
        if grad is None:
            timed = [lambda op=op: op(*map(Tensor, arrays)) for op in ops]
            setup = None
        else:
            outs = [None, None]

            def setup():
                outs[:] = [op(*[Tensor(a, requires_grad=i in needs)
                                for i, a in enumerate(arrays)])
                           for op in ops]

            timed = [lambda i=i: outs[i].backward(grad) for i in (0, 1)]
        old_t, new_t, ratio = _time_paired(*timed, repeats, warmup=2,
                                           setup=setup)
        row[product] = {"reference_us": old_t["median_s"] * 1e6,
                        "kernels_us": new_t["median_s"] * 1e6,
                        "speedup": ratio}
        totals["reference"] += old_t["median_s"]
        totals["kernels"] += new_t["median_s"]

    def assert_same(ops, arrays, grad, name):
        results = []
        for op in ops:
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            y = op(*tensors)
            y.backward(grad)
            results.append([y.data.copy()] + [t.grad.copy()
                                              for t in tensors])
        for old_value, new_value in zip(*results):
            assert np.array_equal(old_value, new_value), name

    for name, c, side, out_c, kernel, padding in CONV_LAYOUT_SHAPES:
        x = rng.standard_normal(
            (CONV_LAYOUT_BATCH, c, side, side)).astype(np.float32)
        w = rng.standard_normal((out_c, c, kernel, kernel)).astype(np.float32)
        out_side = side + 2 * padding - kernel + 1
        grad = rng.standard_normal(
            (CONV_LAYOUT_BATCH, out_c, out_side, out_side)).astype(np.float32)

        ops = (lambda xt, wt: reference.conv2d(
                   xt, wt, padding=padding, workspace=workspace),
               lambda xt, wt: F.conv2d(xt, wt, padding=padding))
        assert_same(ops, (x, w), grad, name)
        row = out["layers"][name] = {}
        compare(row, "forward", ops, (x, w))
        compare(row, "weight_grad", ops, (x, w), grad, needs={1})
        compare(row, "input_grad", ops, (x, w), grad, needs={0})

    for name, c, side in POOL_LAYOUT_SHAPES:
        x = rng.standard_normal(
            (CONV_LAYOUT_BATCH, c, side, side)).astype(np.float32)
        x *= x > 0                      # what a ReLU feeds it: signed zeros
        grad = rng.standard_normal(
            (CONV_LAYOUT_BATCH, c, side // 2, side // 2)).astype(np.float32)

        ops = (lambda xt: reference.max_pool2d(xt, 2, workspace=workspace),
               lambda xt: F.max_pool2d(xt, 2))
        assert_same(ops, (x,), grad, name)
        row = out["layers"][name] = {}
        compare(row, "forward", ops, (x,))
        compare(row, "backward", ops, (x,), grad, needs={0})

    out["reference_us"] = totals["reference"] * 1e6
    out["kernels_us"] = totals["kernels"] * 1e6
    out["aggregate"] = totals["reference"] / totals["kernels"]
    return out


# ----------------------------------------------------------------------
#: samples the ``inference_conv`` row evaluates (``evaluate_accuracy``'s
#: batch)
INFERENCE_BATCH = 256


def bench_inference_conv(repeats: int) -> dict:
    """One no-grad vgg11 forward (bench preset: 16x16 images, width
    0.25) of :data:`INFERENCE_BATCH` samples, its conv columns built
    ``F._CHUNK`` samples at a time against the chunk widened to the
    whole batch, alternately; ``chunked_vs_whole`` is the median of the
    per-pair ratios, the number the CI gate reads."""
    model = build_model("vgg11", num_classes=10, in_channels=3,
                        image_size=16, width=0.25, seed=0)
    model.eval()
    x = np.random.default_rng(0).standard_normal(
        (INFERENCE_BATCH, 3, 16, 16)).astype(np.float32)
    chunk = F._CHUNK

    def forward(samples: int):
        def run():
            F._CHUNK = samples
            try:
                with no_grad():
                    return model(Tensor(x)).data
            finally:
                F._CHUNK = chunk
        return run

    chunked, whole = forward(chunk), forward(INFERENCE_BATCH)
    assert np.array_equal(chunked(), whole())
    chunked_t, whole_t, ratio = _time_paired(chunked, whole, repeats)
    return {"batch": INFERENCE_BATCH, "chunk": chunk,
            "chunked_ms": chunked_t["median_s"] * 1e3,
            "whole_ms": whole_t["median_s"] * 1e3,
            "chunked_vs_whole": ratio}


# ----------------------------------------------------------------------
#: (groups, map side, stride) of the jobs day's mobilenet depthwise
#: layers (quick preset: width 0.15, 16x16 images; 3x3, padding 1)
GROUPED_LAYERS = ((5, 16, 1), (10, 16, 2), (19, 8, 2), (19, 8, 1),
                  (38, 4, 2), (38, 4, 1), (77, 2, 2), (77, 2, 1),
                  (154, 1, 1))
#: the day's training batch-norm inputs (one group's batch of 16)
BN_SHAPES = ((16, 5, 16, 16), (16, 10, 16, 16), (16, 19, 8, 8),
             (16, 38, 4, 4), (16, 77, 2, 2), (16, 154, 1, 1))
GROUPED_BATCH = 16
#: the day's mobilenet evaluation batch (its test split)
GROUPED_EVAL_BATCH = 200


def _eval_peak_vs_output() -> float:
    """``tracemalloc`` peak of one no-grad forward of the first
    depthwise layer at :data:`GROUPED_EVAL_BATCH`, over its output's
    bytes (cached scratch dropped first, so the chunk buffer counts)."""
    groups, side, stride = GROUPED_LAYERS[0]
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(
        (GROUPED_EVAL_BATCH, groups, side, side)).astype(np.float32))
    w = Tensor(rng.standard_normal((groups, 1, 3, 3)).astype(np.float32))
    F.clear_workspaces()
    tracemalloc.start()
    try:
        with no_grad():
            out = F.conv2d(x, w, None, stride, 1, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.data.nbytes


def bench_grouped_conv(repeats: int) -> dict:
    """The grouped conv's and batch norm's statistics' product and
    reference twins, paired call by call (one call runs every layer or
    shape); ``*_vs_*`` are medians of the per-pair ratios, product
    over reference, the numbers the CI gates read."""
    from repro.nn import kernels as K
    reference = _conv_reference()
    rng = np.random.default_rng(7)
    layers = []
    for groups, side, stride in GROUPED_LAYERS:
        x = rng.standard_normal(
            (GROUPED_BATCH, groups, side, side)).astype(np.float32)
        w = rng.standard_normal((groups, 1, 3, 3)).astype(np.float32)
        out_side = (side + 2 - 3) // stride + 1
        grad = rng.standard_normal(
            (GROUPED_BATCH, groups, out_side, out_side)).astype(np.float32)
        layers.append((x, w, grad, stride, groups))

    def fwd_bwd(conv):
        def run():
            results = []
            for x, w, grad, stride, groups in layers:
                xt = Tensor(x, requires_grad=True)
                wt = Tensor(w, requires_grad=True)
                out = conv(xt, wt, None, stride, 1, groups)
                out.backward(grad)
                results.append((out.data, xt.grad, wt.grad))
            return results
        return run

    einsums, matmuls = fwd_bwd(reference.grouped_conv2d), fwd_bwd(F.conv2d)
    for old, new in zip(einsums(), matmuls()):
        for a, b in zip(old, new):
            assert a.tobytes() == b.tobytes()
    matmul_t, einsum_t, conv_ratio = _time_paired(matmuls, einsums,
                                                  repeats, warmup=2)

    inputs = [rng.standard_normal(shape).astype(np.float32)
              for shape in BN_SHAPES]
    axes = (0, 2, 3)

    def centre():
        results = []
        for x in inputs:
            stats = np.empty((2, x.shape[1]), np.float32)
            results.append((K.centre(x, axes, stats), stats))
        return results

    def mean_var():
        results = []
        for x in inputs:
            mean, var = np.mean(x, axis=axes), np.var(x, axis=axes)
            results.append((x - mean.reshape(1, -1, 1, 1),
                            np.stack([mean, var])))
        return results

    for old, new in zip(mean_var(), centre()):
        for a, b in zip(old, new):
            assert a.tobytes() == b.tobytes()
    centre_t, mean_var_t, bn_ratio = _time_paired(centre, mean_var,
                                                  repeats, warmup=2)
    return {"batch": GROUPED_BATCH,
            "matmul_us": matmul_t["median_s"] * 1e6,
            "einsum_us": einsum_t["median_s"] * 1e6,
            "matmul_vs_einsum": conv_ratio,
            "centre_us": centre_t["median_s"] * 1e6,
            "mean_var_us": mean_var_t["median_s"] * 1e6,
            "centre_vs_mean_var": bn_ratio,
            "eval_batch": GROUPED_EVAL_BATCH,
            "eval_peak_vs_output": _eval_peak_vs_output()}


# ----------------------------------------------------------------------
def _replica_states(num: int):
    """``num`` flat snapshots of one model, plus per-key dict copies."""
    model = build_model("vgg11", num_classes=10, in_channels=3,
                        image_size=32, width=0.25, seed=0)
    rng = np.random.default_rng(1)
    flat_states = []
    for _ in range(num):
        state = model.state_dict()
        state.flat += rng.standard_normal(
            state.flat.shape).astype(np.float32) * 0.01
        flat_states.append(state)
    perkey_states = [OrderedDict((k, v.copy()) for k, v in s.items())
                     for s in flat_states]
    return flat_states, perkey_states


def _perkey_reference_average(states):
    """The pre-fusion ``average_states``: per-key float64 accumulation.

    This is the data plane the repo shipped with (and what an unfused
    reproduction naturally writes): walk the ``OrderedDict`` key by
    key, accumulate each key in a fresh float64 buffer, cast back.
    The benchmark keeps it alive as the baseline the fused float32
    whole-model path is measured against.
    """
    keys = list(states[0].keys())
    out = OrderedDict()
    for key in keys:
        acc = np.zeros_like(np.asarray(states[0][key], dtype=np.float64))
        for state in states:
            acc += (1.0 / len(states)) * state[key]
        out[key] = acc.astype(states[0][key].dtype)
    return out


def bench_aggregation(repeats: int) -> dict:
    """Fused ``average_states`` vs the per-key float64 reference over
    NUM_REPLICAS replicas.

    ``fused`` is the production whole-model float32 path, ``per_key``
    the pre-fusion float64 reference loop over per-key copies; the two
    are timed alternately.  The headline ``speedup`` — what the CI
    gate watches — is reference / fused, the inverse of the median over
    the pairs of fused / reference.
    Each pair first runs the fused average untimed: timed straight
    after the reference, whose float64 walk evicts the replicas from
    the cache, the memory-bound fused pass reads ~15% slower than in
    the warm loop the committed baseline was recorded with.
    """
    flat_states, perkey_states = _replica_states(NUM_REPLICAS)
    # sanity: the float64 reference must agree to float32 rounding
    out_fused = average_states(flat_states)
    out_reference = _perkey_reference_average(perkey_states)
    for key in out_reference:
        np.testing.assert_allclose(out_fused[key], out_reference[key],
                                   rtol=1e-5, atol=1e-6, err_msg=key)

    def fused_average():
        average_states(flat_states)

    fused, perkey, inverse = _time_paired(
        fused_average, lambda: _perkey_reference_average(perkey_states),
        repeats, setup=fused_average)
    return {
        "replicas": NUM_REPLICAS,
        "model_floats": int(flat_states[0].flat.size),
        "fused": fused,
        "per_key": perkey,
        "speedup": 1.0 / inverse,
    }


def bench_bucketed_aggregation(repeats: int) -> dict:
    """Per-bucket fused averaging vs the whole-model fused path.

    The comm/compute-overlap data plane re-slices the same flat storage
    at bucket boundaries; this section measures what that slicing costs
    on the host (it should be noise: same kernel, same bytes) and
    asserts the outputs stay bit-identical at every bucket geometry.
    """
    from repro.comm.buckets import BucketPlan, bucketed_average_states

    flat_states, _ = _replica_states(NUM_REPLICAS)
    layout = flat_states[0].layout
    whole = average_states(flat_states)
    real_bytes = 4.0 * layout.param_total
    out: dict = {"replicas": NUM_REPLICAS}
    for name, plan in (
            ("one_bucket", BucketPlan.from_layout(layout)),
            ("buckets8", BucketPlan.from_layout(
                layout, threshold_bytes=real_bytes / 8)),
            ("per_tensor", BucketPlan.from_layout(layout, max_ops=1))):
        merged = bucketed_average_states(flat_states, plan)
        assert np.array_equal(whole.flat, merged.flat), name
        timing = _time(lambda: bucketed_average_states(flat_states, plan),
                       repeats)
        timing["num_buckets"] = plan.num_buckets
        out[name] = timing
    out["overhead_vs_whole"] = (out["per_tensor"]["median_s"]
                                / max(out["one_bucket"]["median_s"], 1e-12))
    return out


# ----------------------------------------------------------------------
#: step-time benchmark geometries — quick-scale shapes where the
#: interpreter overhead the graph executor removes is visible (larger
#: images drown the step in BLAS time and both paths converge).
STEP_TIME_SPECS = (
    ("lenet5", {"in_channels": 1, "width": 0.25}, 4),
    ("resnet18", {"in_channels": 3, "width": 0.25}, 8),
    ("vit_tiny", {"in_channels": 3, "width": 0.5}, 8),
)
STEP_TIME_IMAGE = 16


def bench_step_time(repeats: int) -> dict:
    """End-to-end training step, eager vs compiled replay, per model.

    For each geometry two identical models train on the same batch: one
    on the eager tape interpreter, one through the trace-once/replay-many
    graph executor.  Before timing, three verification steps run on both
    and the resulting weights are asserted **bit-identical** — the
    speedup below is only meaningful because the replayed step computes
    the exact same bits.  ``speedup`` is the median of eager / replay
    over steps taken alternately (a paired ratio: a load change on the
    host lands on both sides); the CI gate holds lenet5 and vit_tiny
    above their floors.
    """
    from repro.distributed.base import fp32_train_step
    from repro.nn.optim import SGD

    out: dict = {"image_size": STEP_TIME_IMAGE}
    for name, kwargs, batch in STEP_TIME_SPECS:
        kwargs = dict(kwargs, num_classes=10, image_size=STEP_TIME_IMAGE)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(
            (batch, kwargs["in_channels"], STEP_TIME_IMAGE,
             STEP_TIME_IMAGE)).astype(np.float32)
        y = rng.integers(0, 10, size=batch)

        def make(graph: bool):
            model = build_model(name, seed=3, **kwargs)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                            weight_decay=1e-4,
                            flat=model.flatten_parameters())
            if graph:
                assert model.enable_graph_executor() is not None, name
            return model, optimizer

        eager_model, eager_opt = make(False)
        graph_model, graph_opt = make(True)
        for _ in range(3):
            eager_loss = fp32_train_step(eager_model, eager_opt, x, y)
            graph_loss = fp32_train_step(graph_model, graph_opt, x, y)
            assert eager_loss == graph_loss, name
        eager_state = eager_model.state_dict()
        graph_state = graph_model.state_dict()
        for key in eager_state:
            assert np.array_equal(eager_state[key], graph_state[key]), \
                (name, key)

        eager, replay, speedup = _time_paired(
            lambda: fp32_train_step(eager_model, eager_opt, x, y),
            lambda: fp32_train_step(graph_model, graph_opt, x, y), repeats,
            warmup=5)
        executor = graph_model._graph_exec
        program = executor.program_stats()[0]
        out[name] = {
            "batch": batch,
            "eager": eager,
            "replay": replay,
            "speedup": speedup,
            "program": program,
        }
    return out


# ----------------------------------------------------------------------
def bench_int8_step_time(repeats: int) -> dict:
    """End-to-end *INT8* training step, eager vs compiled replay.

    Same protocol as :func:`bench_step_time`, but the unit under test is
    the whole ``Int8Trainer.train_step`` — fake-quantised weights and
    activations, STE hooks, grad-norm clip, stochastically-rounded
    gradient quantisation and the FP32 master-weight update.  Before
    timing, three verification steps assert the replayed trainer's
    weights, RNG stream and observer EMAs are **bit-identical** to the
    eager twin's.  The CI gate holds lenet5 and vit_tiny above their
    floors (resnet18 is reported but BLAS-bound).
    """
    from repro.quant.int8 import QuantConfig
    from repro.quant.trainer import Int8Trainer

    out: dict = {"image_size": STEP_TIME_IMAGE}
    for name, kwargs, batch in STEP_TIME_SPECS:
        kwargs = dict(kwargs, num_classes=10, image_size=STEP_TIME_IMAGE)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(
            (batch, kwargs["in_channels"], STEP_TIME_IMAGE,
             STEP_TIME_IMAGE)).astype(np.float32)
        y = rng.integers(0, 10, size=batch)

        def make(graph: bool):
            trainer = Int8Trainer(build_model(name, seed=3, **kwargs),
                                  lr=0.05, config=QuantConfig(),
                                  momentum=0.9, weight_decay=1e-4, seed=11)
            if graph:
                trainer.enable_graph_executor()
            return trainer

        eager, graphed = make(False), make(True)
        for _ in range(3):
            assert eager.train_step(x, y) == graphed.train_step(x, y), name
        eager_state = eager.model.state_dict()
        graph_state = graphed.model.state_dict()
        for key in eager_state:
            assert np.array_equal(eager_state[key], graph_state[key]), \
                (name, key)
        assert (eager.rng.bit_generator.state
                == graphed.rng.bit_generator.state), name
        assert graphed.graph_stats()["fallbacks"] == 0, name

        eager_t, replay_t, speedup = _time_paired(
            lambda: eager.train_step(x, y),
            lambda: graphed.train_step(x, y), repeats, warmup=5)
        program = graphed._graph_exec.program_stats()[0]
        out[name] = {
            "batch": batch,
            "eager": eager_t,
            "replay": replay_t,
            "speedup": speedup,
            "program": program,
        }
    return out


# ----------------------------------------------------------------------
#: logical groups of the paper's 60-SoC server
GRAPH_REPLICAS = 15


def _rss_mb() -> "float | None":
    """Current (not peak) resident set of this process, Linux only."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    import resource
    return pages * resource.getpagesize() / 2**20


def _replica_bench():
    """The multi-replica sections' common ground: the claims benchmark's
    ``train_*`` configuration per model, logical groups built the way a
    run builds them (``GroupRun``: one step arena, common
    initial state) and one mixed-precision ``train_batch`` per group
    and round."""
    from dataclasses import replace

    from repro.core import SoCFlowOptions
    from repro.core.socflow import GroupRun
    from repro.distributed.base import CostModel
    from repro.harness import make_run_config
    from repro.quant.mixed import MixedPrecisionController

    base = make_run_config("vgg11", "bench", num_socs=4 * GRAPH_REPLICAS,
                           num_groups=GRAPH_REPLICAS, max_epochs=1)
    x_train, y_train = base.task.x_train, base.task.y_train
    batch = base.batch_size

    def groups_for(config, count):
        config = replace(config, num_groups=count)
        cost = CostModel(config)
        controller = MixedPrecisionController(cost.t_cpu_sample,
                                              cost.t_npu_sample)
        return GroupRun(config, SoCFlowOptions(), cost, controller,
                        count).groups

    def one_round(groups, index):
        t0 = time.perf_counter()
        for g, group in enumerate(groups):
            start = ((index * len(groups) + g) * batch) % (
                len(x_train) - batch)
            group.train_batch(x_train[start:start + batch],
                              y_train[start:start + batch])
        return time.perf_counter() - t0

    configs = {"vit_tiny": replace(base, model_name="vit_tiny", width=0.5),
               "vgg11": base}
    return configs, groups_for, one_round, batch


def bench_graph_replicas(rounds: int, replicas: int = GRAPH_REPLICAS) -> dict:
    """``replicas`` logical groups round-robin, eager vs compiled.

    Groups and rounds as in :func:`_replica_bench`.  Eager and compiled
    rounds alternate so host noise lands on both; the first compiled
    round (captures + binds) is reported apart.  After timing, every
    compiled group is asserted **bit-identical** to its eager twin.
    """
    from dataclasses import replace

    configs, groups_for, one_round, batch = _replica_bench()
    out: dict = {"replicas": replicas, "rounds": rounds, "batch": batch}
    for model, config in configs.items():
        # resident-set growth of building the groups and touching all
        # their state once (eager first: its freed temporaries stay
        # with the allocator, so the compiled figure is not charged them)
        rss0 = _rss_mb()
        eager = groups_for(config, replicas)
        one_round(eager, 0)
        rss1 = _rss_mb()
        graphed = groups_for(replace(config, graph=True), replicas)
        first_round_s = one_round(graphed, 0)
        rss2 = _rss_mb()
        eager_s, graph_s = [], []
        for index in range(1, rounds + 1):
            for groups, samples in ((eager, eager_s), (graphed, graph_s))[
                    ::1 if index % 2 else -1]:
                samples.append(one_round(groups, index))
        for a, b in zip(eager, graphed):
            state_a, state_b = a.state_dict(), b.state_dict()
            for key in state_a:
                assert np.array_equal(state_a[key], state_b[key]), \
                    (model, key)
        eager_ms = sorted(eager_s)[len(eager_s) // 2] * 1e3 / replicas
        graph_ms = sorted(graph_s)[len(graph_s) // 2] * 1e3 / replicas
        plans = graphed[0].arena.snapshot()
        pair = groups_for(replace(config, graph=True), 2)
        one_round(pair, 0)
        out[model] = {
            "eager_ms_per_step": eager_ms,
            "graph_ms_per_step": graph_ms,
            "graph_vs_eager": graph_ms / eager_ms,
            "graph_first_round_ms_per_step": first_round_s * 1e3 / replicas,
            "plans": plans,
            "workspace_bytes": sum(p["workspace_bytes"]
                                   for p in plans.values()),
            "workspace_bytes_2_replicas": sum(
                p["workspace_bytes"]
                for p in pair[0].arena.snapshot().values()),
            "eager_rss_mb": None if rss0 is None else rss1 - rss0,
            "graph_rss_mb": None if rss0 is None else rss2 - rss1,
        }
    return out


#: group counts the replica-memory section measures at (the first and
#: the last give the slope, the middle one checks it is a line)
MEMORY_GROUP_COUNTS = (2, 8, GRAPH_REPLICAS)


def bench_replica_memory(rounds: int = 2) -> dict:
    """What a logical group costs in host memory: ``tracemalloc`` live
    bytes after building ``n`` groups and stepping each ``rounds``
    times, at :data:`MEMORY_GROUP_COUNTS`, vit_tiny and vgg11, eager
    and compiled.

    Reported per model and mode: bytes per added group (also in units
    of one parameter-sized float32 array — a mixed group owns one
    weight and two momentum buffers, so 3 plus small change), the
    per-run constant left at each count once the groups' share is
    taken out (arena, compiled workspace, op workspaces: it must not
    depend on the count) and the step arena's own bytes.
    """
    import gc
    import tracemalloc
    from dataclasses import replace

    configs, groups_for, one_round, _ = _replica_bench()
    low, mid, high = MEMORY_GROUP_COUNTS
    arena_bytes: dict = {}

    def live_bytes(config, count):
        F.clear_workspaces()
        gc.collect()
        tracemalloc.start()
        groups = groups_for(config, count)
        for index in range(rounds):
            one_round(groups, index)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        arena_bytes[count] = sum(a.nbytes for a in groups[0].arena.buffers())
        return live

    out: dict = {"rounds": rounds, "group_counts": list(MEMORY_GROUP_COUNTS)}
    for model, config in configs.items():
        out[model] = {}
        for mode in ("eager", "graph"):
            mode_config = replace(config, graph=mode == "graph")
            # one untraced pass first: whatever the process allocates
            # once and keeps (import-time caches, interned layouts)
            # must not be charged to the first traced count
            warm = groups_for(mode_config, low)
            one_round(warm, 0)
            param_bytes = warm[0].fp32.flatten_parameters().grads.nbytes
            del warm
            live = {n: live_bytes(mode_config, n)
                    for n in MEMORY_GROUP_COUNTS}
            on_line = live[low] + (live[high] - live[low]) * (
                mid - low) / (high - low)
            if abs(live[mid] - on_line) > 0.005 * live[mid]:
                # The interpreter now and then grows a block of its own
                # inside a traced window (seen: one 1877 KiB block in
                # about 1 window of 15), which only ever adds: the
                # groups' bytes are the smaller of two readings.
                live = {n: min(live[n], live_bytes(mode_config, n))
                        for n in live}
            per_group = (live[high] - live[low]) / (high - low)
            out[model][mode] = {
                "param_bytes": param_bytes,
                "live_bytes": {str(n): live[n] for n in live},
                "bytes_per_added_group": per_group,
                "param_arrays_per_added_group": per_group / param_bytes,
                "run_constant_bytes": {
                    str(n): live[n] - n * per_group for n in live},
                "arena_bytes": {str(n): arena_bytes[n]
                                for n in MEMORY_GROUP_COUNTS},
            }
    return out


# ----------------------------------------------------------------------
def bench_epoch(repeats: int, workers: int = 1, epochs: int = 1) -> dict:
    """End-to-end SoCFlow wall time at quick scale (host seconds)."""
    from repro.core import SoCFlow, SoCFlowOptions
    from repro.harness import make_run_config

    config = make_run_config("vgg11", "quick", num_socs=16, num_groups=4,
                             max_epochs=epochs, workers=workers)

    def run():
        return SoCFlow(SoCFlowOptions()).train(config)

    timing = _time(run, repeats, warmup=0)
    timing.update(epochs=epochs, workers=workers, num_groups=4, num_socs=16)
    return timing


# ----------------------------------------------------------------------
#: peak request rate per ``serving_day`` size (``full`` is the claims
#: benchmark's ``serve_flash_day`` traffic)
SERVING_DAY_PEAK_RPS = {"smoke": 6.0, "full": 48.0}


def bench_serving_day(size: str, repeats: int) -> dict:
    """Arrival generation + the dispatch loop over one simulated day."""
    from repro.cluster import ClusterTopology
    from repro.serving import (ArrivalProcess, FlashCrowd, Region,
                               ServiceModel, ServingPlane)

    topology = ClusterTopology(num_socs=16)
    service = ServiceModel.for_model("resnet18", soc=topology.soc,
                                     max_batch=4)
    day = {}

    def generate():
        day["arrivals"] = ArrivalProcess(
            [Region("global", SERVING_DAY_PEAK_RPS[size])],
            horizon_hours=24.0, seed=0,
            flash_crowds=[FlashCrowd(20.0, 1.5, 1.8)])

    def serve():
        plane = ServingPlane(day["arrivals"], service, slo_ms=600.0,
                             min_replicas=1)
        plane.bootstrap(list(range(topology.num_socs)), 0.0)
        for window in range(1, 97):
            free = [s for s in range(topology.num_socs)
                    if s not in plane.held_socs]
            plane.advance(window * 0.25, claimable=free)
        day["plane"] = plane

    # generated and served alternately: their quotient is the gated
    # number, and it should not move with the host
    generated, served, inverse = _time_paired(generate, serve, repeats,
                                              warmup=0)
    plane = day["plane"]
    assert plane.total_requests == plane.total_served \
        + plane.total_dropped + plane.queue_depth
    tracemalloc.start()
    try:
        generate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "peak_rps": SERVING_DAY_PEAK_RPS[size],
        "requests": plane.total_requests,
        "arrivals_gen_s": generated["median_s"],
        "dispatch_s": served["median_s"],
        "dispatch_us_per_request":
            served["median_s"] * 1e6 / plane.total_requests,
        "dispatch_vs_generation": 1.0 / inverse,
        "generation_peak_vs_output":
            peak / day["arrivals"].arrivals_h.nbytes,
    }


# ----------------------------------------------------------------------
def run_harness(mode: str = "smoke") -> dict:
    repeats = {"smoke": 3, "full": 10}[mode]
    report = {
        "mode": mode,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "conv": bench_conv(repeats),
        "conv_layout": bench_conv_layout(max(repeats, 15)),
        "inference_conv": bench_inference_conv(max(repeats, 7)),
        "grouped_conv": bench_grouped_conv(max(repeats, 15)),
        "aggregation": bench_aggregation(max(repeats, 20)),
        "bucketed_aggregation": bench_bucketed_aggregation(max(repeats, 20)),
        "step_time": bench_step_time(max(repeats, 15)),
        "int8_step_time": bench_int8_step_time(max(repeats, 15)),
        "graph_replicas": bench_graph_replicas(rounds=repeats + 1),
        "replica_memory": bench_replica_memory(),
        "epoch": {
            "sequential": bench_epoch(1 if mode == "smoke" else repeats),
            "workers2": bench_epoch(1 if mode == "smoke" else repeats,
                                    workers=2),
        },
        # the gate reads the smoke size, so a full run measures both
        "serving_day": {
            size: bench_serving_day(size, repeats)
            for size in (("smoke",) if mode == "smoke"
                         else ("smoke", "full"))},
    }
    return report


#: the committed CI-gate baseline next to this file
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def update_baseline(report: dict, path=BASELINE_PATH) -> dict:
    """Rewrite ``baseline.json`` in place from a fresh report.

    Only the quantities the CI gates read are refreshed (plus the raw
    aggregation medians kept for context); the explanatory ``comment``
    survives.  Run with ``--mode full`` on the reference runner — see
    DESIGN.md's baseline-regeneration workflow.
    """
    with open(path) as fh:
        baseline = json.load(fh)
    agg = report["aggregation"]
    baseline["aggregation"] = {
        "speedup": round(agg["speedup"], 2),
        "fused_median_s": round(agg["fused"]["median_s"], 5),
        "per_key_median_s": round(agg["per_key"]["median_s"], 5),
    }
    baseline["bucketed_aggregation"] = {
        "overhead_vs_whole": round(
            report["bucketed_aggregation"]["overhead_vs_whole"], 2),
    }
    for section in ("step_time", "int8_step_time"):
        baseline[section] = {
            model: {"speedup": round(report[section][model]["speedup"], 2)}
            for model in ("lenet5", "vit_tiny")}
    serving = report["serving_day"]["smoke"]
    baseline["serving_day"] = {
        "dispatch_vs_generation": round(
            serving["dispatch_vs_generation"], 3),
        "dispatch_us_per_request": round(
            serving["dispatch_us_per_request"], 3),
        "arrivals_gen_s": round(serving["arrivals_gen_s"], 4),
        "requests": serving["requests"],
    }
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument("--mode", default="smoke", choices=("smoke", "full"))
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the committed baseline.json from this run's "
             "measurements (use --mode full on the reference runner)")
    args = parser.parse_args(argv)
    report = run_harness(args.mode)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    agg = report["aggregation"]
    print(f"conv fwd       {report['conv']['forward']['median_s']*1e3:8.2f} ms")
    print(f"conv fwd+bwd   "
          f"{report['conv']['forward_backward']['median_s']*1e3:8.2f} ms")
    layout = report["conv_layout"]
    print(f"conv layout    {layout['reference_us']:8.0f} us N-major  "
          f"{layout['kernels_us']:8.0f} us K-major  "
          f"{layout['aggregate']:5.2f}x")
    infer = report["inference_conv"]
    print(f"infer conv     {infer['chunked_ms']:8.1f} ms chunked  "
          f"{infer['whole_ms']:8.1f} ms whole batch  "
          f"{infer['chunked_vs_whole']:5.2f}x")
    grouped = report["grouped_conv"]
    print(f"grouped conv   {grouped['matmul_us']:8.0f} us matmul  "
          f"{grouped['einsum_us']:8.0f} us einsum  "
          f"{grouped['matmul_vs_einsum']:5.2f}x")
    print(f"bn statistics  {grouped['centre_us']:8.0f} us centre  "
          f"{grouped['mean_var_us']:8.0f} us mean+var  "
          f"{grouped['centre_vs_mean_var']:5.2f}x")
    print(f"grouped eval   peak {grouped['eval_peak_vs_output']:5.2f}x "
          f"its output (batch {grouped['eval_batch']})")
    print(f"agg fused      {agg['fused']['median_s']*1e6:8.1f} us")
    print(f"agg per-key    {agg['per_key']['median_s']*1e6:8.1f} us")
    print(f"agg speedup    {agg['speedup']:8.2f}x")
    bucketed = report["bucketed_aggregation"]
    print(f"agg bucketed   "
          f"{bucketed['buckets8']['median_s']*1e6:8.1f} us "
          f"({bucketed['buckets8']['num_buckets']} buckets)")
    for section, tag in (("step_time", "step"), ("int8_step_time", "int8")):
        for name, _, _ in STEP_TIME_SPECS:
            timing = report[section][name]
            print(f"{tag} {name:10s} eager "
                  f"{timing['eager']['median_s']*1e3:7.2f} ms  replay "
                  f"{timing['replay']['median_s']*1e3:7.2f} ms  "
                  f"{timing['speedup']:5.2f}x")
    for model in ("vit_tiny", "vgg11"):
        row = report["graph_replicas"][model]
        print(f"x{report['graph_replicas']['replicas']} {model:9s} eager "
              f"{row['eager_ms_per_step']:7.2f} ms  graph "
              f"{row['graph_ms_per_step']:7.2f} ms  "
              f"{row['graph_vs_eager']:5.2f}x  workspace "
              f"{row['workspace_bytes'] / 2**20:6.1f} MiB")
    for model in ("vit_tiny", "vgg11"):
        for mode, row in report["replica_memory"][model].items():
            constant = row["run_constant_bytes"][str(GRAPH_REPLICAS)]
            print(f"mem {model:9s} {mode:5s} "
                  f"{row['bytes_per_added_group'] / 2**20:6.2f} MiB/group = "
                  f"{row['param_arrays_per_added_group']:4.2f} param arrays"
                  f"  run constant {constant / 2**20:6.1f} MiB")
    print(f"epoch seq      "
          f"{report['epoch']['sequential']['median_s']:8.2f} s")
    print(f"epoch w=2      {report['epoch']['workers2']['median_s']:8.2f} s")
    for size, day in report["serving_day"].items():
        print(f"serve {size:5s}    gen {day['arrivals_gen_s']:6.3f} s  "
              f"dispatch {day['dispatch_us_per_request']:6.3f} us/request "
              f"= {day['dispatch_vs_generation']:5.2f}x gen "
              f"({day['requests']} requests, generation peak "
              f"{day['generation_peak_vs_output']:4.2f}x its output)")
    print(f"wrote {args.out}")
    if args.update_baseline:
        update_baseline(report)
        print(f"rewrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
