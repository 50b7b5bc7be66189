"""Perf smoke test: produce ``BENCH_perf.json`` and gate regressions.

Runs the host wall-clock harness (``perf_harness.py``) in smoke mode,
writes the report to ``$BENCH_PERF_OUT`` (default ``BENCH_perf.json``
in the current directory — CI uploads it as a workflow artifact), and
fails when a gated microbenchmark regresses more than 25% relative to
the committed ``baseline.json``: the fused-vs-per-key aggregation
speedup, the per-tensor bucketed-averaging overhead, the compiled
(graph-executor) FP32 and INT8 training-step speedups on lenet5 and
vit_tiny, and the K-major conv/pool kernels against their N-major
reference (>= 1.15x, absolute).  The grouped conv and batch-norm
statistics, the serving event core's dispatch and blocked inference
pooling are gated against their reference twins (<= 1.0x, <= 0.8x,
<= 0.9x and <= 1.05x, absolute); a no-grad depthwise forward's memory
peak against its output (<= 4x) and an evaluation's against its
largest activation (<= 3x) are structural.  The step-time, serving,
conv-layout, grouped and pooling gates read the median ratio of two
things timed alternately in one process, so they hold on a loaded
runner.
Two gates are absolute rather than relative: fifteen logical groups
stepping round-robin must not be slower compiled than eager
(``graph_replicas``), on the ViT *and* on BLAS-bound vgg11; and an
added logical group may cost at most 3.3 parameter-sized arrays of
host memory (``replica_memory``).
Regenerate the baseline with the harness's
``--update-baseline`` flag, never by hand (see DESIGN.md).

Wall-clock assertions on shared CI runners are noisy, so the gate
retries once with more repeats before declaring a regression; the
measured margin (~4.3x fused speedup against a 2x floor and a 3.2x
baseline gate) leaves plenty of headroom.

Not part of the tier-1 suite (``testpaths = ["tests"]``); CI runs it
explicitly with ``python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from perf_harness import (GRAPH_REPLICAS, MEMORY_GROUP_COUNTS,
                          bench_aggregation, bench_bucketed_aggregation,
                          bench_conv_layout, bench_graph_replicas,
                          bench_grouped_conv, bench_inference_conv,
                          bench_inference_pool,
                          bench_int8_step_time, bench_serving_day,
                          bench_step_time, run_harness, update_baseline)

_HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def report() -> dict:
    report = run_harness("smoke")
    out = Path(os.environ.get("BENCH_PERF_OUT", "BENCH_perf.json"))
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


@pytest.fixture(scope="module")
def baseline() -> dict:
    with open(_HERE / "baseline.json") as fh:
        return json.load(fh)


def test_report_has_all_sections(report):
    assert set(report) >= {"mode", "host", "conv", "conv_layout",
                           "inference_conv", "inference_pool",
                           "grouped_conv",
                           "aggregation",
                           "bucketed_aggregation", "step_time",
                           "int8_step_time", "graph_replicas",
                           "replica_memory", "epoch", "serving_day"}
    for section in ("forward", "forward_backward"):
        assert report["conv"][section]["median_s"] > 0
    for model in ("lenet5", "resnet18", "vit_tiny"):
        assert report["step_time"][model]["eager"]["median_s"] > 0
        assert report["step_time"][model]["replay"]["median_s"] > 0
        assert report["int8_step_time"][model]["eager"]["median_s"] > 0
        assert report["int8_step_time"][model]["replay"]["median_s"] > 0
    for path in ("fused", "per_key"):
        assert report["aggregation"][path]["median_s"] > 0
    for variant in ("sequential", "workers2"):
        assert report["epoch"][variant]["median_s"] > 0
    day = report["serving_day"]["smoke"]
    assert day["requests"] > 0 and day["arrivals_gen_s"] > 0
    assert day["dispatch_us_per_request"] > 0


def test_conv_layout_beats_the_n_major_reference(report):
    """The K-major conv/pool kernels against the N-major spellings they
    replaced (bit-equality asserted inside the harness), every product
    at every bench layer shape, paired call by call: at least 1.15x in
    aggregate (1.35x when it was written; the 1x1 maps, whose
    per-sample panels are strided vectors, give some back)."""
    layout = report["conv_layout"]
    assert set(layout["layers"]) >= {"vgg11.conv1", "vgg11.conv8",
                                     "lenet5.conv2", "vgg11.pool1"}
    aggregate = layout["aggregate"]
    if aggregate < 1.15:                                # noisy runner: retry
        aggregate = bench_conv_layout(repeats=40)["aggregate"]
    assert aggregate >= 1.15, (
        f"K-major conv/pool kernels only {aggregate:.2f}x over the "
        f"N-major reference (need >= 1.15x)")


def test_inference_conv_chunks_beat_the_whole_batch(report):
    """vgg11 evaluating 256 samples with its conv columns unfolded a
    chunk at a time (bit-equality asserted inside the harness) takes at
    most 0.9x the whole-batch columns' time, paired call by call (≈ 0.7x
    when it was written: the chunk's columns stay in cache)."""
    ratio = report["inference_conv"]["chunked_vs_whole"]
    if ratio > 0.9:                                     # noisy runner: retry
        ratio = bench_inference_conv(repeats=15)["chunked_vs_whole"]
    assert ratio <= 0.9, (
        f"chunked inference conv at {ratio:.2f}x the whole-batch "
        f"columns (need <= 0.9x)")


def test_inference_pool_no_slower_than_the_whole_batch(report):
    """vgg11 evaluating its 600 bench test samples with max-pool windows
    unfolded a block of rows at a time (logits bit-equality asserted
    inside the harness) takes at most 1.05x the time of the whole
    batch's windows unfolded at once, paired call by call (≈ 0.98x when
    it was written)."""
    ratio = report["inference_pool"]["blocked_vs_whole"]
    if ratio > 1.05:                                    # noisy runner: retry
        ratio = bench_inference_pool(repeats=21)["blocked_vs_whole"]
    assert ratio <= 1.05, (
        f"blocked inference pooling at {ratio:.2f}x the whole-batch "
        f"windows (need <= 1.05x)")


def test_evaluation_peak_is_set_by_activations(report):
    """The ``tracemalloc`` peak of that evaluation is at most 3x its
    largest activation (the first conv's output at 256 samples; 2.73x
    when it was written: that activation, the next one, a mask and the
    op scratch).  The whole batch's pooling windows on top read 3.47x."""
    peak = report["inference_pool"]["eval_peak_vs_activation"]
    assert peak <= 3.0, (
        f"evaluation peaks at {peak:.2f}x its largest activation "
        f"(need <= 3x)")


def test_grouped_conv_no_slower_than_its_einsums(report):
    """The jobs day's nine depthwise layers, forward and both gradients
    (byte equality asserted inside the harness), as matmul/multiply
    calls on K-minor columns: at most 1.0x the three einsums on
    N-major columns they replaced, paired call by call (≈ 0.92x when
    it was written)."""
    ratio = report["grouped_conv"]["matmul_vs_einsum"]
    if ratio > 1.0:                                     # noisy runner: retry
        ratio = bench_grouped_conv(repeats=30)["matmul_vs_einsum"]
    assert ratio <= 1.0, (
        f"grouped conv at {ratio:.2f}x its three einsums (need <= 1.0x)")


def test_batch_norm_statistics_beat_mean_and_var(report):
    """Training batch norm's statistics on the day's six BN shapes as
    one kernel (one mean, the variance of the kept deviations): at
    most 0.8x ``np.mean`` + ``np.var`` + the subtraction, the same
    bytes, paired call by call (≈ 0.62x when it was written)."""
    ratio = report["grouped_conv"]["centre_vs_mean_var"]
    if ratio > 0.8:                                     # noisy runner: retry
        ratio = bench_grouped_conv(repeats=30)["centre_vs_mean_var"]
    assert ratio <= 0.8, (
        f"batch-norm statistics at {ratio:.2f}x np.mean + np.var "
        f"(need <= 0.8x)")


def test_grouped_inference_peaks_near_its_output(report):
    """A no-grad forward of the first depthwise layer at the day's
    evaluation batch (200) unfolds a chunk of samples at a time: its
    ``tracemalloc`` peak is at most 4x its output (3.4x when it was
    written: output, padded input, one chunk's columns; 11.9x with the
    whole batch's columns)."""
    peak = report["grouped_conv"]["eval_peak_vs_output"]
    assert peak <= 4.0, (
        f"grouped inference peaks at {peak:.2f}x its output (need <= 4x)")


def test_bucketed_aggregation_geometries(report):
    """The per-bucket merge ran (bit-equality asserted inside the
    harness) and its geometries are what the overlap plan produces."""
    bucketed = report["bucketed_aggregation"]
    assert bucketed["one_bucket"]["num_buckets"] == 1
    assert bucketed["buckets8"]["num_buckets"] > 1
    assert bucketed["per_tensor"]["num_buckets"] > \
        bucketed["buckets8"]["num_buckets"]
    for name in ("one_bucket", "buckets8", "per_tensor"):
        assert bucketed[name]["median_s"] > 0


def test_fused_aggregation_meets_absolute_target(report):
    """Acceptance criterion: fused >= 2x over the per-key reference."""
    speedup = report["aggregation"]["speedup"]
    if speedup < 2.0:                                   # noisy runner: retry
        speedup = bench_aggregation(repeats=50)["speedup"]
    assert speedup >= 2.0, (
        f"fused aggregation only {speedup:.2f}x over the per-key "
        f"reference (need >= 2x)")


def test_fused_aggregation_not_regressed_vs_baseline(report, baseline):
    """CI gate: fail on a >25% relative regression vs the committed
    baseline speedup."""
    floor = 0.75 * baseline["aggregation"]["speedup"]
    speedup = report["aggregation"]["speedup"]
    if speedup < floor:                                 # noisy runner: retry
        speedup = bench_aggregation(repeats=50)["speedup"]
    assert speedup >= floor, (
        f"fused aggregation speedup {speedup:.2f}x fell below 75% of the "
        f"committed baseline ({baseline['aggregation']['speedup']:.2f}x; "
        f"gate at {floor:.2f}x) — the fused data plane regressed")


def test_bucketed_overhead_not_regressed(report, baseline):
    """CI gate: slicing the flat average at bucket boundaries must stay
    cheap — same kernel, same bytes, only per-bucket launches added.

    The ceiling is generous (max of 2x absolute and 1.6x the committed
    ~1.24x baseline) because the per-tensor extreme measures launch
    overhead of sub-microsecond slices on a shared runner.
    """
    ceiling = max(2.0,
                  1.6 * baseline["bucketed_aggregation"]["overhead_vs_whole"])
    overhead = report["bucketed_aggregation"]["overhead_vs_whole"]
    if overhead > ceiling:                              # noisy runner: retry
        overhead = bench_bucketed_aggregation(
            repeats=50)["overhead_vs_whole"]
    assert overhead <= ceiling, (
        f"per-tensor bucketed averaging costs {overhead:.2f}x the "
        f"whole-model fused path (ceiling {ceiling:.2f}x) — bucket "
        f"slicing got expensive")


# -- graph executor (trace-once/replay-many) gates ----------------------
#: models whose compiled-step speedup the CI gate enforces (resnet18 is
#: reported but not gated: its step is BLAS-bound, so removing the
#: interpreter moves it less)
_GATED_STEP_MODELS = ("lenet5", "vit_tiny")


def test_compiled_step_meets_absolute_target(report):
    """Acceptance criterion: replaying the compiled step is >= 1.3x
    faster than the eager tape interpreter on a CNN and the ViT (the
    harness asserts bit-identical weights before timing)."""
    retried = None
    for model in _GATED_STEP_MODELS:
        speedup = report["step_time"][model]["speedup"]
        if speedup < 1.3:                               # noisy runner: retry
            retried = retried or bench_step_time(repeats=40)
            speedup = retried[model]["speedup"]
        assert speedup >= 1.3, (
            f"compiled {model} step only {speedup:.2f}x over eager "
            f"(need >= 1.3x)")


def test_compiled_step_not_regressed_vs_baseline(report, baseline):
    """CI gate: fail on a >25% relative regression of the compiled-step
    speedup vs the committed baseline."""
    retried = None
    for model in _GATED_STEP_MODELS:
        floor = 0.75 * baseline["step_time"][model]["speedup"]
        speedup = report["step_time"][model]["speedup"]
        if speedup < floor:                             # noisy runner: retry
            retried = retried or bench_step_time(repeats=40)
            speedup = retried[model]["speedup"]
        assert speedup >= floor, (
            f"compiled {model} step speedup {speedup:.2f}x fell below 75% "
            f"of the committed baseline "
            f"({baseline['step_time'][model]['speedup']:.2f}x; gate at "
            f"{floor:.2f}x) — the graph executor regressed")


def test_compiled_step_arena_smaller_than_naive(report):
    """The lifetime planner must actually pack: the arena has to be
    smaller than giving every intermediate a dedicated buffer."""
    for section in ("step_time", "int8_step_time"):
        for model in ("lenet5", "resnet18", "vit_tiny"):
            program = report[section][model]["program"]
            assert program["arena_bytes"] < program["naive_bytes"], \
                (section, model)


def test_compiled_int8_step_meets_absolute_target(report):
    """Acceptance criterion: replaying the compiled INT8 step — quant
    stages and stochastic rounding included — is >= 1.3x faster than
    the eager INT8 step on a CNN and the ViT (the harness asserts
    bit-identical weights, RNG stream and observers before timing)."""
    retried = None
    for model in _GATED_STEP_MODELS:
        speedup = report["int8_step_time"][model]["speedup"]
        if speedup < 1.3:                               # noisy runner: retry
            retried = retried or bench_int8_step_time(repeats=40)
            speedup = retried[model]["speedup"]
        assert speedup >= 1.3, (
            f"compiled INT8 {model} step only {speedup:.2f}x over eager "
            f"(need >= 1.3x)")


def test_compiled_int8_step_not_regressed_vs_baseline(report, baseline):
    """CI gate: fail on a >25% relative regression of the compiled INT8
    step speedup vs the committed baseline."""
    retried = None
    for model in _GATED_STEP_MODELS:
        floor = 0.75 * baseline["int8_step_time"][model]["speedup"]
        speedup = report["int8_step_time"][model]["speedup"]
        if speedup < floor:                             # noisy runner: retry
            retried = retried or bench_int8_step_time(repeats=40)
            speedup = retried[model]["speedup"]
        assert speedup >= floor, (
            f"compiled INT8 {model} step speedup {speedup:.2f}x fell below "
            f"75% of the committed baseline "
            f"({baseline['int8_step_time'][model]['speedup']:.2f}x; gate "
            f"at {floor:.2f}x) — the INT8 graph executor regressed")


# -- replica-shared plans (one compile + one workspace per run) ---------
_REPLICA_MODELS = ("vit_tiny", "vgg11")


def test_graph_replicas_compiled_not_slower_than_eager(report):
    """A feature slower than the path it replaces is a bug: with the
    paper's fifteen logical groups stepping round-robin, a compiled
    group step must cost no more than an eager one — on the
    interpreter-bound ViT and on BLAS-bound vgg11, where per-group
    workspaces used to make it 1.5x *slower* (cold quantiser scratch).
    The harness asserts bit-identical group states before reporting."""
    retried = None
    for model in _REPLICA_MODELS:
        ratio = report["graph_replicas"][model]["graph_vs_eager"]
        if ratio > 1.0:                                 # noisy runner: retry
            retried = retried or bench_graph_replicas(rounds=8)
            ratio = retried[model]["graph_vs_eager"]
        assert ratio <= 1.0, (
            f"{GRAPH_REPLICAS} compiled {model} groups cost {ratio:.2f}x "
            f"the eager group step (must be <= 1.0x)")


def test_graph_replicas_share_one_plan_and_workspace(report):
    """Plans and workspace are per run, not per group: one plan per
    precision whatever the group count, every group bound once, and
    exactly the bytes a two-group run allocates."""
    for model in _REPLICA_MODELS:
        row = report["graph_replicas"][model]
        assert row["workspace_bytes"] == row["workspace_bytes_2_replicas"] > 0
        for precision in ("fp32", "int8"):
            counters = row["plans"][precision]
            assert counters["plans"] == 1, (model, precision)
            assert counters["binds"] == GRAPH_REPLICAS, (model, precision)
            assert counters["unshared_plans"] == 0, (model, precision)


def test_added_group_owns_weights_and_momentum_only(report):
    """Host memory per logical group bounds how many groups a process
    carries.  A mixed group keeps its FP32 weights and two momentum
    buffers; gradients, all step scratch and the INT8 twin's weights
    (the weight plane) are the run's (its step arena), so an added
    group may cost at most 3.3 parameter-sized arrays (it was 8, then
    4.3) — compiled, that plus its bindings' closures.  The harness
    already re-reads a ``tracemalloc`` window that is off the line, so
    there is no retry here."""
    for model in _REPLICA_MODELS:
        eager = report["replica_memory"][model]["eager"]
        graph = report["replica_memory"][model]["graph"]
        assert eager["param_arrays_per_added_group"] <= 3.3, model
        assert (graph["bytes_per_added_group"]
                <= eager["bytes_per_added_group"] + 256 * 1024), model


def test_run_constant_does_not_depend_on_group_count(report):
    """What is not per group is per run: the arena is byte-for-byte the
    same at 2, 8 and 15 groups, and the live bytes are a line in the
    group count (the middle count sits on it within 1 %)."""
    for model in _REPLICA_MODELS:
        for mode, row in report["replica_memory"][model].items():
            assert len(set(row["arena_bytes"].values())) == 1, (model, mode)
            constants = [row["run_constant_bytes"][str(n)]
                         for n in MEMORY_GROUP_COUNTS]
            assert max(constants) - min(constants) <= 0.01 * max(
                row["live_bytes"].values()), (model, mode)


def test_serving_dispatch_beats_the_searching_loop(report, baseline):
    """CI gate: the serving event core's ``_dispatch`` over the smoke
    day, against its reference twin that searches every batch
    (``tests/serving/dispatch_reference.py``; every window's statistics
    asserted equal inside the harness), on the same arrivals, the days
    run alternately: at most 0.9x the twin's seconds (≈ 0.73x when it
    was written: a lone request on an idle replica skips the search).
    Two Python loops over the same requests, so the ratio holds on any
    host, where dispatch over generation (still reported) moved 2.7–4.2
    with the box; the request count is exact by seed everywhere."""
    day = report["serving_day"]["smoke"]
    assert day["requests"] == baseline["serving_day"]["requests"]
    ratio = day["dispatch_vs_reference"]
    if ratio > 0.9:                                     # noisy runner: retry
        ratio = bench_serving_day("smoke", repeats=15)[
            "dispatch_vs_reference"]
    assert ratio <= 0.9, (
        f"serving dispatch at {ratio:.2f}x its searching reference "
        f"(need <= 0.9x) — the event core regressed")


def test_arrival_generation_peaks_near_its_output(report):
    """Generating the smoke serving day holds two chunk buffers and
    the survivors, not two full-length candidate arrays: its
    ``tracemalloc`` peak is at most 2.5x the arrivals it returns (2.0x
    when it was written, 6.8x with the candidates drawn whole)."""
    day = report["serving_day"]["smoke"]
    assert day["generation_peak_vs_output"] <= 2.5, (
        f"arrival generation peaks at "
        f"{day['generation_peak_vs_output']:.2f}x its output")


def test_update_baseline_rewrites_gated_quantities(report, baseline,
                                                  tmp_path):
    """``--update-baseline`` refreshes exactly the gated numbers and
    keeps the explanatory comment — no more hand-edited baselines."""
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    rewritten = update_baseline(report, path=path)
    on_disk = json.loads(path.read_text())
    assert on_disk == rewritten
    assert on_disk["comment"] == baseline["comment"]
    assert set(on_disk) == {"comment", "aggregation",
                            "bucketed_aggregation", "step_time",
                            "int8_step_time", "serving_day"}
    assert on_disk["serving_day"]["dispatch_vs_generation"] == \
        pytest.approx(report["serving_day"]["smoke"]
                      ["dispatch_vs_generation"], abs=0.001)
    for section in ("step_time", "int8_step_time"):
        for model in _GATED_STEP_MODELS:
            assert on_disk[section][model]["speedup"] == pytest.approx(
                report[section][model]["speedup"], abs=0.005)
