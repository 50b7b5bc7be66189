"""Perf smoke test: produce ``BENCH_perf.json`` and gate regressions.

Runs the host wall-clock harness (``perf_harness.py``) in smoke mode,
writes the report to ``$BENCH_PERF_OUT`` (default ``BENCH_perf.json``
in the current directory — CI uploads it as a workflow artifact), and
fails when a gated microbenchmark regresses more than 25% relative to
the committed ``baseline.json``: the fused-vs-per-key aggregation
speedup, the per-tensor bucketed-averaging overhead, the compiled
(graph-executor) FP32 and INT8 training-step speedups on lenet5 and
vit_tiny, the serving event core's host time per request relative to
generating the request stream, and the K-major conv/pool kernels
against their N-major reference (>= 1.15x, absolute).  The step-time,
serving and conv-layout gates read the median ratio of two things
timed alternately in one process, so they hold on a loaded runner.
Two gates are absolute rather than relative: fifteen logical groups
stepping round-robin must not be slower compiled than eager
(``graph_replicas``), on the ViT *and* on BLAS-bound vgg11; and an
added logical group may cost at most 4.3 parameter-sized arrays of
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
    for path in ("fused", "per_key", "per_key_fallback"):
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
    carries.  A mixed group keeps two weight and two momentum buffers;
    gradients and all step scratch are the run's (its step arena), so
    an added group may cost at most 4.3 parameter-sized arrays (it was
    8) — compiled, that plus its bindings' closures.  The harness
    already re-reads a ``tracemalloc`` window that is off the line, so
    there is no retry here."""
    for model in _REPLICA_MODELS:
        eager = report["replica_memory"][model]["eager"]
        graph = report["replica_memory"][model]["graph"]
        assert eager["param_arrays_per_added_group"] <= 4.3, model
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


def test_serving_dispatch_not_regressed_vs_baseline(report, baseline):
    """CI gate: fail when the serving event core spends >25% more host
    time per request *relative to generating those requests* than the
    committed baseline.  The two are timed alternately, so the quotient
    holds on a loaded runner where the absolute microseconds per
    request (still reported) read anywhere from 0.56 to 0.89 on an
    unchanged tree; the request count is exact by seed everywhere."""
    day = report["serving_day"]["smoke"]
    assert day["requests"] == baseline["serving_day"]["requests"]
    ceiling = 1.25 * baseline["serving_day"]["dispatch_vs_generation"]
    cost = day["dispatch_vs_generation"]
    if cost > ceiling:                                  # noisy runner: retry
        cost = bench_serving_day("smoke", repeats=9)["dispatch_vs_generation"]
    assert cost <= ceiling, (
        f"serving dispatch costs {cost:.2f}x generating its requests, "
        f"above 125% of the committed baseline "
        f"({baseline['serving_day']['dispatch_vs_generation']:.2f}x; gate "
        f"at {ceiling:.2f}x) — the event core regressed")


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
