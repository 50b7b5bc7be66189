"""Bucket plans: partition invariants + bit-identical per-bucket merge.

The whole fusion subsystem rests on two properties pinned here:

1. *Conservation*: every plan tiles ``[0, param_total)`` exactly, so
   per-bucket byte/tensor shares always sum to the whole-model totals —
   the :class:`BucketPlan` constructor raises on any drift.
2. *Bit-exactness*: :func:`bucketed_average_states` equals the fused
   whole-model ``average_states`` to the last bit for every bucket
   geometry, because both run the same elementwise kernel over the same
   storage.
"""

import numpy as np
import pytest

from repro.comm import (BACKWARD_START_FRACTION, BucketPlan, GradientBucket,
                        average_states, bucketed_average_states)
from repro.nn.models.registry import build_model
from repro.telemetry import MetricsRegistry


def make_layout(width=0.15):
    model = build_model("vgg11", seed=0, num_classes=10, in_channels=3,
                        image_size=16, width=width)
    return model.flatten_parameters().layout


def sweep_plans(layout):
    total_bytes = 4.0 * layout.param_total
    return {
        "one": BucketPlan.from_layout(layout, total_bytes=total_bytes),
        "half": BucketPlan.from_layout(layout,
                                       threshold_bytes=total_bytes / 2,
                                       total_bytes=total_bytes),
        "eighth": BucketPlan.from_layout(layout,
                                         threshold_bytes=total_bytes / 8,
                                         total_bytes=total_bytes),
        "ops1": BucketPlan.from_layout(layout, max_ops=1,
                                       total_bytes=total_bytes),
        "ops3": BucketPlan.from_layout(layout, max_ops=3,
                                       total_bytes=total_bytes),
    }


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
def test_plans_tile_param_region_in_emission_order():
    layout = make_layout()
    for name, plan in sweep_plans(layout).items():
        buckets = plan.buckets
        # emission order: bucket 0 is the END of the flat region
        assert buckets[0].stop == layout.param_total, name
        assert buckets[-1].start == 0, name
        for prev, nxt in zip(buckets, buckets[1:]):
            assert nxt.stop == prev.start, name
        assert sum(b.num_elements for b in buckets) == layout.param_total
        assert sum(b.num_tensors for b in buckets) == layout.num_params


def test_no_knobs_gives_single_bucket_and_max_ops_one_gives_per_tensor():
    layout = make_layout()
    plans = sweep_plans(layout)
    assert plans["one"].num_buckets == 1
    assert plans["ops1"].num_buckets == layout.num_params
    assert all(b.num_tensors == 1 for b in plans["ops1"].buckets)
    # a threshold larger than the model also degrades to one bucket
    huge = BucketPlan.from_layout(layout,
                                  threshold_bytes=1e18,
                                  total_bytes=4.0 * layout.param_total)
    assert huge.num_buckets == 1


def test_threshold_scales_with_simulated_payload():
    """The MB knob means *paper-scale* megabytes: the same layout cut at
    the same threshold yields more buckets when total_bytes grows."""
    layout = make_layout()
    threshold = 4.0 * layout.param_total / 4      # quarter of real size
    small = BucketPlan.from_layout(layout, threshold_bytes=threshold,
                                   total_bytes=4.0 * layout.param_total)
    large = BucketPlan.from_layout(layout, threshold_bytes=threshold,
                                   total_bytes=64.0 * layout.param_total)
    assert large.num_buckets > small.num_buckets


def test_constructor_rejects_gap_overlap_and_tensor_drift():
    layout = make_layout()
    total = layout.param_total
    n = layout.num_params
    mid = layout.offsets[n // 2]
    good = [GradientBucket(0, mid, total, n - n // 2),
            GradientBucket(1, 0, mid, n // 2)]
    BucketPlan(layout, good)  # sanity: the partition itself is legal

    with pytest.raises(AssertionError, match="must tile"):
        BucketPlan(layout, [GradientBucket(0, mid, total - 1, n - n // 2),
                            GradientBucket(1, 0, mid, n // 2)])
    with pytest.raises(AssertionError, match="not fully covered"):
        BucketPlan(layout, [GradientBucket(0, mid, total, n)])
    with pytest.raises(AssertionError, match="tensors"):
        BucketPlan(layout, [GradientBucket(0, mid, total, n - n // 2),
                            GradientBucket(1, 0, mid, n // 2 + 1)])


def test_bucket_validation():
    with pytest.raises(ValueError):
        GradientBucket(0, 5, 5, 1)          # empty
    with pytest.raises(ValueError):
        GradientBucket(0, 7, 5, 1)          # inverted
    with pytest.raises(ValueError):
        GradientBucket(0, 0, 5, 0)          # no tensors
    with pytest.raises(ValueError):
        BucketPlan.from_layout(make_layout(), threshold_bytes=0.0)
    with pytest.raises(ValueError):
        BucketPlan.from_layout(make_layout(), max_ops=0)


# ----------------------------------------------------------------------
# Shares and readiness
# ----------------------------------------------------------------------
def test_sim_shares_conserve_totals_and_pin_whole_region():
    layout = make_layout()
    for name, plan in sweep_plans(layout).items():
        payload = 96.8e6                      # paper-scale FP32 bytes
        shares = plan.sim_bytes(payload)
        assert len(shares) == plan.num_buckets
        assert sum(shares) == pytest.approx(payload, rel=1e-12), name
        tensors = plan.sim_tensors(30)
        assert sum(tensors) == pytest.approx(30.0, rel=1e-12), name
    # 1-bucket plans return the totals VERBATIM (bit-exact passthrough)
    one = sweep_plans(layout)["one"]
    assert one.sim_bytes(96.8e6) == [96.8e6]
    assert one.sim_tensors(30) == [30.0]


def test_ready_fractions_monotone_and_final_bucket_exactly_one():
    layout = make_layout()
    for name, plan in sweep_plans(layout).items():
        ready = plan.ready_fractions()
        assert all(f >= BACKWARD_START_FRACTION for f in ready), name
        # emission order == time order: later buckets never ready earlier
        assert ready == sorted(ready), name
        # the closing bucket is ready exactly at the end of compute —
        # not 0.9999999 — so one-bucket plans overlap nothing
        assert ready[-1] == 1.0, name


def test_segments_cover_layout_including_buffers():
    layout = make_layout()
    plan = sweep_plans(layout)["eighth"]
    segs = plan.segments(include_buffers=True)
    cursor = 0
    for start, stop in segs:
        assert start == cursor
        cursor = stop
    assert cursor == layout.total
    param_only = plan.segments(include_buffers=False)
    assert param_only[-1][1] == layout.param_total


# ----------------------------------------------------------------------
# Per-bucket averaging == whole-model averaging, to the last bit
# ----------------------------------------------------------------------
def replica_states(num=4, seed=0):
    model = build_model("vgg11", seed=seed, num_classes=10, in_channels=3,
                        image_size=16, width=0.15)
    model.flatten_parameters()
    rng = np.random.default_rng(seed + 1)
    states = []
    for _ in range(num):
        state = model.state_dict()
        state.flat += rng.standard_normal(
            state.flat.shape).astype(np.float32) * 0.01
        states.append(state)
    return states


@pytest.mark.parametrize("name", ["one", "half", "eighth", "ops1", "ops3"])
def test_bucketed_average_bit_identical(name):
    states = replica_states()
    plan = sweep_plans(states[0].layout)[name]
    reference = average_states(states)
    bucketed = bucketed_average_states(states, plan)
    assert list(reference) == list(bucketed)
    for key in reference:
        assert np.array_equal(reference[key], bucketed[key]), key
    # the fused flat storages are identical too (incl. buffer region)
    assert np.array_equal(reference.flat, bucketed.flat)


def test_bucketed_average_metrics_match_fused_path():
    states = replica_states()
    plan = sweep_plans(states[0].layout)["eighth"]
    m_ref, m_bkt = MetricsRegistry(), MetricsRegistry()
    average_states(states, metrics=m_ref)
    bucketed_average_states(states, plan, metrics=m_bkt)
    ref = {(r["name"], tuple(sorted(r["labels"].items()))): r.get("value")
           for r in m_ref.collect()}
    bkt = {(r["name"], tuple(sorted(r["labels"].items()))): r.get("value")
           for r in m_bkt.collect()}
    assert ref == bkt


def test_bucketed_average_without_plan_or_with_foreign_layout():
    states = replica_states()
    plan = sweep_plans(states[0].layout)["half"]
    reference = average_states(states)
    # no plan -> one whole-model segment
    no_plan = bucketed_average_states(states, None)
    for key in reference:
        assert np.array_equal(reference[key], no_plan[key]), key
    # foreign layout (different width => different interned FlatLayout)
    other = make_layout(width=0.25)
    assert other is not states[0].layout
    with pytest.raises(ValueError, match="another layout"):
        bucketed_average_states(states, BucketPlan.from_layout(other))
    with pytest.raises(ValueError):
        bucketed_average_states([], plan)
