"""Comm/compute overlap: timeline semantics + cost-model guarantees.

Pins the three contracts the bucketed-fusion subsystem makes:

1. :func:`overlap_timeline` is the greedy single-NIC schedule (each
   collective starts at ``max(ready, previous end)``) and its visible
   time never exceeds the sequential sum of durations.
2. The cost model charges one sync plan whole, so bucketed sync is
   *never slower* than the sequential whole-model sync; a plan that
   does not beat it (every one-bucket plan) is not charged at all.
3. The NIC byte accounting conserves payload: the per-bucket split must
   reproduce the whole-model load exactly, and the fabric raises on any
   drift.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology, NetworkFabric
from repro.cluster.network import (STARTUP_BASE_S, STARTUP_PER_TENSOR_S,
                                   overlap_timeline)
from repro.cluster.spec import model_profile
from repro.distributed import RunConfig
from repro.distributed.base import CostModel, make_model
from repro.distributed.pricing import OVERLAP_FRACTION, price_epoch

MB = 1e6


def fabric(num_socs=32, **kwargs):
    return NetworkFabric(ClusterTopology(num_socs=num_socs), **kwargs)


# ----------------------------------------------------------------------
# overlap_timeline
# ----------------------------------------------------------------------
class TestOverlapTimeline:
    def test_greedy_serialisation(self):
        schedule, visible = overlap_timeline(
            5.0, [1.0, 2.0, 5.0], [2.0, 2.0, 1.0])
        assert schedule == [(1.0, 3.0), (3.0, 5.0), (5.0, 6.0)]
        assert visible == 1.0

    def test_full_hiding_is_zero_visible(self):
        _, visible = overlap_timeline(10.0, [1.0, 2.0], [1.0, 1.0])
        assert visible == 0.0

    def test_everything_ready_at_end_is_sequential(self):
        durations = [0.7, 0.3, 1.1]
        _, visible = overlap_timeline(4.0, [4.0] * 3, durations)
        assert visible == pytest.approx(sum(durations), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_timeline(1.0, [0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            overlap_timeline(1.0, [-0.1], [1.0])
        with pytest.raises(ValueError):
            overlap_timeline(1.0, [0.0], [-1.0])

    @settings(max_examples=200, deadline=None)
    @given(compute=st.floats(0.1, 100.0),
           buckets=st.lists(st.tuples(st.floats(0.0, 1.0),
                                      st.floats(0.0, 10.0)),
                            min_size=1, max_size=12))
    def test_visible_never_exceeds_sequential(self, compute, buckets):
        """Overlap can only help: ready times inside the window mean the
        visible tail is at most the sum of durations (the sequential
        cost), and the schedule never overlaps itself on the NIC."""
        ready = [f * compute for f, _ in buckets]
        ready.sort()
        durations = [d for _, d in buckets]
        schedule, visible = overlap_timeline(compute, ready, durations)
        assert 0.0 <= visible <= sum(durations) + 1e-9
        for (_, end), (start, _) in zip(schedule, schedule[1:]):
            assert start >= end           # NIC runs one bucket at a time
        for (start, _), r in zip(schedule, ready):
            assert start >= r             # never before gradients exist


# ----------------------------------------------------------------------
# Fabric edge cases
# ----------------------------------------------------------------------
class TestRingEdgeCases:
    def test_single_soc_group_pays_one_startup_only(self):
        fab = fabric()
        payload = model_profile("vgg11").payload_bytes()
        assert fab.ring_allreduce_time([3], payload) == fab.startup_per_soc_s

    def test_zero_bytes_pays_startup_only(self):
        fab = fabric()
        socs = list(range(5))
        assert fab.ring_allreduce_time(socs, 0.0) == \
            fab.startup_per_soc_s * len(socs)

    def test_bucket_tensor_count_prices_startup_linearly(self):
        fab = fabric(num_tensors=30)
        socs = list(range(4))
        whole = fab.ring_allreduce_time(socs, 0.0, num_tensors=30.0)
        half = fab.ring_allreduce_time(socs, 0.0, num_tensors=15.0)
        # the baked-in per-SoC rate is matched exactly at the full count
        assert whole == fab.startup_per_soc_s * len(socs)
        assert half == (STARTUP_BASE_S + STARTUP_PER_TENSOR_S * 15.0) * 4
        assert half < whole


class TestNicConservation:
    def test_bucketed_split_reproduces_whole_model(self):
        fab = fabric()
        rings = [[0, 1, 8, 9], [2, 3, 10, 11]]
        payload = 96.8 * MB
        split = [payload * s for s in (0.5, 0.3, 0.2)]
        whole = fab.pcb_ring_bytes(rings, payload)
        bucketed = fab.bucketed_pcb_ring_bytes(rings, split,
                                               total_bytes=payload)
        assert set(bucketed) == set(whole)
        for pcb in whole:
            assert bucketed[pcb] == pytest.approx(whole[pcb], rel=1e-12)

    def test_payload_drift_raises(self):
        fab = fabric()
        rings = [[0, 1, 8, 9]]
        with pytest.raises(AssertionError, match="lost or duplicated"):
            fab.bucketed_pcb_ring_bytes(rings, [60 * MB, 60 * MB],
                                        total_bytes=100 * MB)

    def test_per_pcb_drift_raises(self, monkeypatch):
        """A (simulated) accounting bug that inflates one bucket's load
        trips the second conservation assertion even when the payload
        split itself sums correctly."""
        fab = fabric()
        rings = [[0, 1, 8, 9]]
        real = NetworkFabric.pcb_ring_bytes
        calls = {"n": 0}

        def buggy(self, rings_, nbytes):
            out = real(self, rings_, nbytes)
            calls["n"] += 1
            if calls["n"] == 1:          # double-count the first bucket
                out = {pcb: load * 2 for pcb, load in out.items()}
            return out

        monkeypatch.setattr(NetworkFabric, "pcb_ring_bytes", buggy)
        with pytest.raises(AssertionError, match="drifted"):
            fab.bucketed_pcb_ring_bytes(rings, [50 * MB, 50 * MB],
                                        total_bytes=100 * MB)


# ----------------------------------------------------------------------
# CostModel: bucketed sync never loses to sequential
# ----------------------------------------------------------------------
def layout_for(config):
    return make_model(config).flatten_parameters().layout


@pytest.fixture()
def fused_config(quick_config):
    return dataclasses.replace(quick_config, fusion_threshold_mb=4.0)


def test_bucket_plan_cache_and_gating(quick_config, fused_config):
    assert CostModel(quick_config).bucket_plan(
        layout_for(quick_config)) is None            # fusion off
    cost = CostModel(fused_config)
    assert cost.bucket_plan(None) is None
    layout = layout_for(fused_config)
    plan = cost.bucket_plan(layout)
    assert plan is not None and plan.num_buckets > 1
    assert cost.bucket_plan(layout) is plan          # cached by identity


@pytest.mark.parametrize("knobs", [dict(fusion_threshold_mb=25.0),
                                   dict(fusion_threshold_mb=4.0),
                                   dict(fusion_max_ops=1),
                                   dict(fusion_max_ops=4)])
def test_bucketed_sync_never_exceeds_sequential(quick_config, knobs):
    config = dataclasses.replace(quick_config, **knobs)
    cost = CostModel(config)
    layout = layout_for(config)
    plan = cost.bucket_plan(layout)
    compute_s = 40.0

    def ring(nbytes, num_tensors):
        return cost.fabric.ring_allreduce_time(list(range(8)), nbytes,
                                               num_tensors=num_tensors)
    whole = ring(cost.grad_bytes, None)
    baseline_hidden = min(whole, OVERLAP_FRACTION * compute_s)
    charge = price_epoch(cost, layout=layout, compute_s=compute_s,
                         num_socs=8, collective=ring)
    sequential_visible = whole - baseline_hidden
    assert charge.sync_s <= sequential_visible
    assert charge.sync_s >= 0.0 and charge.hidden_s >= 0.0
    # one plan, charged whole: the bucket timeline or whole-model sync
    assert charge.clamped == (not charge.bucket_schedule)
    if charge.clamped:
        assert charge.sync_s == sequential_visible
        assert charge.hidden_s == baseline_hidden
    else:
        assert len(charge.bucket_schedule) == plan.num_buckets
        assert charge.sync_s < sequential_visible
    if plan.num_buckets == 1:
        # its one bucket is ready only as compute ends: it never wins
        assert charge.clamped


def test_zero_contention_equality(quick_config):
    """With no compute window to hide under (compute_s == 0) every
    bucket is ready immediately but nothing can be hidden: the bucketed
    visible time ties the serialized whole-model sync, and a tie is
    charged as whole-model sync."""
    config = dataclasses.replace(quick_config, fusion_max_ops=1)
    cost = CostModel(config)
    layout = layout_for(config)
    whole = float(cost.bucket_plan(layout).num_buckets)
    charge = price_epoch(
        cost, layout=layout, compute_s=0.0, num_socs=8,
        collective=lambda nbytes, num_tensors:
            whole if num_tensors is None else 1.0)   # 1 s per bucket
    assert charge.sync_s == whole
    assert charge.hidden_s == 0.0
    assert charge.clamped and charge.bucket_schedule == ()
