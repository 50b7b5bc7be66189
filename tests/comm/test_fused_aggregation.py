"""The fused whole-model average must match the per-key average bit
for bit.

Aggregation runs on :class:`~repro.nn.flat.FlatState` snapshots only;
its per-key twin (``tests/flat_reference.py``) walks the same
elementwise kernel key by key, so the two agree to the last bit — every
element's value is independent of how the storage is segmented.
"""

import numpy as np
import pytest

from repro.comm import (average_states, bucketed_average_states,
                        weighted_average_states)
from repro.nn.models.registry import build_model

from ..flat_reference import per_key_average

MODELS = {
    "lenet5": dict(num_classes=10, in_channels=1, image_size=28),
    "vgg11": dict(num_classes=10, in_channels=3, image_size=32, width=0.25),
    "resnet18": dict(num_classes=10, in_channels=3, image_size=32,
                     width=0.25),
}


def replica_states(name, num=4, seed=0):
    """``num`` perturbed flat snapshots of one model."""
    model = build_model(name, seed=seed, **MODELS[name])
    rng = np.random.default_rng(seed + 1)
    states = []
    for _ in range(num):
        state = model.state_dict()
        state.flat += rng.standard_normal(
            state.flat.shape).astype(np.float32) * 0.01
        states.append(state)
    return states


def assert_bitwise_equal(a, b):
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(a[key], b[key], equal_nan=True), key


@pytest.mark.parametrize("name", sorted(MODELS))
def test_uniform_average_fused_equals_perkey(name):
    states = replica_states(name)
    assert_bitwise_equal(average_states(states), per_key_average(states))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_weighted_average_fused_equals_perkey(name):
    states = replica_states(name)
    weights = [0.3, 1.7, 0.5, 2.0]
    assert_bitwise_equal(weighted_average_states(states, weights),
                         per_key_average(states, weights))


def test_without_a_plan_bucketed_average_is_one_segment():
    states = replica_states("lenet5")
    assert_bitwise_equal(bucketed_average_states(states, None),
                         average_states(states))


def test_single_state_average_is_exact_identity():
    states = replica_states("lenet5", num=1)
    assert_bitwise_equal(average_states(states), states[0])


def test_fused_average_crosses_block_boundaries_consistently():
    # model larger than one kernel block: block boundaries must not
    # change any bit vs the (differently-blocked) per-key walk
    states = replica_states("vgg11", num=8)
    assert states[0].flat.size > (1 << 16)
    assert_bitwise_equal(average_states(states), per_key_average(states))


def test_merge_counters_identical_between_paths():
    from repro.telemetry import MetricsRegistry
    states = replica_states("lenet5")
    reg_whole, reg_bucketed = MetricsRegistry(), MetricsRegistry()
    average_states(states, metrics=reg_whole)
    bucketed_average_states(states, None, metrics=reg_bucketed)
    assert reg_whole.to_jsonl() == reg_bucketed.to_jsonl()
