"""State-dict averaging arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import average_states, weighted_average_states

from ..flat_reference import flat_state


def state(*values):
    return flat_state(w=np.array(values, dtype=np.float32))


class TestAverage:
    def test_uniform_average(self):
        out = average_states([state(1.0), state(3.0)])
        np.testing.assert_allclose(out["w"], [2.0])

    def test_single_state_identity(self):
        out = average_states([state(5.0)])
        np.testing.assert_allclose(out["w"], [5.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_states([])

    def test_weighted(self):
        out = weighted_average_states([state(0.0), state(10.0)], [3.0, 1.0])
        np.testing.assert_allclose(out["w"], [2.5])

    def test_weights_normalised(self):
        a = weighted_average_states([state(1.0), state(3.0)], [1, 1])
        b = weighted_average_states([state(1.0), state(3.0)], [100, 100])
        np.testing.assert_allclose(a["w"], b["w"])

    def test_merge_metrics_accounted(self):
        from repro.telemetry import MetricsRegistry
        reg = MetricsRegistry()
        out = average_states([state(1.0), state(3.0)], metrics=reg)
        assert reg.counter("comm.merges").value == 1
        nbytes = sum(np.asarray(v).nbytes for v in out.values())
        assert reg.counter("comm.merged_bytes").value == nbytes * 2

    def test_null_metrics_no_op(self):
        from repro.telemetry import NullMetricsRegistry
        out = average_states([state(1.0), state(3.0)],
                             metrics=NullMetricsRegistry())
        np.testing.assert_allclose(out["w"], [2.0])

    def test_mismatched_keys_raise(self):
        bad = flat_state(v=np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError, match="state 1 has another layout"):
            average_states([state(1.0), bad])

    def test_plain_dict_raises(self):
        plain = {"w": np.zeros(1, dtype=np.float32)}
        with pytest.raises(TypeError, match="state 1 is a dict"):
            average_states([state(1.0), plain])

    def test_weight_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_average_states([state(1.0)], [1.0, 2.0])

    def test_nonpositive_weight_sum_raises(self):
        with pytest.raises(ValueError):
            weighted_average_states([state(1.0), state(2.0)], [1.0, -1.0])

    def test_preserves_dtype(self):
        out = average_states([state(1.0), state(2.0)])
        assert out["w"].dtype == np.float32

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_average_bounded_by_extremes(self, values):
        states = [state(v) for v in values]
        out = average_states(states)
        assert min(values) - 1e-3 <= out["w"][0] <= max(values) + 1e-3
