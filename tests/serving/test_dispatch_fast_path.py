"""``ServingPlane._dispatch`` serves a lone request on an idle replica
without the batch search; it must match the loop that always searches
(``dispatch_reference``) exactly, window after window."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import ArrivalProcess, ServiceModel, ServingPlane
from repro.serving.plane import SPINUP_S

from .dispatch_reference import reference_dispatch

WINDOW_H = 0.005
WINDOWS = 4


def build(times, service, warm, cold, shed_after_s):
    # one window past the last dispatched: an arrival on the last edge
    # is inside the horizon (``from_times`` refuses any outside it)
    plane = ServingPlane(
        ArrivalProcess.from_times(times,
                                  horizon_hours=WINDOW_H * (WINDOWS + 1)),
        service, slo_ms=500.0, check_interval_hours=WINDOW_H,
        shed_after_s=shed_after_s, autoscale=False)
    plane.provision(list(range(warm)), 0.0)
    plane.provision(list(range(warm, warm + cold)), 0.0, warm=False)
    return plane


def state(plane):
    return (plane._head, list(plane._heap),
            {soc: (r.free_hour, r.batches, r.requests_served)
             for soc, r in plane.replicas.items()})


@settings(max_examples=200, deadline=None)
@given(
    base=st.lists(st.floats(0.0, WINDOW_H * WINDOWS), max_size=60),
    ties=st.lists(st.tuples(st.integers(0, 59),
                            st.sampled_from([0.0, 3e-13, 1e-12, 1.5e-12])),
                  max_size=20),
    edges=st.lists(st.tuples(st.integers(1, WINDOWS),
                             st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0])),
                   max_size=6),
    warm=st.integers(0, 3),
    cold=st.integers(0, 2),
    max_batch=st.integers(1, 5),
    shed_after_s=st.sampled_from([0.0, 0.05, 1.0, 1e9]),
    per_request_s=st.sampled_from([0.05, 0.4, 2.0]),
)
def test_dispatch_matches_the_searching_loop(
        base, ties, edges, warm, cold, max_batch, shed_after_s,
        per_request_s):
    # ties within 1e-12 of an arrival, and arrivals on or just inside a
    # window's edge
    times = list(base)
    times += [base[at % len(base)] + dt for at, dt in ties if base]
    times += [k * WINDOW_H + dt for k, dt in edges]
    service = ServiceModel("m", per_request_s=per_request_s,
                           batch_overhead_s=0.1, max_batch=max_batch)
    fast = build(times, service, warm, cold, shed_after_s)
    slow = build(times, service, warm, cold, shed_after_s)
    assert state(fast) == state(slow)
    arrivals_h = fast.arrivals.arrivals_h
    for k in range(1, WINDOWS + 1):
        t1 = k * WINDOW_H
        for plane in (fast, slow):
            plane._admitted = int(np.searchsorted(arrivals_h, t1, "left"))
        latencies, shed = fast._dispatch(t1)
        expected, expected_shed = reference_dispatch(slow, t1)
        assert latencies.tobytes() == expected.tobytes()
        assert shed == expected_shed
        assert state(fast) == state(slow)


def test_a_spinning_up_replica_is_not_idle():
    """A request arriving during spin-up waits for the replica: the
    fast path applies only to a replica already free."""
    service = ServiceModel("m", per_request_s=0.1, batch_overhead_s=0.1,
                           max_batch=4)
    plane = build([0.001], service, 0, 1, 1e9)
    plane._admitted = 1
    latencies, shed = plane._dispatch(2 * WINDOW_H)
    ready_h = SPINUP_S / 3600.0
    assert shed == 0
    assert latencies.tolist() == [
        (ready_h + service.batch_seconds(1) / 3600.0 - 0.001) * 3_600_000.0]


def test_a_negative_shedding_timeout_is_refused():
    """A lone request starts on arrival, never after the timeout: that
    holds only for a timeout of zero or more."""
    service = ServiceModel("m", per_request_s=0.1, batch_overhead_s=0.1,
                           max_batch=4)
    with pytest.raises(ValueError, match="shed_after_s"):
        build([0.001], service, 1, 0, -1.0)
