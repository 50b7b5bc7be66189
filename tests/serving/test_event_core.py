"""Event-core tests: the pool-heap invariant, request conservation and a
scalar reference loop the array-native dispatch must match exactly."""

import heapq

from hypothesis import given, settings, strategies as st

from repro.serving import ArrivalProcess, ServiceModel, ServingPlane
from repro.telemetry import Telemetry

from .conftest import cosched_day


# ----------------------------------------------------------------------
# Pool heap: exactly one exact entry per live replica
# ----------------------------------------------------------------------
def assert_heap_exact(plane):
    assert sorted(soc for _, soc in plane._heap) == sorted(plane.replicas)
    for free, soc in plane._heap:
        assert free == plane.replicas[soc].free_hour
    assert plane._heap[0] == min(plane._heap)


def test_heap_tracks_pool_through_release_and_reclaim():
    """A SoC released and re-claimed within one day — once by the
    autoscaler from the idle pool, once by ``grant`` — has one heap
    entry at every step and serves traffic after its return."""
    generations = {}

    def check(plane):
        assert_heap_exact(plane)
        for soc, replica in plane.replicas.items():
            generations.setdefault(soc, [])
            if replica not in generations[soc]:
                generations[soc].append(replica)

    plane, log = cosched_day(check=check)
    assert log["reclaimed_by_autoscale"] and log["reclaimed_by_grant"]
    for soc in log["reclaimed_by_autoscale"] | log["reclaimed_by_grant"]:
        first, second = generations[soc][:2]
        assert first.requests_served > 0 and second.requests_served > 0
    assert plane.total_served == sum(
        replica.requests_served
        for replicas in generations.values() for replica in replicas)


# ----------------------------------------------------------------------
# Scalar reference: one Python iteration per request, as before the
# event core (frozen warm pool, so only batching and shedding differ)
# ----------------------------------------------------------------------
def reference_windows(times, service, pool, shed_after_s, window_ends):
    queue = sorted(times)
    heap = [(0.0, soc) for soc in sorted(pool)]
    shed_h = shed_after_s / 3600.0
    head = admitted = 0
    rows, all_latencies = [], []
    served_by = {soc: 0 for soc in pool}
    for t1 in window_ends:
        while admitted < len(queue) and queue[admitted] < t1:
            admitted += 1
        latencies, dropped = [], 0
        while head < admitted:
            if not heap:
                while head < admitted and t1 - queue[head] > shed_h:
                    head += 1
                    dropped += 1
                break
            free, soc = heap[0]
            start = max(free, queue[head])
            if start >= t1 - 1e-12:
                break
            while head < admitted and start - queue[head] > shed_h:
                head += 1
                dropped += 1
            if head >= admitted:
                break
            start = max(free, queue[head])
            if start >= t1 - 1e-12:
                break
            n = 0
            while n < service.max_batch and head + n < admitted \
                    and queue[head + n] <= start + 1e-12:
                n += 1
            done = start + service.batch_seconds(n) / 3600.0
            heapq.heapreplace(heap, (done, soc))
            latencies.extend((done - a) * 3_600_000.0
                             for a in queue[head:head + n])
            served_by[soc] += n
            head += n
        all_latencies.extend(latencies)
        ordered = sorted(latencies)

        def rank(p):
            return ordered[max(0, min(len(ordered) - 1, int(round(
                p / 100.0 * (len(ordered) - 1)))))] if ordered else None
        rows.append((len(latencies), dropped, admitted - head,
                     rank(50), rank(99)))
    return rows, all_latencies, served_by


@settings(max_examples=120, deadline=None)
@given(
    offsets_s=st.lists(
        st.one_of(st.floats(0.0, 80.0), st.sampled_from([5.0, 18.0, 36.0])),
        max_size=90),
    pool=st.integers(0, 4),
    max_batch=st.integers(1, 5),
    shed_after_s=st.sampled_from([0.05, 1.0, 1e9]),
    per_request_s=st.sampled_from([0.05, 0.4, 2.0]),
)
def test_dispatch_conserves_requests_and_matches_scalar_loop(
        offsets_s, pool, max_batch, shed_after_s, per_request_s):
    service = ServiceModel("m", per_request_s=per_request_s,
                           batch_overhead_s=0.1, max_batch=max_batch)
    times = [s / 3600.0 for s in offsets_s]
    telemetry = Telemetry.active()
    plane = ServingPlane(
        ArrivalProcess.from_times(times, horizon_hours=0.025), service,
        slo_ms=500.0, check_interval_hours=0.005,
        shed_after_s=shed_after_s, autoscale=False, telemetry=telemetry)
    plane.provision(list(range(pool)), 0.0)
    plane.advance(0.025, flush=True)

    assert plane.total_requests == plane.total_served \
        + plane.total_dropped + plane.queue_depth
    assert plane.total_served == sum(
        replica.requests_served for replica in plane.replicas.values())
    observed = telemetry.metrics.histogram("serving.latency_ms").observations
    floor_ms = service.batch_seconds(1) * 1000.0
    assert all(ms >= floor_ms * (1 - 1e-9) for ms in observed)
    for stats in plane.windows:
        assert stats.p50_ms is None or stats.p50_ms <= stats.p99_ms

    rows, latencies, served_by = reference_windows(
        plane.arrivals.arrivals_h.tolist(), service, range(pool),
        shed_after_s, [w.end_hour for w in plane.windows])
    assert [(w.served, w.dropped, w.queue_depth, w.p50_ms, w.p99_ms)
            for w in plane.windows] == rows
    assert observed == latencies
    assert {soc: r.requests_served
            for soc, r in plane.replicas.items()} == served_by

