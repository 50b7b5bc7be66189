"""Serving-plane tests: batching queue, SLO tracking, the autoscaler."""

import pytest

from repro.serving import (ArrivalProcess, FlashCrowd, Region,
                           ServiceModel, ServingPlane)
from repro.telemetry import Telemetry


def service(per_request_s=0.1, batch_overhead_s=0.1, max_batch=4):
    return ServiceModel("m", per_request_s=per_request_s,
                        batch_overhead_s=batch_overhead_s,
                        max_batch=max_batch)


def plane_for(times, svc=None, horizon=1.0, **kw):
    arrivals = ArrivalProcess.from_times(times, horizon_hours=horizon)
    kw.setdefault("slo_ms", 1000.0)
    kw.setdefault("check_interval_hours", 0.25)
    return ServingPlane(arrivals, svc or service(), **kw)


def drive(plane, until, socs=8):
    free = [s for s in range(socs) if s not in plane.held_socs]
    plane.bootstrap(free, plane.arrivals.start_hour)
    h = plane.arrivals.start_hour
    while h < until:
        h = min(h + 0.25, until)
        free = [s for s in range(socs) if s not in plane.held_socs]
        plane.advance(h, claimable=free)
    plane.advance(until, claimable=free, flush=True)


class TestBatching:
    def test_simultaneous_requests_share_one_batch(self):
        plane = plane_for([0.1, 0.1, 0.1, 0.1])
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        stats = plane.windows[0]
        assert stats.served == 4
        assert plane.replicas[0].batches == 1
        # every request waited only for the one batch: overhead + 4*per
        assert stats.p99_ms == pytest.approx(500.0, rel=1e-6)

    def test_second_batch_queues_behind_first(self):
        svc = service()                  # batch of 1 takes 0.2 s
        t0 = 0.1
        t1 = 0.1 + 0.05 / 3600.0         # arrives while batch 1 runs
        plane = plane_for([t0, t1], svc)
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        stats = plane.windows[0]
        assert plane.replicas[0].batches == 2
        # second request: waits 0.2 s minus its 0.05 s lateness, then
        # its own 0.2 s batch
        assert stats.p99_ms == pytest.approx(350.0, rel=1e-6)

    def test_batch_respects_max_batch(self):
        plane = plane_for([0.1] * 6)     # 6 simultaneous, max_batch 4
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        assert plane.replicas[0].batches == 2
        assert plane.total_served == 6

    def test_requests_spread_across_replicas(self):
        plane = plane_for([0.1] * 8, autoscale=False)
        plane.provision([0, 1], 0.0)
        plane.advance(1.0, flush=True)
        assert plane.replicas[0].batches == 1
        assert plane.replicas[1].batches == 1

    def test_sheds_after_timeout(self):
        # one replica, 0.2 s/batch-of-1, 40 simultaneous arrivals, shed
        # at 1 s: only ~5 batches (of up to 4) can start inside 1 s + a
        # short tail; the rest drop and are counted
        plane = plane_for([0.1] * 40, shed_after_s=1.0)
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        assert plane.total_dropped > 0
        assert plane.total_served + plane.total_dropped \
            + plane.queue_depth == 40
        assert plane.summary()["queued_at_end"] == plane.queue_depth

    def test_no_replicas_queues_then_flags_violation(self):
        plane = plane_for([0.1, 0.2], autoscale=False, shed_after_s=1e9)
        plane.advance(1.0, flush=True)
        assert plane.total_served == 0
        stats = plane.windows[0]
        assert stats.queue_depth == 2
        assert stats.violation


class TestSLO:
    def test_violation_window_counted(self):
        svc = service(per_request_s=0.3)      # batch of 1 = 0.4 s
        plane = plane_for([0.1], svc, slo_ms=300.0)
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        assert plane.violation_windows == 1
        assert plane.windows[0].violation

    def test_fast_service_no_violation(self):
        plane = plane_for([0.1], slo_ms=300.0)
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        assert plane.violation_windows == 0


class TestAutoscaler:
    def test_scales_up_for_demand(self):
        proc = ArrivalProcess([Region("g", 20.0)], horizon_hours=24.0,
                              seed=0)
        plane = ServingPlane(proc, service(), slo_ms=2000.0,
                             min_replicas=1)
        drive(plane, 24.0, socs=16)
        # peak demand (20 rps vs ~12 rps/replica at 60% util) needs >1
        assert max(w.replicas for w in plane.windows) > 1
        assert plane.scale_ups > 0

    def test_claims_highest_ids_first(self):
        proc = ArrivalProcess([Region("g", 20.0)], horizon_hours=24.0,
                              seed=0)
        plane = ServingPlane(proc, service(), slo_ms=2000.0,
                             min_replicas=1)
        free = list(range(16))
        plane.bootstrap(free, 0.0)
        assert plane.held_socs == {15}
        plane.advance(14.0, claimable=free)      # through the peak
        assert all(s >= 8 for s in plane.held_socs)

    def test_scales_down_when_load_ebbs(self):
        proc = ArrivalProcess([Region("g", 20.0)], horizon_hours=24.0,
                              seed=0)
        plane = ServingPlane(proc, service(), min_replicas=1,
                             scale_down_patience=2)
        drive(plane, 24.0, socs=16)
        assert plane.scale_downs > 0
        # overnight trough is back at the floor
        assert plane.windows[-1].replicas == 1

    def test_publishes_deficit_when_pool_dry(self):
        proc = ArrivalProcess([Region("g", 40.0)], horizon_hours=15.0,
                              seed=0)
        plane = ServingPlane(proc, service(), min_replicas=1)
        free = [0]
        plane.bootstrap(free, 0.0)
        plane.advance(14.0, claimable=free)      # peak, nothing to claim
        assert plane.pending_deficit > 0

    def test_grant_settles_deficit_and_counts_preemptions(self):
        proc = ArrivalProcess([Region("g", 40.0)], horizon_hours=15.0,
                              seed=0)
        plane = ServingPlane(proc, service(), min_replicas=1)
        free = [0]
        plane.bootstrap(free, 0.0)
        plane.advance(14.0, claimable=free)
        deficit = plane.pending_deficit
        plane.grant(list(range(1, 1 + deficit)), 14.0)
        assert plane.pending_deficit == 0
        assert plane.preempted_socs == deficit

    def test_respects_max_replicas(self):
        proc = ArrivalProcess([Region("g", 100.0)], horizon_hours=24.0,
                              seed=0)
        plane = ServingPlane(proc, service(), min_replicas=1,
                             max_replicas=3)
        drive(plane, 24.0, socs=32)
        assert max(w.replicas for w in plane.windows) <= 3

    def test_frozen_pool_without_autoscale(self):
        proc = ArrivalProcess([Region("g", 40.0)], horizon_hours=24.0,
                              seed=0)
        plane = ServingPlane(proc, service(), autoscale=False)
        plane.provision(list(range(4)), 0.0)
        drive(plane, 24.0, socs=16)
        assert plane.scale_ups == 0
        assert plane.scale_downs == 0
        assert plane.held_socs == {0, 1, 2, 3}


class TestDeterminismAndTelemetry:
    def test_bit_identical_reruns(self):
        def run():
            proc = ArrivalProcess(
                [Region("g", 20.0)], horizon_hours=24.0, seed=5,
                flash_crowds=[FlashCrowd(13.0, 1.0, 3.0)])
            plane = ServingPlane(proc, service(), min_replicas=1)
            drive(plane, 24.0, socs=16)
            return plane.summary()
        assert run() == run()

    def test_emits_spans_and_metrics(self):
        telemetry = Telemetry.active()
        telemetry.metrics.histogram_reservoir = 512
        plane = plane_for([0.1, 0.2, 0.3], telemetry=telemetry)
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        serve_spans = [r for r in telemetry.tracer.records
                       if r.kind == "serve"]
        assert len(serve_spans) == len(plane.windows)
        assert sum(s.args["served"] for s in serve_spans) == 3
        hist = telemetry.metrics.histogram("serving.latency_ms")
        assert hist.count == 3
        assert telemetry.metrics.counter("serving.requests").value == 3

    def test_summary_latency_block_from_histogram(self):
        telemetry = Telemetry.active()
        plane = plane_for([0.1] * 4, telemetry=telemetry)
        plane.provision([0], 0.0)
        plane.advance(1.0, flush=True)
        summary = plane.summary()
        assert summary["latency_ms"]["p99"] == pytest.approx(500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            plane_for([], slo_ms=0.0)
        with pytest.raises(ValueError):
            plane_for([], min_replicas=2, max_replicas=1)
        with pytest.raises(ValueError):
            plane_for([], check_interval_hours=0.0)

    def test_provision_rejects_duplicate(self):
        plane = plane_for([])
        plane.provision([0], 0.0)
        with pytest.raises(ValueError):
            plane.provision([0], 0.0)
