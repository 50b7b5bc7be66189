"""Co-scheduler tests: SoC bidding, preemption under SLO pressure,
saturation queueing, determinism, telemetry integration."""

import numpy as np
import pytest

from repro.cluster import FaultSchedule, SoCCrash
from repro.jobs import TrainingJob
from repro.serving import (ArrivalProcess, ServiceModel, ServingCoScheduler,
                           ServingPlane)
from repro.telemetry import Telemetry
from repro.telemetry.analysis import analyze_records

from .conftest import uniform_times


def make_job(job_id="job", **overrides) -> TrainingJob:
    spec = dict(id=job_id, workload="tiny", priority=1, min_socs=2,
                max_socs=8, epochs=2, target_group_size=2)
    spec.update(overrides)
    return TrainingJob(**spec)


def slow_service():
    """~0.47 rps/replica at full batch: a few rps saturate 8 SoCs."""
    return ServiceModel("m", per_request_s=2.0, batch_overhead_s=0.5,
                        max_batch=4)


def make_coscheduler(topology, factory, times, *, horizon=6.0,
                     slo_ms=60_000.0, telemetry=None, **plane_kw):
    arrivals = ArrivalProcess.from_times(times, horizon_hours=horizon)
    plane_kw.setdefault("min_replicas", 1)
    plane_kw.setdefault("scale_down_patience", 2)
    plane = ServingPlane(arrivals, slow_service(), slo_ms=slo_ms,
                         telemetry=telemetry, **plane_kw)
    return ServingCoScheduler(
        topology, plane, quantum_hours=0.25, horizon_hours=horizon,
        config_factory=factory, telemetry=telemetry)


class TestBidding:
    def test_serving_floor_held_and_training_gets_rest(
            self, serving_topology, config_factory):
        # trickle load: serving stays at the 1-replica floor
        sched = make_coscheduler(serving_topology, config_factory,
                                 uniform_times(0.0, 6.0, 0.05))
        record = sched.submit(make_job(max_socs=8, epochs=2))
        report = sched.run()
        assert record.status == "completed"
        assert report.extra["serving"]["requests"] == len(
            uniform_times(0.0, 6.0, 0.05))
        # the plane held its floor the whole run
        assert min(w.replicas for w in sched.plane.windows) >= 1

    def test_flash_pressure_preempts_training(self, serving_topology,
                                              config_factory):
        # calm -> burst at hour 1 that demands more SoCs than are idle
        times = np.concatenate([uniform_times(0.0, 6.0, 0.05),
                                uniform_times(1.0, 2.0, 2.5)])
        sched = make_coscheduler(serving_topology, config_factory,
                                 np.sort(times))
        record = sched.submit(make_job(min_socs=2, max_socs=8, epochs=8))
        report = sched.run()
        plane = sched.plane
        assert plane.preempted_socs > 0          # deficit path exercised
        assert record.resizes > 0 or record.preemptions > 0
        assert plane.scale_downs > 0             # released after the burst
        assert report.extra["serving"]["preempted_socs"] \
            == plane.preempted_socs
        # training survived the churn via warm checkpoints
        assert record.epochs_done == 8

    def test_job_queued_through_saturation_then_places(
            self, serving_topology, config_factory):
        """A full-saturation serving phase keeps the job queued (never
        an empty logical group); it places once SoCs free up."""
        times = uniform_times(0.0, 2.0, 4.0)     # needs > 8 replicas
        sched = make_coscheduler(serving_topology, config_factory, times,
                                 shed_after_s=30.0)
        record = sched.submit(make_job(min_socs=2, epochs=2))
        report = sched.run()
        # every SoC served during the burst
        assert sched.plane.summary()["max_replicas_seen"] == 8
        assert record.status == "completed"
        assert record.start_hour is not None
        assert record.start_hour >= 2.0          # placed only after the ebb
        assert record.queue_wait_hours >= 2.0
        assert report.rounds > 0


class TestModesAndValidation:
    def test_static_window_baseline(self, serving_topology,
                                    config_factory):
        arrivals = ArrivalProcess.from_times(
            uniform_times(0.0, 6.0, 0.1), horizon_hours=6.0)
        plane = ServingPlane(arrivals, slow_service(), slo_ms=60_000.0,
                             autoscale=False)
        plane.provision([6, 7], 0.0)
        sched = ServingCoScheduler(
            serving_topology, plane, quantum_hours=0.25,
            horizon_hours=6.0, elastic=False, window=(3.0, 3.0),
            config_factory=config_factory)
        record = sched.submit(make_job(epochs=2))
        report = sched.run()
        assert record.start_hour is not None
        assert record.start_hour >= 3.0          # only inside the window
        assert plane.held_socs == {6, 7}         # frozen pool
        assert report.extra["serving"]["scale_ups"] == 0

    def test_arrivals_must_cover_horizon(self, serving_topology,
                                         config_factory):
        arrivals = ArrivalProcess.from_times([0.5], horizon_hours=2.0)
        plane = ServingPlane(arrivals, slow_service())
        with pytest.raises(ValueError):
            ServingCoScheduler(serving_topology, plane,
                               horizon_hours=6.0,
                               config_factory=config_factory)


class TestCrashes:
    def test_crashed_soc_stops_serving(self, serving_topology,
                                       config_factory):
        """From the round its crash begins a SoC holds no replica: the
        bootstrap replica on SoC 7 serves the first window only, and the
        end-of-run flush does not hand the dead SoC back."""
        rounds = []

        class Probe(ServingCoScheduler):
            def _begin_round(self, hour, round_index):
                super()._begin_round(hour, round_index)
                rounds.append(dict(self.plane.replicas))

        times = uniform_times(0.0, 6.0, 0.05)
        arrivals = ArrivalProcess.from_times(times, horizon_hours=6.0)
        plane = ServingPlane(arrivals, slow_service(), slo_ms=60_000.0,
                             min_replicas=1, scale_down_patience=2)
        sched = Probe(serving_topology, plane, quantum_hours=0.25,
                      horizon_hours=6.0, config_factory=config_factory,
                      fault_schedule=FaultSchedule((SoCCrash(1, 7),)))
        report = sched.run()
        first = rounds[0][7]                 # bootstrap claims high ids
        assert all(7 not in replicas for replicas in rounds[1:])
        assert 7 not in plane.replicas
        # 45 requests arrive in the first 0.25 h window
        assert 0 < first.requests_served <= 45
        serving = report.extra["serving"]
        assert serving["requests"] == len(times) == serving["served"] \
            + serving["dropped"] + serving["queued_at_end"]


    def test_crash_after_the_last_job_evicts_its_replica(
            self, serving_topology, config_factory):
        """A crash whose round falls after the last job finished is
        still read: the bootstrap replica on SoC 7 is evicted and the
        end-of-run flush does not hand the dead SoC back."""
        arrivals = ArrivalProcess.from_times(uniform_times(0.0, 6.0, 0.05),
                                             horizon_hours=6.0)
        plane = ServingPlane(arrivals, slow_service(), slo_ms=60_000.0,
                             min_replicas=1, scale_down_patience=2)
        sched = ServingCoScheduler(
            serving_topology, plane, quantum_hours=0.25, horizon_hours=6.0,
            config_factory=config_factory,
            fault_schedule=FaultSchedule((SoCCrash(12, 7),)))
        record = sched.submit(make_job(epochs=1))
        report = sched.run()
        assert record.status == "completed" and report.rounds < 12
        assert 7 not in plane.held_socs


class TestDeterminism:
    def test_bit_identical_reruns(self, serving_topology, config_factory):
        def run():
            times = np.sort(np.concatenate([
                uniform_times(0.0, 6.0, 0.05),
                uniform_times(1.0, 2.0, 2.0)]))
            sched = make_coscheduler(serving_topology, config_factory,
                                     times)
            sched.submit(make_job(epochs=4))
            return sched.run().to_dict()
        assert run() == run()


class TestTelemetry:
    def test_traced_corun_reaches_analysis(self, serving_topology,
                                           config_factory):
        telemetry = Telemetry.active()
        telemetry.metrics.histogram_reservoir = 1024
        times = np.sort(np.concatenate([
            uniform_times(0.0, 6.0, 0.05),
            uniform_times(1.0, 1.5, 2.5)]))
        sched = make_coscheduler(serving_topology, config_factory, times,
                                 slo_ms=15_000.0, telemetry=telemetry)
        sched.submit(make_job(epochs=4))
        sched.run()
        records = telemetry.tracer.records
        assert any(r.kind == "serve" for r in records)
        assert any(r.kind == "scale" for r in records)
        report = analyze_records(records)
        assert report.serving is not None
        assert report.serving["windows"] == len(sched.plane.windows)
        assert report.serving["served"] == sched.plane.total_served
        hist = telemetry.metrics.histogram("serving.latency_ms")
        assert hist.count == sched.plane.total_served
        # violation windows surface as slo_violation anomalies
        violations = [a for a in report.anomalies
                      if a.kind == "slo_violation"]
        assert len(violations) == sched.plane.violation_windows


class TestInferenceWorkspaces:
    def test_a_serving_day_evicts_no_workspace(
            self, serving_topology, config_factory, monkeypatch):
        """Evaluation and the mixed tenant's alpha profiling convolve a
        chunk at a time in scratch; over a co-scheduled day through a
        burst that working set still fits the workspace cache."""
        from repro.nn import functional as F
        chunked = []
        conv = F._conv_chunked

        def counting(x, *args):
            chunked.append(len(x))
            return conv(x, *args)

        monkeypatch.setattr(F, "_conv_chunked", counting)
        mark = F.workspace_mark()
        times = np.sort(np.concatenate([uniform_times(0.0, 6.0, 0.05),
                                        uniform_times(1.0, 2.0, 2.5)]))
        sched = make_coscheduler(serving_topology, config_factory, times)
        record = sched.submit(make_job(epochs=4, mixed=True))
        sched.run()
        assert record.status == "completed"
        assert max(chunked) > F._CHUNK          # batches above the chunk
        assert F.workspace_evictions(mark) == 0
