"""Elastic scheduling invariants: determinism, floors, warm resume."""

import pytest

from repro.cluster import ClusterTopology, FaultSchedule, Session, SoCCrash
from repro.jobs import ElasticScheduler, JobAdmissionError
from repro.telemetry import Telemetry, write_trace

from .conftest import busy_all, make_job, make_scheduler


def record_allocations(monkeypatch):
    """Spy on every applied allocation: (job id, SoC ids) tuples."""
    seen = []
    original = ElasticScheduler._apply_allocation

    def spy(self, assigned, hour):
        for job_id in sorted(assigned):
            seen.append((job_id, list(assigned[job_id])))
        return original(self, assigned, hour)

    monkeypatch.setattr(ElasticScheduler, "_apply_allocation", spy)
    return seen


def test_schedule_naming_a_missing_soc_is_rejected(config_factory):
    """Validated against the topology once, when the scheduler is
    built, instead of silently dropping the SoC every round."""
    with pytest.raises(ValueError, match="out of range"):
        make_scheduler(ClusterTopology(num_socs=16), config_factory,
                       fault_schedule=FaultSchedule((SoCCrash(1, 99),)))


class TestConcurrentJobs:
    def test_three_jobs_share_the_cluster(self, jobs_topology,
                                          config_factory):
        scheduler = make_scheduler(jobs_topology, config_factory)
        for i in range(3):
            scheduler.submit(make_job(f"j{i}", priority=i + 1,
                                      submit_hour=0.25 * i))
        report = scheduler.run()
        assert report.completed == ["j0", "j1", "j2"]
        for record in report.jobs.values():
            assert record.epochs_done == record.job.epochs
            assert record.final_accuracy > 0.0
        assert report.used_soc_hours > 0
        assert report.utilisation <= 1.0 + 1e-9

    def test_structural_rejection_raises(self, jobs_topology,
                                         config_factory):
        scheduler = make_scheduler(jobs_topology, config_factory)
        with pytest.raises(JobAdmissionError):
            scheduler.submit(make_job("big", min_socs=64, max_socs=64))


class TestMinSocsInvariant:
    def test_no_allocation_below_floor(self, jobs_topology, config_factory,
                                       monkeypatch):
        allocations = record_allocations(monkeypatch)
        sessions = [Session(s, 1.0, 1.0) for s in range(5)]  # squeeze to 3
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions)
        floors = {}
        for i in range(3):
            job = make_job(f"j{i}", min_socs=2, max_socs=6, epochs=3)
            floors[job.id] = job.min_socs
            scheduler.submit(job)
        report = scheduler.run()
        assert allocations
        for job_id, socs in allocations:
            assert len(socs) >= floors[job_id]
            assert len(socs) <= 6
        assert report.completed == ["j0", "j1", "j2"]

    def test_max_socs_caps_growth(self, jobs_topology, config_factory,
                                  monkeypatch):
        allocations = record_allocations(monkeypatch)
        scheduler = make_scheduler(jobs_topology, config_factory)
        scheduler.submit(make_job("solo", min_socs=2, max_socs=4))
        scheduler.run()
        assert allocations
        assert all(len(socs) == 4 for _, socs in allocations)


class TestFairShare:
    def test_equal_priorities_split_surplus(self, jobs_topology,
                                            config_factory, monkeypatch):
        allocations = record_allocations(monkeypatch)
        scheduler = make_scheduler(jobs_topology, config_factory)
        scheduler.submit(make_job("a", min_socs=2, max_socs=8))
        scheduler.submit(make_job("b", min_socs=2, max_socs=8))
        scheduler.run()
        first_round = dict(allocations[:2])
        assert len(first_round["a"]) == 4
        assert len(first_round["b"]) == 4

    def test_priority_weighted_surplus(self, jobs_topology, config_factory,
                                       monkeypatch):
        allocations = record_allocations(monkeypatch)
        scheduler = make_scheduler(jobs_topology, config_factory)
        scheduler.submit(make_job("lo", priority=1, min_socs=2, max_socs=8))
        scheduler.submit(make_job("hi", priority=2, min_socs=2, max_socs=8))
        scheduler.run()
        first_round = dict(allocations[:2])
        assert len(first_round["hi"]) > len(first_round["lo"])
        assert len(first_round["hi"]) + len(first_round["lo"]) == 8


class TestZeroIdleCapacity:
    def test_job_stays_queued_until_socs_free(self, jobs_topology,
                                              config_factory):
        sessions = busy_all(jobs_topology, 0.0, 2.0)
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions)
        scheduler.submit(make_job("waiter"))
        report = scheduler.run()
        record = report.jobs["waiter"]
        assert record.status == "completed"
        assert record.start_hour == pytest.approx(2.0)
        assert record.queue_wait_hours == pytest.approx(2.0)

    def test_never_any_idle_means_unfinished_and_no_groups(
            self, jobs_topology, config_factory):
        sessions = busy_all(jobs_topology, 0.0, 24.0)
        telemetry = Telemetry.active()
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions, horizon_hours=2.0,
                                   telemetry=telemetry)
        scheduler.submit(make_job("starved"))
        report = scheduler.run()
        record = report.jobs["starved"]
        assert record.status == "unfinished"
        assert record.epochs_done == 0
        assert record.start_hour is None
        # no empty logical group was ever planned: no job spans — just
        # the synthetic queue span that lets the analyzer see starvation
        assert not [r for r in telemetry.tracer.records
                    if r.kind == "job"]
        queued = [r for r in telemetry.tracer.records if r.kind == "queue"]
        assert [q.name for q in queued] == ["starved:starved"]
        assert queued[0].dur_s == 2.0 * 3600.0      # the whole horizon
        assert report.used_soc_hours == 0.0


class TestPreemptionAndResume:
    def test_preempted_job_resumes_from_latest_checkpoint(
            self, jobs_topology, config_factory):
        sessions = busy_all(jobs_topology, 0.75, 1.0)
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions)
        scheduler.submit(make_job("evicted", epochs=5))
        report = scheduler.run()
        record = report.jobs["evicted"]
        execution = scheduler._execs["evicted"]
        assert record.preemptions >= 1
        assert record.status == "completed"
        assert record.epochs_done == 5
        # resumed from the *latest* checkpoint: every epoch ran exactly
        # once, and the final checkpoint is the final epoch
        assert len(execution.history) == 5
        assert execution.last_checkpoint.epoch == 5
        assert execution.last_checkpoint.accuracy_history == \
            tuple(execution.history)

    def test_higher_priority_preempts_running_job(self, jobs_topology,
                                                  config_factory):
        scheduler = make_scheduler(jobs_topology, config_factory)
        scheduler.submit(make_job("lo", priority=1, min_socs=8, max_socs=8,
                                  epochs=4))
        scheduler.submit(make_job("hi", priority=5, min_socs=8, max_socs=8,
                                  epochs=2, submit_hour=0.5))
        report = scheduler.run()
        lo, hi = report.jobs["lo"], report.jobs["hi"]
        assert lo.preemptions >= 1
        assert hi.preemptions == 0
        assert lo.status == "completed" and hi.status == "completed"
        assert hi.finish_hour < lo.finish_hour


class TestElasticResize:
    def test_shrinks_and_regrows_with_load(self, jobs_topology,
                                           config_factory, monkeypatch):
        allocations = record_allocations(monkeypatch)
        sessions = [Session(s, 0.75, 1.0) for s in range(4, 8)]
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions)
        scheduler.submit(make_job("elastic", min_socs=2, max_socs=8,
                                  epochs=8))
        report = scheduler.run()
        record = report.jobs["elastic"]
        assert record.status == "completed"
        assert record.resizes >= 2
        sizes = [len(socs) for _, socs in allocations]
        assert 8 in sizes and 4 in sizes

    def test_resize_keeps_sticky_soc_ids(self, jobs_topology,
                                         config_factory, monkeypatch):
        allocations = record_allocations(monkeypatch)
        sessions = [Session(s, 0.75, 1.0) for s in range(4, 8)]
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions)
        scheduler.submit(make_job("sticky", min_socs=2, max_socs=8,
                                  epochs=8))
        scheduler.run()
        shrunk = next(socs for _, socs in allocations if len(socs) == 4)
        assert shrunk == [0, 1, 2, 3]   # kept the surviving half


class TestStaticBaseline:
    def test_requires_window(self, jobs_topology, config_factory):
        with pytest.raises(ValueError, match="window"):
            make_scheduler(jobs_topology, config_factory, elastic=False)

    def test_jobs_gated_to_window(self, jobs_topology, config_factory,
                                  monkeypatch):
        allocations = record_allocations(monkeypatch)
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   elastic=False, window=(1.0, 2.0))
        scheduler.submit(make_job("windowed", min_socs=4, max_socs=8))
        report = scheduler.run()
        record = report.jobs["windowed"]
        assert record.start_hour == pytest.approx(1.0)
        # static mode never grows past the floor
        assert all(len(socs) == 4 for _, socs in allocations)

    def test_window_wraps_midnight(self, jobs_topology, config_factory):
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   elastic=False, window=(23.0, 2.0))
        assert scheduler._in_window(23.5)
        assert scheduler._in_window(0.5)
        assert not scheduler._in_window(12.0)


class TestDeadlines:
    def test_late_finish_is_missed(self, jobs_topology, config_factory):
        sessions = busy_all(jobs_topology, 0.0, 1.0)
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions)
        scheduler.submit(make_job("urgent", deadline_hours=0.5))
        report = scheduler.run()
        assert report.jobs["urgent"].status == "missed"
        assert report.jobs["urgent"].epochs_done == 2

    def test_on_time_finish_is_completed(self, jobs_topology,
                                         config_factory):
        scheduler = make_scheduler(jobs_topology, config_factory)
        scheduler.submit(make_job("calm", deadline_hours=10.0))
        report = scheduler.run()
        assert report.jobs["calm"].status == "completed"


class TestDeterminism:
    def _run_once(self, jobs_topology, config_factory, tmp_path, tag):
        telemetry = Telemetry.active()
        sessions = [Session(s, 0.75, 1.0) for s in range(4, 8)]
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions, telemetry=telemetry)
        scheduler.submit(make_job("a", priority=2, epochs=3))
        scheduler.submit(make_job("b", priority=1, epochs=3,
                                  submit_hour=0.5))
        report = scheduler.run()
        metrics_path = tmp_path / f"metrics-{tag}.jsonl"
        trace_path = tmp_path / f"trace-{tag}.jsonl"
        telemetry.metrics.write_jsonl(metrics_path)
        write_trace(telemetry.tracer, trace_path, fmt="jsonl")
        return (report.to_dict(), metrics_path.read_bytes(),
                trace_path.read_bytes())

    def test_same_inputs_byte_identical_outputs(self, jobs_topology,
                                                config_factory, tmp_path):
        first = self._run_once(jobs_topology, config_factory, tmp_path, "a")
        second = self._run_once(jobs_topology, config_factory, tmp_path, "b")
        assert first[0] == second[0]     # report dict
        assert first[1] == second[1]     # metrics JSONL bytes
        assert first[2] == second[2]     # trace JSONL bytes
