"""Per-job attribution through the tracer and the Chrome-trace export."""

import json
from dataclasses import replace

from repro.telemetry import Telemetry, Tracer, to_chrome_trace

from .conftest import busy_all, make_job, make_scheduler


class TestTracerJobField:
    def test_span_carries_job_id(self):
        tracer = Tracer()
        tracer.span("job", 0.0, 5.0, job="tenant-1", name="tenant-1:epoch 0")
        record = tracer.records[0]
        assert record.job == "tenant-1"
        assert record.to_dict()["job"] == "tenant-1"

    def test_job_field_omitted_when_unset(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 1.0, soc=0)
        assert "job" not in tracer.records[0].to_dict()


class TestChromeExportJobRows:
    def test_jobs_get_their_own_process_and_threads(self):
        tracer = Tracer()
        tracer.span("queue", 0.0, 10.0, job="b-job", name="b-job:queued")
        tracer.span("job", 10.0, 60.0, job="b-job", name="b-job:epoch 0")
        tracer.span("job", 10.0, 45.0, job="a-job", name="a-job:epoch 0")
        events = to_chrome_trace(tracer)["traceEvents"]
        names = {(e["pid"], e.get("tid")): e["args"]["name"]
                 for e in events if e["ph"] == "M"
                 and e["name"] in ("process_name", "thread_name")}
        assert names[(1000, None)] == "jobs"
        tids = {e["args"]["name"]: e["tid"] for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"
                and e["pid"] == 1000}
        # one row per job, first-seen order
        assert tids == {"b-job": 1, "a-job": 2}
        spans = [e for e in events if e["ph"] == "X" and e["pid"] == 1000]
        assert {e["args"]["job"] for e in spans} == {"a-job", "b-job"}
        # concurrent jobs render on distinct rows
        assert len({e["tid"] for e in spans}) == 2

    def test_soc_attributed_records_stay_on_cluster_rows(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 1.0, soc=3, pcb=0, job="j")
        events = to_chrome_trace(tracer)["traceEvents"]
        span = next(e for e in events if e["ph"] == "X")
        assert span["pid"] != 1000          # pcb attribution wins
        assert span["args"]["job"] == "j"   # but the label survives


class TestScheduledRunTrace:
    def test_concurrent_jobs_distinguishable_in_export(
            self, jobs_topology, config_factory):
        telemetry = Telemetry.active()
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   telemetry=telemetry)
        scheduler.submit(make_job("alpha", priority=1))
        scheduler.submit(make_job("beta", priority=2))
        scheduler.run()
        job_spans = [r for r in telemetry.tracer.records
                     if r.kind == "job"]
        assert {r.job for r in job_spans} == {"alpha", "beta"}
        assert all(r.name.startswith(f"{r.job}:epoch") for r in job_spans)
        payload = json.dumps(to_chrome_trace(telemetry.tracer))
        assert '"alpha"' in payload and '"beta"' in payload

    def test_preemption_and_resize_events_attributed(
            self, jobs_topology, config_factory):
        telemetry = Telemetry.active()
        sessions = busy_all(jobs_topology, 0.75, 1.0)
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   sessions=sessions, telemetry=telemetry)
        scheduler.submit(make_job("victim", epochs=5))
        scheduler.run()
        kinds = {r.kind for r in telemetry.tracer.records}
        assert "preemption" in kinds
        preempt = next(r for r in telemetry.tracer.records
                       if r.kind == "preemption")
        assert preempt.job == "victim"

    def test_metrics_carry_job_labels(self, jobs_topology, config_factory):
        telemetry = Telemetry.active()
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   telemetry=telemetry)
        scheduler.submit(make_job("only"))
        scheduler.run()
        rows = [json.loads(line) for line in
                telemetry.metrics.to_jsonl().splitlines()]
        soc_hours = [r for r in rows if r["name"] == "jobs.soc_hours"]
        assert soc_hours and soc_hours[0]["labels"] == {"job": "only"}
        names = {r["name"] for r in rows}
        assert {"jobs.completed", "jobs.utilisation"} <= names

    def test_graph_counters_flushed_per_job(self, jobs_topology,
                                            config_factory):
        """A scheduled ``--graph`` job reports its compiled steps in the
        shared telemetry, labelled with the job: one that completes and
        one the horizon cuts off, each precision replayed, none fell
        back."""
        telemetry = Telemetry.active()
        scheduler = make_scheduler(jobs_topology, config_factory,
                                   telemetry=telemetry, horizon_hours=0.75)
        scheduler.submit(make_job("done", epochs=1, mixed=True, max_socs=4))
        scheduler.submit(make_job("cut", epochs=9, max_socs=4))
        report = scheduler.run()
        assert report.jobs["done"].status == "completed"
        assert report.jobs["cut"].status == "unfinished"
        series = {(r["name"], r["labels"].get("job"),
                   r["labels"].get("precision")): r["value"]
                  for r in telemetry.metrics.collect()
                  if r["name"].startswith("graph.")}
        expected = {"done": ("fp32", "int8"), "cut": ("fp32",)}
        for job, precisions in expected.items():
            for precision in precisions:
                assert series[("graph.replays", job, precision)] > 0
                assert series[("graph.fallbacks", job, precision)] == 0
        spans = [r for r in telemetry.tracer.records
                 if r.kind == "graph_replay"]
        assert {(r.job, r.args["precision"]) for r in spans} == {
            ("done", "fp32"), ("done", "int8"), ("cut", "fp32")}

    def test_scheduler_settings_override_the_factory(self, jobs_topology,
                                                     config_factory):
        """The scheduler decides a job's workers, fusion and graph
        whoever builds its config: a factory's ``graph=False`` still
        runs compiled under ``graph=True`` and writes ``graph.*``."""
        def eager_factory(job):
            return replace(config_factory(job), graph=False, workers=3,
                           fusion_max_ops=1)

        telemetry = Telemetry.active()
        scheduler = make_scheduler(jobs_topology, eager_factory, graph=True,
                                   telemetry=telemetry, horizon_hours=0.5,
                                   fusion_threshold_mb=0.5)
        config = scheduler._config_for(make_job("probe"))
        assert (config.graph, config.workers, config.fusion_threshold_mb,
                config.fusion_max_ops) == (True, 1, 0.5, None)
        scheduler.submit(make_job("only", epochs=1, max_socs=4))
        scheduler.run()
        names = {r["name"] for r in telemetry.metrics.collect()}
        assert "graph.replays" in names
