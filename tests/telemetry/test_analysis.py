"""Trace analysis engine: critical paths, stragglers, diffs, health.

Synthetic traces pin the algorithm (attribution precedence, off-path
accounting, window segmentation); the end-to-end class at the bottom
runs a real traced SoCFlow fault run and checks the acceptance
contract: every epoch ≥99% accounted, and same seed ⇒ byte-identical
rendered reports.
"""

import gzip
import json

import pytest

from repro.cluster import FaultSchedule, NicDegradation, SoCCrash
from repro.core import SoCFlow, SoCFlowOptions
from repro.distributed import build_strategy
from repro.harness import make_run_config
from repro.telemetry import (HealthMonitor, MetricsRegistry, Telemetry,
                             Tracer, analyze_records, diff_reports,
                             render_diff, render_report)
from repro.telemetry.analysis import render_live_summary


def _step(tracer, t0, compute_s=6.0, sync_s=3.0, socs=(0, 1), cg=0,
          hidden=1.0, slow=None):
    """One lock-step compute + allreduce + update pattern (socflow-ish)."""
    for soc in socs:
        dur = compute_s * (1.5 if soc == slow else 1.0)
        tracer.span("compute", t0, dur, soc=soc, pcb=0, lg=0)
    start = t0 + compute_s * (1.5 if slow is not None else 1.0)
    tracer.span("allreduce", start, sync_s, cg=cg, hidden_s=hidden)
    tracer.span("update", start + sync_s, 0.5)
    return start + sync_s + 0.5


def _epoch(tracer, epoch, t0, **step_kw):
    end = _step(tracer, t0, **step_kw)
    tracer.span("epoch", t0, end - t0, name=f"epoch {epoch}", epoch=epoch,
                accuracy=0.5 + 0.05 * epoch)
    return end


class TestCriticalPath:
    def test_full_tiling_and_attribution(self):
        tracer = Tracer()
        end = _epoch(tracer, 0, 0.0)
        report = analyze_records(tracer.records)
        (window,) = report.windows
        assert window.label == "epoch 0"
        assert window.seconds == pytest.approx(end)
        # compute + allreduce + update tile the whole window
        assert window.coverage == pytest.approx(1.0)
        assert window.phase_seconds == pytest.approx(
            {"compute": 6.0, "allreduce": 3.0, "update": 0.5})
        kinds = [segment.kind for segment in window.path]
        assert kinds == ["compute", "allreduce", "update"]
        # the compute stretch is covered by both SoCs in lock-step
        assert window.path[0].width == 2
        assert window.bottleneck == ("compute", "soc 0 lg0 x2")

    def test_higher_priority_kind_wins_overlap(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 10.0, soc=0)
        tracer.span("recovery", 4.0, 2.0, name="recovery@0")
        report = analyze_records(tracer.records)
        (window,) = report.windows
        assert window.phase_seconds == pytest.approx(
            {"compute": 8.0, "recovery": 2.0})
        assert [s.kind for s in window.path] == \
            ["compute", "recovery", "compute"]

    def test_bucket_and_nic_spans_stay_off_path(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 6.0, soc=0)
        # overlapped bucket collectives + a NIC wait priced inside them
        tracer.span("bucket_sync", 1.0, 2.0, bucket=0, hidden_s=2.0)
        tracer.span("nic_wait", 1.0, 0.5, pcb=0, retries=0)
        tracer.span("sync", 6.0, 1.0, hidden_s=2.0)
        report = analyze_records(tracer.records)
        (window,) = report.windows
        assert "bucket_sync" not in window.phase_seconds
        assert "nic_wait" not in window.phase_seconds
        assert window.coverage == pytest.approx(1.0)

    def test_gap_counts_as_unattributed(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 4.0, soc=0)
        tracer.span("sync", 6.0, 2.0)           # 2s hole before it
        report = analyze_records(tracer.records)
        (window,) = report.windows
        assert window.unattributed_s == pytest.approx(2.0)
        assert window.coverage == pytest.approx(6.0 / 8.0)

    def test_setup_and_tail_windows(self):
        tracer = Tracer()
        tracer.span("dispatch", 0.0, 2.0)
        _epoch(tracer, 0, 2.0)
        tracer.span("checkpoint", 11.5, 1.0)
        report = analyze_records(tracer.records)
        labels = [w.label for w in report.windows]
        assert labels == ["setup", "epoch 0", "tail"]
        assert report.windows[0].phase_seconds == {"dispatch": 2.0}
        assert report.windows[2].phase_seconds == \
            pytest.approx({"checkpoint": 1.0})
        # only the epoch window counts as an epoch
        assert [w.label for w in report.epochs] == ["epoch 0"]

    def test_traces_without_epochs_analyse_as_one_run_window(self):
        tracer = Tracer()
        tracer.span("job", 0.0, 5.0, job="a", name="a:epoch 0")
        tracer.span("job", 0.0, 7.0, job="b", name="b:epoch 0")
        report = analyze_records(tracer.records)
        (window,) = report.windows
        assert window.label == "run" and window.epoch is None
        # the bounding job (longest span) owns the path
        assert window.bottleneck[0] == "job"
        assert "job b" in window.bottleneck[1]

    def test_empty_trace(self):
        report = analyze_records([])
        assert report.windows == [] and report.total_s == 0.0
        assert "empty trace" in render_live_summary(report)


class TestHiddenSync:
    def test_socflow_duplicated_allreduce_hidden_uses_max(self):
        tracer = Tracer()
        # socflow repeats the epoch's hidden total on every per-SoC span
        for soc in (0, 1, 2):
            tracer.span("allreduce", 0.0, 3.0, soc=soc, cg=0, hidden_s=4.0)
        report = analyze_records(tracer.records)
        assert report.windows[0].hidden_sync_s == pytest.approx(4.0)

    def test_bucketed_spans_sum(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 6.0, soc=0)
        tracer.span("bucket_sync", 1.0, 2.0, hidden_s=2.0)
        tracer.span("bucket_sync", 3.0, 2.0, hidden_s=1.5)
        report = analyze_records(tracer.records)
        assert report.windows[0].hidden_sync_s == pytest.approx(3.5)

    def test_hidden_fraction(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 6.0, soc=0)
        tracer.span("sync", 6.0, 1.0, hidden_s=3.0)
        report = analyze_records(tracer.records)
        assert report.windows[0].hidden_fraction == pytest.approx(0.75)

    def test_fully_hidden_sync_is_a_zero_length_span_counted_once(self):
        """A compute-bound step's sync never advances the clock: the
        span has no length but carries the step's hidden seconds.  One
        sitting exactly on an epoch boundary belongs to the window
        that starts there, not to both."""
        tracer = Tracer()
        for epoch, t0 in enumerate((0.0, 7.0)):
            tracer.span("compute", t0, 6.0, soc=0)
            tracer.span("sync", t0 + 6.0, 0.0, hidden_s=2.0 + epoch)
            tracer.span("update", t0 + 6.0, 1.0)
            tracer.span("epoch", t0, 7.0, name=f"epoch {epoch}", epoch=epoch)
        tracer.span("sync", 7.0, 0.0, hidden_s=0.25)    # on the boundary
        report = analyze_records(tracer.records)
        assert [w.hidden_sync_s for w in report.windows] == \
            pytest.approx([2.0, 3.25])
        assert report.hidden_total_s == pytest.approx(5.25)

    @pytest.mark.parametrize("method,overrides", [
        ("socflow", {}), ("ring", {}),
        ("socflow", {"fusion_max_ops": 4}), ("ring", {"fusion_max_ops": 4})],
        ids=["socflow", "ring", "socflow-bucketed", "ring-bucketed"])
    def test_report_matches_the_clock_on_compute_bound_runs(
            self, tiny_task, method, overrides):
        """Traced runs whose sync hides entirely under compute (every
        ``allreduce`` / ``sync`` / last ``bucket_sync`` span has zero
        length): the report's hidden seconds are the clock's."""
        from repro.cluster import ClusterTopology
        from repro.distributed import RunConfig, build_strategy
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        config = RunConfig(
            task=tiny_task, model_name="vgg11", width=0.15, batch_size=16,
            lr=0.05, max_epochs=2, seed=0, num_groups=2,
            topology=ClusterTopology(num_socs=4), sim_samples_per_epoch=2000,
            sim_global_batch=64, telemetry=telemetry, **overrides)
        strategy = (SoCFlow(SoCFlowOptions()) if method == "socflow"
                    else build_strategy(method))
        result = strategy.train(config)
        records = telemetry.tracer.records
        assert any(r.dur_s == 0 and r.args.get("hidden_s") for r in records)
        report = analyze_records(records)
        assert result.extra["sync_hidden_s"] > 0
        assert report.hidden_total_s == pytest.approx(
            result.extra["sync_hidden_s"])


class TestStragglers:
    def test_slow_soc_flagged(self):
        tracer = Tracer()
        _epoch(tracer, 0, 0.0, socs=(0, 1, 2, 3), slow=3)
        report = analyze_records(tracer.records)
        (window,) = report.windows
        soc, skew = window.straggler
        assert soc == 3 and skew == pytest.approx(1.5)

    def test_no_soc_attribution_means_no_straggler(self):
        tracer = Tracer()
        tracer.span("compute", 0.0, 6.0, num_socs=8)     # ssgd-style
        report = analyze_records(tracer.records)
        assert report.windows[0].straggler is None


class TestNetworkHealth:
    def test_retries_degrade_pcb(self):
        tracer = Tracer()
        tracer.span("nic_wait", 0.0, 0.5, pcb=1, retries=2)
        tracer.span("nic_wait", 0.0, 0.1, pcb=2, retries=0)
        report = analyze_records(tracer.records)
        assert report.pcb_health[1]["degraded"] is True
        assert report.pcb_health[2]["degraded"] is False

    def test_fault_events_cross_referenced(self):
        tracer = Tracer()
        tracer.event("fault", 1.0, name="fault:flap", pcb=0, fault="flap")
        report = analyze_records(tracer.records)
        assert report.pcb_health[0]["degraded"] is True
        assert report.faults == [
            {"ts_s": 1.0, "name": "fault:flap", "fault": "flap", "pcb": 0}]


class TestDiff:
    def _report(self, sync_s=3.0, epochs=2):
        tracer = Tracer()
        t = 0.0
        for epoch in range(epochs):
            t = _epoch(tracer, epoch, t, sync_s=sync_s)
        return analyze_records(tracer.records)

    def test_identical_runs_not_significant(self):
        diff = diff_reports(self._report(), self._report())
        assert not diff.significant_phases
        assert "no significant" in diff.verdict

    def test_sync_win_attributed(self):
        diff = diff_reports(self._report(sync_s=3.0),
                            self._report(sync_s=1.5))
        assert diff.total.delta == pytest.approx(-3.0)
        significant = {d.key for d in diff.significant_phases}
        assert "allreduce" in significant
        assert "faster" in diff.verdict and "allreduce" in diff.verdict
        # epochs align by index, each 1.5s faster
        assert all(d.delta == pytest.approx(-1.5) for d in diff.epochs)

    def test_epoch_count_mismatch_noted(self):
        diff = diff_reports(self._report(epochs=2), self._report(epochs=3))
        assert any("epoch count differs" in note for note in diff.notes)

    def test_json_round_trips(self):
        diff = diff_reports(self._report(), self._report(sync_s=2.0))
        payload = json.loads(render_diff(diff, "json"))
        assert payload["verdict"] == diff.verdict
        assert {p["key"] for p in payload["phases"]} >= {"allreduce"}


class TestHealthMonitor:
    def test_epoch_spike(self):
        tracer = Tracer()
        t = 0.0
        for epoch in range(4):
            t = _epoch(tracer, epoch, t,
                       compute_s=6.0 if epoch != 2 else 20.0)
        report = analyze_records(tracer.records)
        spikes = [a for a in report.anomalies
                  if a.kind == "epoch_time_spike"]
        assert [a.where for a in spikes] == ["epoch 2"]

    def test_sync_regression(self):
        tracer = Tracer()
        t = _epoch(tracer, 0, 0.0, sync_s=1.0)
        _epoch(tracer, 1, t, compute_s=2.0, sync_s=6.0)
        report = analyze_records(
            tracer.records,
            monitor=HealthMonitor(spike_factor=100.0))
        kinds = {a.kind for a in report.anomalies}
        assert "sync_regression" in kinds

    def test_straggler_and_degraded_pcb(self):
        tracer = Tracer()
        _epoch(tracer, 0, 0.0, socs=(0, 1, 2, 3), slow=3)
        tracer.span("nic_wait", 0.0, 0.5, pcb=0, retries=3)
        report = analyze_records(tracer.records)
        kinds = {a.kind for a in report.anomalies}
        assert {"straggler_soc", "degraded_pcb"} <= kinds

    def test_starved_job(self):
        tracer = Tracer()
        tracer.span("job", 0.0, 10.0, job="fast", name="fast:epoch 0")
        tracer.span("queue", 0.0, 9.0, job="hungry", name="hungry:starved")
        report = analyze_records(tracer.records)
        starved = [a for a in report.anomalies if a.kind == "starved_job"]
        assert [a.where for a in starved] == ["job hungry"]

    def test_anomalies_emitted_into_metrics(self):
        tracer = Tracer()
        tracer.span("nic_wait", 0.0, 0.5, pcb=0, retries=3)
        metrics = MetricsRegistry()
        analyze_records(tracer.records, metrics=metrics)
        rows = {row["name"]: row for row in metrics.collect()}
        assert rows["health.anomalies"]["value"] == 1.0
        assert rows["health.anomalies"]["labels"] == {"kind": "degraded_pcb"}

    def test_healthy_run_is_quiet(self):
        tracer = Tracer()
        t = 0.0
        for epoch in range(3):
            t = _epoch(tracer, epoch, t)
        report = analyze_records(tracer.records)
        assert report.anomalies == []


class TestRenderers:
    def _report(self):
        tracer = Tracer()
        t = _epoch(tracer, 0, 0.0)
        _epoch(tracer, 1, t)
        return analyze_records(tracer.records)

    def test_formats_deterministic(self):
        a, b = self._report(), self._report()
        for fmt in ("table", "json", "markdown"):
            assert render_report(a, fmt) == render_report(b, fmt)
            assert render_diff(diff_reports(a, a), fmt) \
                == render_diff(diff_reports(b, b), fmt)

    def test_json_parses(self):
        payload = json.loads(render_report(self._report(), "json"))
        assert payload["coverage"] == pytest.approx(1.0)
        assert len(payload["windows"]) == 2

    def test_markdown_has_tables(self):
        text = render_report(self._report(), "markdown")
        assert "### per-window phase accounting" in text
        assert "| --- |" in text

    def test_graph_line_reports_run_wide_plan_sharing(self):
        """A SoCFlow ``graph_replay`` span carries the run's plan-cache
        counters; single-model strategies' spans do not, and their line
        stays as it was."""
        counters = dict(captures=0, replays=11, eager_steps=0, fallbacks=0)
        plain, shared = Tracer(), Tracer()
        for tracer in (plain, shared):
            _epoch(tracer, 0, 0.0)
        plain.span("graph_replay", 9.5, 0.0, **counters)
        shared.span("graph_replay", 9.5, 0.0, lg=3, precision="int8",
                    **counters, plans=2, binds=15, unshared_plans=0,
                    workspace_bytes=3 * 2**20)
        line = "graph executor: on (11 replays, 0 captures, 0 eager)"
        assert line + "\n" in render_report(
            analyze_records(plain.records), "table") + "\n"
        assert (line + "; all int8 replicas: plans 2 (unshared 0), "
                "binds 15, workspace 3.0 MiB") in render_report(
            analyze_records(shared.records), "table")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_report(self._report(), "csv")

    def test_live_summary_names_bottleneck(self):
        text = render_live_summary(self._report())
        assert "bottleneck compute" in text
        assert "coverage 100.0%" in text


# ----------------------------------------------------------------------
# End-to-end: a real traced SoCFlow fault run
# ----------------------------------------------------------------------
def _socflow_run(seed=3):
    telemetry = Telemetry.active()
    config = make_run_config(
        "lenet5_fmnist", "quick", num_socs=16, num_groups=4, max_epochs=3,
        seed=seed, telemetry=telemetry,
        fault_schedule=FaultSchedule(
            (SoCCrash(1, 3), NicDegradation(1, 0, 0.2, recover_epoch=3))))
    SoCFlow(SoCFlowOptions()).train(config)
    return telemetry


@pytest.fixture(scope="module")
def socflow_traced():
    return _socflow_run()


class TestEndToEnd:
    def test_every_epoch_99_percent_accounted(self, socflow_traced):
        report = analyze_records(socflow_traced.tracer.records)
        epochs = report.epochs
        assert len(epochs) == 3
        for window in epochs:
            assert window.coverage >= 0.99, \
                f"{window.label}: {window.coverage:.3%}"

    def test_recovery_shows_on_critical_path(self, socflow_traced):
        report = analyze_records(socflow_traced.tracer.records)
        totals = report.phase_totals
        assert totals.get("recovery", 0.0) > 0
        recovering = [w for w in report.epochs
                      if "recovery" in w.phase_seconds]
        assert recovering

    def test_fault_run_raises_anomalies(self, socflow_traced):
        report = analyze_records(socflow_traced.tracer.records)
        kinds = {a.kind for a in report.anomalies}
        # the deep NIC degradation forces retries -> a degraded PCB
        assert "degraded_pcb" in kinds

    def test_same_seed_byte_identical_reports(self, socflow_traced):
        other = _socflow_run()
        for fmt in ("table", "json", "markdown"):
            assert render_report(
                analyze_records(socflow_traced.tracer.records), fmt) \
                == render_report(analyze_records(other.tracer.records), fmt)

    def test_analysis_does_not_mutate_records(self, socflow_traced):
        before = [r.to_dict() for r in socflow_traced.tracer.records]
        analyze_records(socflow_traced.tracer.records)
        assert [r.to_dict() for r in socflow_traced.tracer.records] == before


class TestRunWideCounters:
    @pytest.mark.parametrize("method", ["ring", "ssp", "fedavg"])
    def test_baseline_fault_report_lists_the_crash(self, method):
        """Baselines read the schedule through the same epoch entry as
        SoCFlow, so their traces carry the same fault onsets."""
        telemetry = Telemetry.active()
        config = make_run_config(
            "lenet5_fmnist", "quick", num_socs=16, max_epochs=2,
            telemetry=telemetry, fault_mode="continue",
            fault_schedule=FaultSchedule(
                (SoCCrash(1, 3), NicDegradation(1, 0, 0.2, recover_epoch=2))))
        build_strategy(method).train(config)
        faults = analyze_records(telemetry.tracer.records).faults
        assert sorted((f["fault"], f.get("soc")) for f in faults) \
            == [("crash", 3), ("nic_degradation", None)]

    def test_graph_counters_are_the_runs(self):
        """One ``graph_replay`` span per group and precision: the report
        sums them instead of keeping the last group's."""
        telemetry = Telemetry.active()
        config = make_run_config("lenet5_fmnist", "quick", num_socs=16,
                                 max_epochs=2, graph=True,
                                 telemetry=telemetry)
        result = SoCFlow(SoCFlowOptions()).train(config)
        report = analyze_records(telemetry.tracer.records)
        counters = {precision: {key: stats[key] for key in
                                result.extra["graph_stats"][precision]}
                    for precision, stats in report.graph_stats.items()}
        assert counters == result.extra["graph_stats"]
        for precision, plans in result.extra["graph_plans"].items():
            assert plans.items() <= report.graph_stats[precision].items()
        lines = [line for line in render_report(report).splitlines()
                 if line.startswith("graph executor:")]
        assert len(lines) == len(counters) == 2

    def test_graph_counters_without_precision_are_fp32(self):
        tracer = Tracer()
        _epoch(tracer, 0, 0.0)
        for replays in (4, 7):
            tracer.span("graph_replay", 9.5, 0.0, captures=1,
                        replays=replays, eager_steps=0, fallbacks=0)
        assert analyze_records(tracer.records).graph_stats == {
            "fp32": dict(captures=2, replays=11, eager_steps=0, fallbacks=0)}


class TestLoaderRoundTrip:
    def _tracer(self):
        tracer = Tracer()
        _epoch(tracer, 0, 0.0)
        tracer.event("fault", 1.0, name="fault:crash", soc=0, fault="crash")
        return tracer

    def test_plain_round_trip(self, tmp_path):
        from repro.telemetry import load_trace_records, to_jsonl, write_jsonl
        tracer = self._tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        records = load_trace_records(path)
        assert "\n".join(json.dumps(r.to_dict(), sort_keys=True)
                         for r in records) == to_jsonl(tracer)

    def test_gzip_round_trip_and_determinism(self, tmp_path):
        from repro.telemetry import load_trace_records, write_jsonl
        tracer = self._tracer()
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_jsonl(tracer, a)
        write_jsonl(tracer, b)
        # mtime=0 members: identical exports are byte-identical files
        assert a.read_bytes() == b.read_bytes()
        with gzip.open(a, "rt") as fh:
            assert fh.readline().startswith("{")
        loaded = [r.to_dict() for r in load_trace_records(a)]
        assert loaded == [r.to_dict() for r in tracer.records]

    def test_analysis_matches_live(self, tmp_path):
        from repro.telemetry import analyze_trace, write_jsonl
        tracer = self._tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        assert render_report(analyze_trace(path)) \
            == render_report(analyze_records(tracer.records))

    def test_chrome_trace_rejected(self, tmp_path):
        from repro.telemetry import load_trace_records, write_trace
        path = tmp_path / "trace.json"
        write_trace(self._tracer(), path, fmt="chrome")
        with pytest.raises(ValueError, match="Chrome-format"):
            load_trace_records(path)

    def test_malformed_line_rejected(self, tmp_path):
        from repro.telemetry import load_trace_records
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "compute"}\n')
        with pytest.raises(ValueError, match="missing required field"):
            load_trace_records(path)
