"""CLI: argument parsing and command outputs."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "imagenet"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "socflow"
        assert args.socs == 32
        assert args.fusion_threshold_mb is None
        assert args.fusion_max_ops is None

    def test_fusion_flags_parse_on_run_and_jobs(self):
        args = build_parser().parse_args(
            ["run", "--fusion-threshold-mb", "4.5", "--fusion-max-ops", "8"])
        assert args.fusion_threshold_mb == 4.5
        assert args.fusion_max_ops == 8
        args = build_parser().parse_args(
            ["jobs", "--spec", "x.yaml", "--fusion-threshold-mb", "25"])
        assert args.fusion_threshold_mb == 25.0

    def test_fusion_max_ops_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fusion-max-ops", "0"])


class TestListCommand:
    def test_lists_everything(self):
        code, output = run_cli(["list"])
        assert code == 0
        assert "socflow" in output
        assert "vgg11" in output
        assert "quick" in output


class TestTraceCommand:
    def test_prints_trace_and_window(self):
        code, output = run_cli(["trace", "--threshold", "0.25"])
        assert code == 0
        assert "longest idle window" in output
        assert "busy" in output


class TestRunCommand:
    def test_run_lenet_quick(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16"])
        assert code == 0
        assert "socflow" in output
        assert "accuracy per epoch" in output

    def test_run_baseline(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "fedavg",
            "--epochs", "1", "--socs", "8"])
        assert code == 0
        assert "fedavg" in output


class TestFaultArgs:
    def test_run_with_crash_spec_prints_summary(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "2", "--socs", "16",
            "--faults", "crash:epoch=1,soc=3"])
        assert code == 0
        assert "faults: completed" in output
        assert "dead=[3]" in output

    def test_run_with_flap_and_storm(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "2", "--socs", "16",
            "--faults", "flap:epoch=1,pcb=0,mult=0.2,until=2;storm:epoch=1"])
        assert code == 0
        assert "faults: completed" in output

    def test_baseline_fail_stop_reports_abort(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "ring",
            "--epochs", "2", "--socs", "8",
            "--faults", "crash:epoch=1,soc=0"])
        assert code == 0
        assert "ABORTED at epoch 1" in output

    def test_baseline_continue_mode_completes(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "ring",
            "--epochs", "2", "--socs", "8", "--fault-mode", "continue",
            "--faults", "crash:epoch=1,soc=0"])
        assert code == 0
        assert "ABORTED" not in output

    def test_local_reference_ignores_the_cluster_fault_schedule(self):
        """``local`` trains on a one-SoC topology; the cluster-wide
        schedule (SoC 7 of 8) must not be re-validated against it, nor
        take the other columns of a ``compare`` down with it."""
        faults = ["--preset", "quick", "--socs", "8", "--epochs", "1",
                  "--faults", "crash:epoch=1,soc=7"]
        code, output = run_cli(["run", "--workload", "lenet5_fmnist",
                                "--method", "local", *faults])
        assert code == 0
        assert "local" in output
        code, output = run_cli(["compare", "--workload", "lenet5_fmnist",
                                "--methods", "local,ring", *faults])
        assert code == 0
        assert "local" in output and "ring" in output

    @pytest.mark.parametrize("bad", [
        "bogus",
        "crash:epoch=1",
        "crash:epoch=one,soc=2",
        "nic:epoch=1,pcb=0,mult=2.0",
        "crash:epoch=1,soc=999",            # out of range for --socs
    ])
    def test_malformed_spec_exits_2(self, bad, capsys):
        code, _ = run_cli(["run", "--workload", "lenet5_fmnist",
                           "--epochs", "1", "--socs", "16",
                           "--faults", bad])
        assert code == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_compare_rejects_malformed_spec(self, capsys):
        code, _ = run_cli(["compare", "--workload", "lenet5_fmnist",
                           "--methods", "ring,socflow", "--epochs", "1",
                           "--faults", "warp:epoch=1"])
        assert code == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_bad_fault_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault-mode", "explode"])


class TestTelemetryArgs:
    def test_trace_writes_chrome_json(self, tmp_path):
        trace = tmp_path / "run.json"
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "2", "--socs", "16",
            "--faults", "crash:epoch=1,soc=3",
            "--trace", str(trace)])
        assert code == 0
        assert "per-epoch breakdown" in output
        assert f"-> {trace}" in output
        import json
        payload = json.loads(trace.read_text())
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert {"compute", "allreduce", "leader_sync", "recovery"} <= cats

    def test_trace_jsonl_format(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16",
            "--trace", str(trace), "--trace-format", "jsonl"])
        assert code == 0
        import json
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line)["kind"] for line in lines)

    def test_metrics_flag_writes_registry(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16", "--metrics", str(metrics)])
        assert code == 0
        import json
        names = {json.loads(line)["name"]
                 for line in metrics.read_text().splitlines()}
        assert "epoch.seconds" in names and "run.sim_time_s" in names

    def test_fusion_clamp_count_in_metrics_summary(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16", "--fusion-max-ops", "2",
            "--metrics", str(metrics)])
        assert code == 0
        import json
        (clamped,) = [row for row in map(json.loads,
                                         metrics.read_text().splitlines())
                      if row["name"] == "sync.fusion_clamped"]
        assert clamped["value"] > 0
        assert (f"fusion: {int(clamped['value'])} bucketed step(s) clamped"
                in output)

    def test_network_summary_always_printed(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16"])
        assert code == 0
        assert "network: retries=" in output

    def test_degraded_pcbs_in_summary(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "2", "--socs", "16",
            "--faults", "flap:epoch=1,pcb=0,mult=0.2,until=3"])
        assert code == 0
        assert "degraded PCBs: 0@0.20" in output

    def test_compare_writes_per_method_files(self, tmp_path):
        trace = tmp_path / "cmp.json"
        code, output = run_cli([
            "compare", "--workload", "lenet5_fmnist",
            "--methods", "ring,socflow", "--epochs", "1", "--socs", "8",
            "--trace", str(trace)])
        assert code == 0
        assert (tmp_path / "cmp.ring.json").exists()
        assert (tmp_path / "cmp.socflow.json").exists()
        assert not trace.exists()


class TestJobsCommand:
    SPEC = """\
cluster:
  socs: 8
  seed: 0
  peak_sessions_per_hour: 10
jobs:
  - id: smoke
    workload: lenet5_fmnist
    min_socs: 2
    max_socs: 4
    epochs: 1
"""

    def write_spec(self, tmp_path, text=None):
        path = tmp_path / "jobs.yaml"
        path.write_text(text or self.SPEC)
        return str(path)

    def test_spec_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])

    def test_schedules_job_file(self, tmp_path):
        code, output = run_cli(["jobs", "--spec",
                                self.write_spec(tmp_path),
                                "--horizon", "4"])
        assert code == 0
        assert "smoke" in output and "completed" in output
        assert "idle-capacity utilisation" in output

    def test_fusion_flags_round_trip_into_job_configs(self, tmp_path):
        """--fusion-* flags flow CLI -> scheduler -> every job's
        RunConfig (and the schedule still completes with them on)."""
        code, output = run_cli([
            "jobs", "--spec", self.write_spec(tmp_path), "--horizon", "4",
            "--fusion-threshold-mb", "4", "--fusion-max-ops", "16"])
        assert code == 0
        assert "smoke" in output and "completed" in output

        from repro.cluster import ClusterTopology
        from repro.jobs import ElasticScheduler, TrainingJob
        scheduler = ElasticScheduler(
            ClusterTopology(num_socs=8), sessions=[],
            fusion_threshold_mb=4.0, fusion_max_ops=16)
        config = scheduler._config_for(
            TrainingJob(id="t", workload="lenet5_fmnist", min_socs=2,
                        max_socs=4, epochs=1))
        assert config.fusion_threshold_mb == 4.0
        assert config.fusion_max_ops == 16
        assert config.fusion_enabled

    def test_report_trace_and_metrics_files(self, tmp_path):
        report = tmp_path / "report.json"
        trace = tmp_path / "jobs.json"
        metrics = tmp_path / "metrics.jsonl"
        code, output = run_cli([
            "jobs", "--spec", self.write_spec(tmp_path), "--horizon", "4",
            "--report", str(report), "--trace", str(trace),
            "--metrics", str(metrics)])
        assert code == 0
        import json
        payload = json.loads(report.read_text())
        assert payload["jobs"][0]["id"] == "smoke"
        assert 0.0 <= payload["utilisation"] <= 1.0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("args", {}).get("job") == "smoke" for e in events)
        assert any("jobs.completed" in line
                   for line in metrics.read_text().splitlines())

    def test_static_window_mode(self, tmp_path):
        code, output = run_cli([
            "jobs", "--spec", self.write_spec(tmp_path), "--horizon", "6",
            "--static-window", "1:3"])
        assert code == 0
        assert "static window" in output

    def test_bad_static_window_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(["jobs", "--spec", self.write_spec(tmp_path),
                           "--static-window", "nope"])
        assert code == 2
        assert "static-window" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("jobs:\n  - id: x\n    workload: vgg11\n"
                       "    rockets: 9\n")
        code, _ = run_cli(["jobs", "--spec", str(bad)])
        assert code == 2
        assert "bad job file" in capsys.readouterr().err

    @pytest.mark.parametrize("typo", ["fusion_treshold_mb: 4", "graf: true"])
    def test_unknown_cluster_key_exits_2(self, tmp_path, capsys, typo):
        spec = self.SPEC.replace("  seed: 0\n", f"  seed: 0\n  {typo}\n")
        code, _ = run_cli(["jobs", "--spec", self.write_spec(tmp_path, spec)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad job file" in err and typo.split(":")[0] in err
        assert "fusion_threshold_mb" in err           # the accepted keys

    @pytest.mark.parametrize("faults", [
        "flap:epoch=1,pcb=0,mult=0.2,until=2",
        "crash:epoch=1,soc=3;straggler:epoch=1,soc=2,factor=0.5",
        "storm:epoch=2"])
    def test_faults_it_does_not_price_exit_2(self, tmp_path, capsys, faults):
        code, _ = run_cli(["jobs", "--spec", self.write_spec(tmp_path),
                           "--faults", faults])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --faults spec" in err and "crashes only" in err

    def test_unadmittable_job_rejected(self, tmp_path, capsys):
        spec = ("jobs:\n  - id: giant\n    workload: lenet5_fmnist\n"
                "    min_socs: 64\n    max_socs: 64\n")
        code, output = run_cli(["jobs", "--spec",
                                self.write_spec(tmp_path, spec),
                                "--socs", "8"])
        assert code == 1
        assert "no jobs admitted" in capsys.readouterr().err


class TestServeMode:
    SPEC = TestJobsCommand.SPEC

    def write_spec(self, tmp_path):
        path = tmp_path / "jobs.yaml"
        path.write_text(self.SPEC)
        return str(path)

    def serve_args(self, tmp_path, *extra):
        return ["jobs", "--spec", self.write_spec(tmp_path), "--serve",
                "--horizon", "2", "--peak-rps", "5", *extra]

    def test_prints_serving_summary(self, tmp_path):
        code, output = run_cli(self.serve_args(tmp_path))
        assert code == 0
        assert "serving:" in output
        assert "requests served" in output
        assert "smoke" in output           # training still ran

    def test_serve_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        code, _ = run_cli(self.serve_args(
            tmp_path, "--trace", str(trace), "--trace-format", "jsonl",
            "--metrics", str(metrics)))
        assert code == 0
        import json
        kinds = {json.loads(line).get("kind")
                 for line in trace.read_text().splitlines()}
        assert "serve" in kinds
        series = [json.loads(line)
                  for line in metrics.read_text().splitlines()]
        names = {s["name"] for s in series}
        assert {"serving.requests", "serving.served",
                "serving.latency_ms"} <= names
        hist = next(s for s in series
                    if s["name"] == "serving.latency_ms")
        assert hist["count"] > 0

    def test_deterministic_output(self, tmp_path):
        first = run_cli(self.serve_args(tmp_path))
        second = run_cli(self.serve_args(tmp_path))
        assert first == second

    def test_bad_flash_crowd_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(self.serve_args(tmp_path,
                                          "--flash-crowd", "20:1"))
        assert code == 2
        assert "flash-crowd" in capsys.readouterr().err

    def test_non_string_crowd_in_job_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "crowd.yaml"
        path.write_text(self.SPEC.replace(
            "  seed: 0\n", "  seed: 0\n  flash_crowds:\n    - 20\n"))
        code, _ = run_cli(["jobs", "--spec", str(path), "--serve",
                           "--horizon", "2", "--peak-rps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad job file: cluster key flash_crowds" in err
        assert "bad flash-crowd spec" in err

    def test_ceiling_below_floor_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(self.serve_args(tmp_path, "--min-replicas", "3",
                                          "--max-replicas", "2"))
        assert code == 2
        assert "bad serving options: max_replicas" in capsys.readouterr().err

    def test_unknown_serve_model_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(self.serve_args(tmp_path, "--serve-model",
                                          "nosuchmodel"))
        assert code == 2
        assert "serve-model" in capsys.readouterr().err


class TestHostileValues:
    """A job file's ``cluster:`` value is checked by the converter of
    the flag of the same option: both refuse the same values, for the
    same reason, and ``repro jobs`` exits 2 either way."""

    JOBS = "jobs:\n  - id: a\n    workload: lenet5_fmnist\n"
    #: (cluster key, value as YAML text and as the flag's argument)
    BOTH = [("socs", "abc"), ("socs", "12.7"), ("socs", "0"),
            ("seed", "abc"), ("seed", "-1"),
            ("peak_sessions_per_hour", "abc"),
            ("peak_sessions_per_hour", "0"),
            ("horizon_hours", "abc"), ("horizon_hours", "0"),
            ("start_hour", "abc"), ("start_hour", "-1"),
            ("quantum_hours", "abc"), ("quantum_hours", "-1"),
            ("fusion_threshold_mb", "abc"), ("fusion_threshold_mb", "nan"),
            ("fusion_max_ops", "2.5"), ("fusion_max_ops", "0"),
            ("flash_crowds", "20:1"), ("flash_crowds", "nan:1:2"),
            ("serve_model", ""),
            ("peak_rps", "abc"), ("peak_rps", "-5"),
            ("max_replicas", "abc"), ("max_replicas", "0"),
            ("slo_ms", "abc"), ("slo_ms", "0"),
            ("min_replicas", "1.5"), ("min_replicas", "-1")]
    #: values only a file can spell (``--graph`` takes no argument; any
    #: ``--serve-model`` argument is text)
    FILE_ONLY = [("graph", "maybe"), ("graph", "2"), ("serve_model", "5")]

    def write_spec(self, tmp_path, key, text):
        value = (f"\n    - {text}" if key == "flash_crowds"
                 else f" {text or repr(text)}")
        path = tmp_path / "hostile.yaml"
        path.write_text(f"cluster:\n  {key}:{value}\n{self.JOBS}")
        return str(path)

    def test_every_cluster_key_is_covered(self):
        from repro.jobs.spec import CLUSTER_KEYS
        keys = [key for key, _ in self.BOTH + self.FILE_ONLY]
        assert set(keys) == CLUSTER_KEYS
        assert all(keys.count(key) >= 2 for key in CLUSTER_KEYS)

    @pytest.mark.parametrize("key,text", BOTH + FILE_ONLY)
    def test_job_file_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                   key, text):
        code, _ = run_cli(["jobs", "--spec",
                           self.write_spec(tmp_path, key, text)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"bad job file: cluster key {key}: ")

    @pytest.mark.parametrize("key,text", BOTH)
    def test_flag_refuses_it_for_the_same_reason(self, tmp_path, capsys,
                                                 key, text):
        from repro.options import OPTIONS
        (flag,) = [option.flag for option in OPTIONS if option.key == key]
        spec = self.write_spec(tmp_path, key, text)
        assert run_cli(["jobs", "--spec", spec])[0] == 2
        file_reason = capsys.readouterr().err.split(
            f"cluster key {key}: ", 1)[1]
        assert run_cli(["jobs", "--spec", spec, f"{flag}={text}"])[0] == 2
        flag_reason = capsys.readouterr().err.split(
            f"argument {flag}: ", 1)[1]
        assert flag_reason == file_reason

    def test_checked_in_hostile_file_exits_2(self, capsys):
        """The file CI schedules to prove a clean refusal."""
        from pathlib import Path
        spec = Path(__file__).with_name("jobs") / "hostile.yaml"
        assert run_cli(["jobs", "--spec", str(spec)])[0] == 2
        assert capsys.readouterr().err.startswith(
            "bad job file: cluster key socs: expected an integer")

    @pytest.mark.parametrize("argv", [
        ["run", "--epochs", "0"], ["run", "--groups", "0"],
        ["run", "--socs", "0"], ["run", "--seed", "-1"],
        ["jobs", "--spec", "jobs.yaml", "--horizon", "0"],
        ["jobs", "--spec", "jobs.yaml", "--quantum", "-1"],
        ["jobs", "--spec", "jobs.yaml", "--serve", "--peak-rps", "-5"],
        ["jobs", "--spec", "jobs.yaml", "--serve", "--flash-crowd",
         "nan:1:2"]], ids=" ".join)
    def test_out_of_range_flag_exits_2_naming_it(self, capsys, argv):
        """Each used to fall back silently (``--epochs 0`` trained the
        preset's epochs, ``--groups 0`` the default count) or end in a
        traceback."""
        assert run_cli(argv)[0] == 2
        assert f"argument {argv[-2]}: " in capsys.readouterr().err


def test_a_tiny_quantum_exits_2_before_the_first_round(tmp_path):
    """``--quantum 0.000001`` (or ``quantum_hours`` in the job file)
    asks for 24 million rounds; it used to run for minutes with no
    output.  Run as a process under a timeout, so a regression fails
    instead of hanging the suite."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spec = root / "examples" / "jobs.yaml"
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text(spec.read_text().replace(
        "cluster:\n", "cluster:\n  quantum_hours: 0.000001\n", 1))
    for argv in (["--spec", str(spec), "--quantum", "0.000001"],
                 ["--spec", str(spec), "--serve", "--quantum", "0.000001"],
                 ["--spec", str(tiny)]):
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "jobs", *argv], env=env,
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("bad scheduler options: "
                                      "quantum_hours 1e-06 makes")


class TestAnalyzeCommand:
    def _traced_run(self, tmp_path, name="run.jsonl", extra=()):
        trace = tmp_path / name
        code, _ = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "2", "--socs", "16",
            "--trace", str(trace), "--trace-format", "jsonl", *extra])
        assert code == 0
        return trace

    def test_report_prints_phase_accounting(self, tmp_path):
        trace = self._traced_run(tmp_path)
        code, output = run_cli(["analyze", "report", str(trace)])
        assert code == 0
        assert "phase accounting" in output
        assert "critical path" in output
        assert "coverage" in output
        assert "epoch 0" in output and "epoch 1" in output

    def test_report_json_format(self, tmp_path):
        trace = self._traced_run(tmp_path)
        code, output = run_cli([
            "analyze", "report", str(trace), "--format", "json"])
        assert code == 0
        import json
        payload = json.loads(output)
        assert payload["windows"]
        assert all(w["coverage"] >= 0.99 for w in payload["windows"]
                   if w.get("epoch") is not None)

    def test_report_markdown_and_out_file(self, tmp_path):
        trace = self._traced_run(tmp_path)
        report = tmp_path / "report.md"
        code, output = run_cli([
            "analyze", "report", str(trace),
            "--format", "markdown", "--out", str(report)])
        assert code == 0
        assert f"-> {report}" in output
        text = report.read_text()
        assert "### per-window phase accounting" in text
        assert text.count("|") > 10

    def test_diff_same_seed_reports_no_significant_change(self, tmp_path):
        a = self._traced_run(tmp_path, "a.jsonl")
        b = self._traced_run(tmp_path, "b.jsonl")
        code, output = run_cli(["analyze", "diff", str(a), str(b)])
        assert code == 0
        assert "no significant wall-clock change" in output

    def test_diff_detects_fault_slowdown(self, tmp_path):
        a = self._traced_run(tmp_path, "clean.jsonl")
        b = self._traced_run(tmp_path, "faulty.jsonl",
                             extra=("--faults", "crash:epoch=1,soc=3"))
        code, output = run_cli(["analyze", "diff", str(a), str(b)])
        assert code == 0
        assert "slower" in output
        assert "recovery" in output

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(["analyze", "report",
                           str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "analyze:" in capsys.readouterr().err

    def test_chrome_trace_rejected_with_hint(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        code, _ = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16", "--trace", str(trace)])
        assert code == 0
        code, _ = run_cli(["analyze", "report", str(trace)])
        assert code == 2
        assert "--trace-format jsonl" in capsys.readouterr().err

    def test_analyze_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_gzip_trace_accepted(self, tmp_path):
        trace = self._traced_run(tmp_path, "run.jsonl.gz")
        code, output = run_cli(["analyze", "report", str(trace)])
        assert code == 0
        assert "phase accounting" in output

    def test_live_summary_printed_for_traced_runs(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16",
            "--trace", str(trace), "--trace-format", "jsonl"])
        assert code == 0
        assert "analysis: bottleneck" in output

    def test_untraced_run_has_no_live_summary(self):
        code, output = run_cli([
            "run", "--workload", "lenet5_fmnist", "--method", "socflow",
            "--epochs", "1", "--socs", "16"])
        assert code == 0
        assert "analysis: bottleneck" not in output


class TestCompareCommand:
    def test_compare_two_methods(self):
        code, output = run_cli([
            "compare", "--workload", "lenet5_fmnist",
            "--methods", "ring,socflow", "--epochs", "1", "--socs", "8"])
        assert code == 0
        assert "ring" in output and "socflow" in output

    def test_unknown_method_fails_cleanly(self):
        code, _ = run_cli([
            "compare", "--workload", "lenet5_fmnist",
            "--methods", "warpdrive", "--epochs", "1"])
        assert code == 2

    @pytest.mark.parametrize("methods", ["ring,warpdrive", ","])
    def test_bad_method_list_exits_2_naming_the_flag(self, methods, capsys):
        """An empty list used to run nothing and exit 0."""
        assert run_cli(["compare", "--methods", methods])[0] == 2
        assert "argument --methods: " in capsys.readouterr().err
