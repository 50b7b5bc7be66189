"""Exporters: Chrome trace mapping, JSONL, human-readable tables."""

import json

import pytest

from repro.cluster import ClusterTopology
from repro.telemetry import (MetricsRegistry, Tracer, render_epoch_table,
                             to_chrome_trace, to_jsonl, write_trace)


def _sample_tracer():
    tracer = Tracer(topology=ClusterTopology(num_socs=16))
    tracer.span("compute", 0.0, 2.0, soc=9, lg=1, steps=4)
    tracer.span("nic_wait", 2.0, 0.5, pcb=0, link_bytes=1024)
    tracer.span("recovery", 2.5, 1.0, name="recovery@1")
    tracer.event("fault", 2.5, name="fault:crash", soc=9)
    return tracer


class TestChromeTrace:
    def test_pid_tid_mapping(self):
        trace = to_chrome_trace(_sample_tracer())
        events = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        compute, nic, recovery, fault = events
        topo = ClusterTopology(num_socs=16)
        # SoC 9 lives on its PCB's process, thread soc+1
        assert compute["pid"] == topo.pcb_of(9) + 1
        assert compute["tid"] == 10
        # PCB-only records land on the NIC lane (tid 0)
        assert nic["pid"] == 1 and nic["tid"] == 0
        # unattributed records go to the cluster process
        assert recovery["pid"] == 0
        assert fault["ph"] == "i" and fault["s"] == "g"

    def test_microsecond_timestamps(self):
        trace = to_chrome_trace(_sample_tracer())
        compute = next(e for e in trace["traceEvents"]
                       if e.get("cat") == "compute")
        assert compute["ts"] == 0.0
        assert compute["dur"] == 2_000_000.0

    def test_process_and_thread_metadata(self):
        trace = to_chrome_trace(_sample_tracer())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e.get("pid"), e.get("tid")): e["args"]["name"]
                 for e in meta if "name" in e["args"]}
        assert names[("process_name", 0, None)] == "cluster"
        assert names[("thread_name", 1, 0)] == "NIC"
        pcb9 = ClusterTopology(num_socs=16).pcb_of(9)
        assert names[("process_name", pcb9 + 1, None)] == f"PCB {pcb9}"
        assert names[("thread_name", pcb9 + 1, 10)] == "SoC 9"

    def test_args_carry_attribution_and_kwargs(self):
        trace = to_chrome_trace(_sample_tracer())
        compute = next(e for e in trace["traceEvents"]
                       if e.get("cat") == "compute")
        assert compute["args"] == {"steps": 4, "lg": 1}


class TestJsonl:
    def test_emission_order_and_valid_json(self):
        lines = to_jsonl(_sample_tracer()).splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["compute", "nic_wait", "recovery", "fault"]

    def test_write_trace_dispatch(self, tmp_path):
        tracer = _sample_tracer()
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        write_trace(tracer, chrome, fmt="chrome")
        write_trace(tracer, jsonl, fmt="jsonl")
        assert "traceEvents" in json.loads(chrome.read_text())
        assert len(jsonl.read_text().splitlines()) == 4
        with pytest.raises(ValueError):
            write_trace(tracer, tmp_path / "t.x", fmt="xml")


class TestEpochTable:
    def test_drops_all_none_columns(self):
        rows = [{"epoch": 0, "seconds": 1.5, "compute_s": 1.0,
                 "sync_s": 0.5, "update_s": 0.01, "recovery_s": None,
                 "accuracy": 0.5, "alpha": None, "retries": 0}]
        out = render_epoch_table(rows)
        assert "recovery" not in out and "alpha" not in out
        assert "epoch" in out and "sync" in out

    def test_recovery_column_appears_when_present(self):
        rows = [{"epoch": 0, "seconds": 1.0, "recovery_s": None},
                {"epoch": 1, "seconds": 9.0, "recovery_s": 3.0}]
        out = render_epoch_table(rows)
        assert "recovery" in out

    def test_empty(self):
        assert "no epochs" in render_epoch_table([])


class TestTableEdgeCases:
    """Renderer edge cases: empty, zero-duration, long labels, alignment."""

    def test_zero_duration_epochs(self):
        rows = [{"epoch": 0, "seconds": 0.0, "compute_s": 0.0,
                 "sync_s": 0.0, "accuracy": 0.1},
                {"epoch": 1, "seconds": 2.5, "compute_s": 2.0,
                 "sync_s": 0.5, "accuracy": 0.2}]
        out = render_epoch_table(rows)
        # zero floats render as "0", not "" or "0.000"
        zero_row = out.splitlines()[2]
        assert zero_row.split() == ["0", "0", "0", "0", "0.1"]

    def test_long_labels_widen_columns_consistently(self):
        from repro.harness.reporting import format_table
        long_name = "subsystem.component.metric_with_a_very_long_name"
        out = format_table(["metric", "labels", "value", "detail"],
                           [[long_name, "shard=rack-0/pcb-11/soc-59", 7, ""],
                            ["x", "", 1, ""]])
        lines = out.splitlines()
        assert long_name in out and "rack-0/pcb-11/soc-59" in out
        # every line is padded to the same width
        assert len({len(line) for line in lines}) == 1

    def test_numeric_columns_right_aligned(self):
        from repro.harness.reporting import format_table
        out = format_table(["name", "value"],
                           [["a", 1.0], ["bbbb", 12345.0]])
        # numbers right-aligned: every value line ends at the same column
        lines = out.splitlines()
        width = len(lines[0])
        assert all(len(line) == width for line in lines)
        assert lines[2].endswith("1") and lines[3].endswith("12,345.0")
        assert not lines[2].endswith(" ")

    def test_mixed_column_stays_left_aligned(self):
        from repro.harness.reporting import format_table
        out = format_table(["k", "v"], [["a", 1.0], ["b", "n/a"]])
        lines = out.splitlines()
        assert lines[2].startswith("a  1")      # value not right-padded

    def test_empty_metrics_and_epochs(self):
        assert MetricsRegistry().collect() == []
        assert render_epoch_table([]) == "(no epochs recorded)"

    def test_epoch_table_all_rows_equal_width(self):
        rows = [{"epoch": 0, "seconds": 1.0,
                 "accuracy": 0.123456789},
                {"epoch": 100000, "seconds": 123456.789,
                 "accuracy": 1.0}]
        lines = render_epoch_table(rows).splitlines()
        assert len({len(line) for line in lines}) == 1
