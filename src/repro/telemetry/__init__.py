"""Cluster-wide telemetry: tracing, metrics and exporters.

- :mod:`tracer` — typed spans/events on the simulated clock with
  SoC/PCB/LG/CG attribution (:class:`Tracer`), and the zero-overhead
  :class:`NullTracer` default.
- :mod:`metrics` — :class:`MetricsRegistry` of labeled counters,
  gauges and histograms with percentile summaries.
- :mod:`context` — the :class:`Telemetry` bundle threaded through
  ``RunConfig`` into every layer of the simulator.
- :mod:`export` — Chrome-trace JSON (one process per PCB, one thread
  per SoC), JSONL event logs (plain or ``.gz``) with a loader, and the
  per-epoch table.
- :mod:`analysis` — the trace diagnosis engine: per-epoch critical
  paths, straggler/bottleneck attribution, run-vs-run diffing and
  health monitors (DESIGN.md "Observability").
"""

from .analysis import (Anomaly, TraceDiff, TraceReport,
                       analyze_records, analyze_trace, diff_reports,
                       render_diff, render_report)
from .context import NULL_TELEMETRY, Telemetry
from .export import (load_trace_records, open_text, render_epoch_table,
                     to_chrome_trace, to_jsonl, write_chrome_trace,
                     write_jsonl, write_trace)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NullMetricsRegistry)
from .tracer import SPAN_KINDS, NullTracer, TraceRecord, Tracer

__all__ = [
    "Telemetry", "NULL_TELEMETRY",
    "Tracer", "NullTracer", "TraceRecord", "SPAN_KINDS",
    "MetricsRegistry", "NullMetricsRegistry", "Counter", "Gauge",
    "Histogram",
    "to_chrome_trace", "to_jsonl", "write_chrome_trace", "write_jsonl",
    "write_trace", "load_trace_records", "open_text",
    "render_epoch_table",
    "TraceReport", "TraceDiff", "Anomaly",
    "analyze_records", "analyze_trace", "diff_reports",
    "render_report", "render_diff",
]
