"""Trace/metrics exporters.

Three views of one run's telemetry:

- :func:`to_chrome_trace` — a ``chrome://tracing`` / Perfetto-compatible
  JSON object: one *process* per PCB, one *thread* per SoC, plus a
  ``cluster`` process for control-board work (dispatch, recovery,
  epoch markers) and — when records carry a ``job`` label — a ``jobs``
  process with one thread per training job, so concurrent jobs in a
  multi-tenant schedule render on distinguishable rows.  Open the
  written file directly in Perfetto.
- :func:`to_jsonl` — one JSON object per trace record, in emission
  order.  Deterministic byte-for-byte for a fixed seed + fault spec.
- :func:`render_epoch_table` — the human-readable per-epoch summary,
  built on the harness's :func:`~repro.harness.reporting.format_table`
  renderer.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib

__all__ = ["to_chrome_trace", "write_chrome_trace", "to_jsonl",
           "write_jsonl", "write_trace", "load_trace_records",
           "open_text", "render_epoch_table"]


def open_text(path, mode: str = "r"):
    """Open ``path`` for text I/O, transparently gzipped for ``*.gz``.

    Written gzip members carry ``mtime=0`` and no embedded filename, so
    two identical exports produce byte-identical ``.gz`` files — the
    same determinism contract the plain-text writers honour.
    """
    if not str(path).endswith(".gz"):
        return open(path, mode)
    if "w" in mode:
        raw = gzip.GzipFile(filename="", mode="wb", fileobj=open(path, "wb"),
                            mtime=0)
        return io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    return io.TextIOWrapper(gzip.GzipFile(filename=str(path), mode="rb"),
                            encoding="utf-8")

#: pid of the control-board/cluster-level process in Chrome traces;
#: PCB ``k`` gets pid ``k + 1``.
_CLUSTER_PID = 0
#: tid for records attributed to a PCB but no specific SoC (NIC lanes)
_NIC_TID = 0
#: pid of the per-job lane process (multi-tenant schedules); chosen far
#: above any realistic PCB count so its sort index puts it last.
_JOBS_PID = 1000


def _pid_tid(record, job_tids: dict) -> tuple[int, int]:
    if record.job is not None and record.pcb is None:
        tid = job_tids.setdefault(record.job, len(job_tids) + 1)
        return _JOBS_PID, tid
    if record.pcb is None:
        return _CLUSTER_PID, 0
    pid = record.pcb + 1
    tid = record.soc + 1 if record.soc is not None else _NIC_TID
    return pid, tid


def to_chrome_trace(tracer) -> dict:
    """Convert a tracer's records to the Chrome trace-event format."""
    events: list[dict] = []
    seen_pids: dict[int, str] = {}
    seen_tids: dict[tuple[int, int], str] = {}
    job_tids: dict[str, int] = {}
    for record in tracer.records:
        pid, tid = _pid_tid(record, job_tids)
        if pid not in seen_pids:
            seen_pids[pid] = ("cluster" if pid == _CLUSTER_PID
                              else "jobs" if pid == _JOBS_PID
                              else f"PCB {pid - 1}")
        if (pid, tid) not in seen_tids:
            if pid == _JOBS_PID:
                name = str(record.job)
            elif pid == _CLUSTER_PID:
                name = "scheduler"
            elif tid == _NIC_TID:
                name = "NIC"
            else:
                name = f"SoC {tid - 1}"
            seen_tids[(pid, tid)] = name
        args = dict(record.args)
        for key in ("lg", "cg", "job"):
            value = getattr(record, key)
            if value is not None:
                args[key] = value
        event = {
            "name": record.name,
            "cat": record.kind,
            "ph": record.ph,
            "ts": round(record.ts_s * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if record.ph == "X":
            event["dur"] = round(record.dur_s * 1e6, 3)
        else:
            event["s"] = "g"        # instants are global-scope markers
        if args:
            event["args"] = args
        events.append(event)

    metadata: list[dict] = []
    for pid, name in sorted(seen_pids.items()):
        metadata.append({"ph": "M", "pid": pid, "name": "process_name",
                         "args": {"name": name}})
        metadata.append({"ph": "M", "pid": pid, "name": "process_sort_index",
                         "args": {"sort_index": pid}})
    for (pid, tid), name in sorted(seen_tids.items()):
        metadata.append({"ph": "M", "pid": pid, "tid": tid,
                         "name": "thread_name", "args": {"name": name}})
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer, path) -> None:
    with open_text(path, "w") as fh:
        json.dump(to_chrome_trace(tracer), fh, sort_keys=True)
        fh.write("\n")


def to_jsonl(tracer) -> str:
    """One JSON object per record, in emission order."""
    return "\n".join(json.dumps(record.to_dict(), sort_keys=True)
                     for record in tracer.records)


def write_jsonl(tracer, path) -> None:
    with open_text(path, "w") as fh:
        fh.write(to_jsonl(tracer))
        fh.write("\n")


def write_trace(tracer, path, fmt: str = "chrome") -> None:
    """Write ``tracer`` to ``path`` in ``fmt`` ('chrome' or 'jsonl').

    Paths ending in ``.gz`` are gzip-compressed transparently (large
    traced runs shrink by an order of magnitude); the analysis loader
    (:func:`load_trace_records`) reads either form back.
    """
    if fmt == "chrome":
        write_chrome_trace(tracer, path)
    elif fmt == "jsonl":
        write_jsonl(tracer, path)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def load_trace_records(path) -> "list":
    """Load the :class:`~repro.telemetry.tracer.TraceRecord` list back
    from a JSONL trace file (plain or ``.gz``).

    The loader is the inverse of :func:`write_jsonl` — records round-trip
    exactly, so re-exporting a loaded trace is byte-identical to the
    original file.  Chrome-format traces are rejected with a pointer at
    ``--trace-format jsonl``: the Chrome view flattens the typed record
    structure the analysis engine needs.
    """
    from .tracer import TraceRecord
    records = []
    try:
        with open_text(path, "r") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ValueError(
                        f"{path}:{lineno}: not valid JSON ({err})") from None
                if lineno == 1 and "traceEvents" in payload:
                    raise ValueError(
                        f"{path} is a Chrome-format trace; analysis needs "
                        "the typed JSONL log — re-run with --trace-format "
                        "jsonl")
                records.append(TraceRecord.from_dict(payload))
    except (EOFError, zlib.error) as err:
        # a gzip stream cut short or damaged: the file, not a traceback
        raise ValueError(
            f"{path}: truncated or corrupt gzip stream ({err})") from None
    return records


# ----------------------------------------------------------------------
# Human-readable tables
# ----------------------------------------------------------------------
_EPOCH_COLUMNS = [("epoch", "epoch"), ("seconds", "seconds"),
                  ("compute_s", "compute"), ("sync_s", "sync"),
                  ("hidden_s", "hidden"),
                  ("update_s", "update"), ("recovery_s", "recovery"),
                  ("accuracy", "accuracy"), ("alpha", "alpha"),
                  ("retries", "retries")]


def render_epoch_table(epoch_rows) -> str:
    """The per-epoch report: phase breakdown + accuracy + alpha.

    ``epoch_rows`` come from :meth:`Telemetry.record_epoch`; columns
    whose value no row carries are dropped, so strategies that never
    report alpha or recovery get a compact table.
    """
    from ..harness.reporting import format_table
    if not epoch_rows:
        return "(no epochs recorded)"
    columns = [(key, header) for key, header in _EPOCH_COLUMNS
               if any(row.get(key) is not None for row in epoch_rows)]
    headers = [header for _, header in columns]
    rows = [[row.get(key, "") if row.get(key) is not None else ""
             for key, _ in columns] for row in epoch_rows]
    return format_table(headers, rows)
