"""Trace diagnosis engine: critical paths, stragglers, run-vs-run diffs.

The telemetry plane (PR 2) records *what happened*; this module answers
the questions the paper actually asks of a run — where does epoch time
go, which SoC/PCB bounds it, and did a knob (``--fusion-*``,
``--graph``, planning, group size) move the needle — mechanically,
without a human eyeballing a Perfetto timeline.

Everything here is pure post-processing over
:class:`~repro.telemetry.tracer.TraceRecord` lists: analysing a live
tracer or a re-loaded JSONL export never touches simulation state, so
traced runs stay byte-identical whether or not they are analysed.

Three stages:

- :func:`analyze_records` / :func:`analyze_trace` — build a
  :class:`TraceReport`: per-epoch critical-path extraction over the
  span timeline (see DESIGN.md "Observability" for the algorithm),
  per-SoC utilisation and straggler skew, per-PCB network health and
  fault cross-references, job-lane summaries for multi-tenant traces.
- :func:`diff_reports` — align two reports epoch-by-epoch and
  phase-by-phase and flag the deltas that clear a significance
  threshold: "did ``--graph``/fusion help" as one comparison.
- :func:`check_health` — scan a report for anomalies (epoch-time
  spikes, sync-fraction regressions, straggler SoCs, degraded PCBs,
  starved jobs) and emit them as structured series into the metrics
  registry.

Determinism: reports iterate records in emission order and every
aggregate is sorted, so the same trace renders the same bytes in every
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PathSegment", "WindowReport", "TraceReport", "TraceDiff",
           "Anomaly", "analyze_records", "analyze_trace",
           "diff_reports", "render_report", "render_diff"]

#: span kinds that tile the simulated wall clock, in attribution
#: priority order: when several kinds cover the same instant (float
#: seams, recovery overlapping a step window), the segment goes to the
#: earlier entry.  ``job`` spans are last — they are coarse per-tenant
#: lanes that only bound the clock in multi-tenant traces.
_PATH_PRIORITY = ("recovery", "checkpoint", "dispatch", "leader_sync",
                  "allreduce", "sync", "update", "compute", "job")
_PATH_RANK = {kind: rank for rank, kind in enumerate(_PATH_PRIORITY)}

#: kinds that deliberately overlap the wall-clock tiling and are
#: accounted off-path: ``bucket_sync`` is the bucketed view of sync
#: (its hidden share rides under compute), ``nic_wait`` is contention
#: attribution *inside* a sync window.
_OFF_PATH_KINDS = frozenset({"bucket_sync", "nic_wait"})

#: kinds with per-SoC attribution that count toward a SoC's busy time
_SOC_BUSY_KINDS = frozenset({"compute", "allreduce", "sync", "leader_sync"})

_EPS = 1e-12


def _overlap(record, start: float, end: float) -> float:
    return max(0.0, min(record.end_s, end) - max(record.ts_s, start))


# ----------------------------------------------------------------------
# Report structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One stretch of the critical path, attributed to a bounding span."""

    start_s: float
    end_s: float
    kind: str
    name: str
    soc: "int | None" = None
    pcb: "int | None" = None
    lg: "int | None" = None
    cg: "int | None" = None
    job: "str | None" = None
    #: how many same-kind spans cover this stretch concurrently (e.g.
    #: 60 SoCs computing in lock-step); the attributed span is the
    #: longest of them — the one that bounds the window.
    width: int = 1

    @property
    def dur_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def where(self) -> str:
        """Human-readable attribution: the chip/group/job that bounds it."""
        parts = []
        if self.job is not None:
            parts.append(f"job {self.job}")
        if self.soc is not None:
            parts.append(f"soc {self.soc}")
        elif self.pcb is not None:
            parts.append(f"pcb {self.pcb}")
        tags = [f"{key}{getattr(self, key)}" for key in ("lg", "cg")
                if getattr(self, key) is not None]
        if tags:
            parts.append("/".join(tags))
        if self.width > 1:
            parts.append(f"x{self.width}")
        return " ".join(parts) if parts else "cluster"

    def to_dict(self) -> dict:
        out = {"start_s": round(self.start_s, 9),
               "dur_s": round(self.dur_s, 9),
               "kind": self.kind, "name": self.name, "width": self.width}
        for key in ("soc", "pcb", "lg", "cg", "job"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass
class WindowReport:
    """One analysed window of the timeline (usually one epoch)."""

    label: str
    epoch: "int | None"
    start_s: float
    end_s: float
    #: merged critical-path segments, in time order
    path: "list[PathSegment]" = field(default_factory=list)
    #: on-path seconds per span kind (sums to ``seconds`` minus gaps)
    phase_seconds: "dict[str, float]" = field(default_factory=dict)
    #: wall seconds no candidate span covers (coverage shortfall)
    unattributed_s: float = 0.0
    #: sync seconds overlapped under compute (busy network, no wall time)
    hidden_sync_s: float = 0.0
    #: per-SoC busy seconds (only strategies that attribute per SoC)
    soc_busy: "dict[int, float]" = field(default_factory=dict)
    accuracy: "float | None" = None
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s

    @property
    def coverage(self) -> float:
        """Share of the window's wall time the phase buckets account for."""
        if self.seconds <= 0:
            return 1.0
        return max(0.0, self.seconds - self.unattributed_s) / self.seconds

    @property
    def hidden_fraction(self) -> float:
        """Comm-hidden share: hidden sync over total busy network time."""
        visible = self.phase_seconds.get("allreduce", 0.0) \
            + self.phase_seconds.get("sync", 0.0)
        total = visible + self.hidden_sync_s
        return self.hidden_sync_s / total if total > 0 else 0.0

    @property
    def bottleneck(self) -> "tuple[str, str]":
        """``(kind, where)`` of the largest on-path contributor."""
        if not self.path:
            return ("idle", "-")
        totals: dict[str, float] = {}
        best: dict[str, PathSegment] = {}
        for segment in self.path:
            totals[segment.kind] = totals.get(segment.kind, 0.0) \
                + segment.dur_s
            if segment.kind not in best \
                    or segment.dur_s > best[segment.kind].dur_s:
                best[segment.kind] = segment
        kind = max(sorted(totals), key=lambda k: totals[k])
        return (kind, best[kind].where)

    @property
    def straggler(self) -> "tuple[int, float] | None":
        """``(slowest SoC, busy skew vs median)`` when attribution exists."""
        if len(self.soc_busy) < 2:
            return None
        busies = sorted(self.soc_busy.values())
        # lower middle, so a straggler in a 2-SoC group still skews
        median = busies[(len(busies) - 1) // 2]
        slowest = min(soc for soc, busy in self.soc_busy.items()
                      if busy == busies[-1])
        if median <= 0:
            return (slowest, 1.0)
        return (slowest, busies[-1] / median)

    def to_dict(self) -> dict:
        kind, where = self.bottleneck
        out = {
            "label": self.label,
            "start_s": round(self.start_s, 9),
            "seconds": round(self.seconds, 9),
            "phase_seconds": {k: round(v, 9)
                              for k, v in sorted(self.phase_seconds.items())},
            "unattributed_s": round(self.unattributed_s, 9),
            "hidden_sync_s": round(self.hidden_sync_s, 9),
            "coverage": round(self.coverage, 6),
            "hidden_fraction": round(self.hidden_fraction, 6),
            "bottleneck": {"kind": kind, "where": where},
            "critical_path": [segment.to_dict() for segment in self.path],
        }
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.accuracy is not None:
            out["accuracy"] = round(self.accuracy, 6)
        straggler = self.straggler
        if straggler is not None:
            out["straggler"] = {"soc": straggler[0],
                                "skew": round(straggler[1], 6)}
        return out


@dataclass
class TraceReport:
    """The full diagnosis of one trace."""

    windows: "list[WindowReport]"
    num_records: int
    kind_counts: "dict[str, int]"
    pcb_health: "dict[int, dict]"
    faults: "list[dict]"
    jobs: "dict[str, dict]"
    #: precision -> graph-executor counters summed over the run's
    #: ``graph_replay`` spans, ``None`` without ``--graph``
    graph_stats: "dict | None" = None
    #: serving-plane rollup (``serve``/``scale`` spans), ``None`` when
    #: the trace has no serving side
    serving: "dict | None" = None
    anomalies: "list[Anomaly]" = field(default_factory=list)

    @property
    def epochs(self) -> "list[WindowReport]":
        return [w for w in self.windows if w.epoch is not None]

    @property
    def total_s(self) -> float:
        if not self.windows:
            return 0.0
        return max(w.end_s for w in self.windows)

    @property
    def phase_totals(self) -> "dict[str, float]":
        totals: dict[str, float] = {}
        for window in self.windows:
            for kind, seconds in window.phase_seconds.items():
                totals[kind] = totals.get(kind, 0.0) + seconds
        return dict(sorted(totals.items()))

    @property
    def hidden_total_s(self) -> float:
        return sum(w.hidden_sync_s for w in self.windows)

    @property
    def coverage(self) -> float:
        total = sum(w.seconds for w in self.windows)
        if total <= 0:
            return 1.0
        covered = sum(w.seconds - w.unattributed_s for w in self.windows)
        return max(0.0, covered) / total

    def to_dict(self) -> dict:
        return {
            "total_s": round(self.total_s, 9),
            "num_records": self.num_records,
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "phase_totals": {k: round(v, 9)
                             for k, v in self.phase_totals.items()},
            "hidden_sync_s": round(self.hidden_total_s, 9),
            "coverage": round(self.coverage, 6),
            "windows": [w.to_dict() for w in self.windows],
            "pcb_health": {str(pcb): stats for pcb, stats
                           in sorted(self.pcb_health.items())},
            "faults": self.faults,
            "jobs": {job: stats for job, stats in sorted(self.jobs.items())},
            "graph_stats": self.graph_stats,
            "serving": self.serving,
            "anomalies": [a.to_dict() for a in self.anomalies],
        }


# ----------------------------------------------------------------------
# Critical-path extraction
# ----------------------------------------------------------------------
def _extract_path(spans, start: float, end: float
                  ) -> "tuple[list[PathSegment], dict[str, float], float]":
    """Tile ``[start, end)`` with the bounding span of each instant.

    The window is cut at every covering span's start/end; each
    elementary segment is attributed to the highest-priority covering
    kind, and within that kind to the longest covering span (the one
    that bounds the lock-step window).  Adjacent segments with the same
    attribution merge.  Returns ``(path, on-path seconds per kind,
    unattributed gap seconds)``.
    """
    spans = [r for r in spans
             if r.ph == "X" and r.kind in _PATH_RANK
             and r.end_s > start + _EPS and r.ts_s < end - _EPS]
    bounds = {start, end}
    for record in spans:
        bounds.add(min(max(record.ts_s, start), end))
        bounds.add(min(max(record.end_s, start), end))
    cuts = sorted(bounds)
    path: list[PathSegment] = []
    phase: dict[str, float] = {}
    gap = 0.0
    # (emission index keeps ties deterministic)
    indexed = list(enumerate(spans))
    for t0, t1 in zip(cuts, cuts[1:]):
        if t1 - t0 <= _EPS:
            continue
        mid = 0.5 * (t0 + t1)
        covering = [(i, r) for i, r in indexed
                    if r.ts_s <= mid + _EPS and r.end_s >= mid - _EPS
                    and r.ts_s < t1 and r.end_s > t0]
        if not covering:
            gap += t1 - t0
            continue
        rank = min(_PATH_RANK[r.kind] for _, r in covering)
        kind = _PATH_PRIORITY[rank]
        same = [(i, r) for i, r in covering if r.kind == kind]
        index, bounding = max(
            same, key=lambda ir: (ir[1].dur_s, -ir[0]))
        phase[kind] = phase.get(kind, 0.0) + (t1 - t0)
        last = path[-1] if path else None
        if last is not None and last.kind == kind \
                and last.name == bounding.name \
                and (last.soc, last.pcb, last.lg, last.cg, last.job) == (
                    bounding.soc, bounding.pcb, bounding.lg,
                    bounding.cg, bounding.job) \
                and abs(last.end_s - t0) <= 1e-9 * max(1.0, abs(t0)):
            path[-1] = PathSegment(
                start_s=last.start_s, end_s=t1, kind=kind,
                name=last.name, soc=last.soc, pcb=last.pcb, lg=last.lg,
                cg=last.cg, job=last.job,
                width=max(last.width, len(same)))
        else:
            path.append(PathSegment(
                start_s=t0, end_s=t1, kind=kind, name=bounding.name,
                soc=bounding.soc, pcb=bounding.pcb, lg=bounding.lg,
                cg=bounding.cg, job=bounding.job, width=len(same)))
    return path, phase, gap


def _hidden_sync(records, start: float, end: float) -> float:
    """Overlapped-sync seconds inside a window, from span annotations.

    Three emitters annotate hidden time differently: ``bucket_sync``
    spans each carry their own hidden share (sum them), per-step
    ``sync`` spans carry the step's hidden share (sum them), and
    SoCFlow's ``allreduce`` spans all repeat the *epoch* total (take
    the max).  The estimators agree where they coexist, so the window's
    hidden time is the largest of the three — never a double count.

    A fully hidden sync is a zero-length span (it never advanced the
    clock) that still carries its ``hidden_s``: it counts in the
    half-open window holding its timestamp — once, never in two.
    """
    bucket = 0.0
    sync = 0.0
    allreduce = 0.0
    for record in records:
        hidden = record.args.get("hidden_s")
        if hidden is None or record.ph != "X":
            continue
        if record.end_s > record.ts_s:
            if _overlap(record, start, end) <= 0:
                continue
        elif not start <= record.ts_s < end:
            continue
        if record.kind == "bucket_sync":
            bucket += hidden
        elif record.kind == "sync":
            sync += hidden
        elif record.kind == "allreduce":
            allreduce = max(allreduce, hidden)
    return max(bucket, sync, allreduce)


def _windows_of(records) -> "list[WindowReport]":
    """Cut the timeline into analysis windows.

    ``epoch`` spans define the windows when present (plus a ``setup``
    window for anything charged before the first epoch — dispatch —
    and a ``tail`` window after the last); traces without epoch markers
    (multi-tenant schedules) analyse as one ``run`` window.
    """
    epochs = [r for r in records if r.kind == "epoch" and r.ph == "X"]
    if not records:
        return []
    t_min = min(r.ts_s for r in records)
    t_max = max(r.end_s for r in records)
    if not epochs:
        return [WindowReport(label="run", epoch=None, start_s=t_min,
                             end_s=t_max)]
    windows: list[WindowReport] = []
    first = min(e.ts_s for e in epochs)
    if first - t_min > 1e-9:
        windows.append(WindowReport(label="setup", epoch=None,
                                    start_s=t_min, end_s=first))
    for index, span in enumerate(sorted(epochs, key=lambda e: e.ts_s)):
        epoch = span.args.get("epoch")
        if epoch is None and span.name.startswith("epoch "):
            try:
                epoch = int(span.name.split()[-1])
            except ValueError:                          # pragma: no cover
                epoch = index
        windows.append(WindowReport(
            label=f"epoch {epoch if epoch is not None else index}",
            epoch=int(epoch) if epoch is not None else index,
            start_s=span.ts_s, end_s=span.end_s,
            accuracy=span.args.get("accuracy"), args=dict(span.args)))
    last = max(e.end_s for e in epochs)
    if t_max - last > 1e-9:
        windows.append(WindowReport(label="tail", epoch=None,
                                    start_s=last, end_s=t_max))
    return windows


# ----------------------------------------------------------------------
# Whole-trace analysis
# ----------------------------------------------------------------------
def analyze_records(records, *, metrics=None) -> TraceReport:
    """Diagnose a list of :class:`TraceRecord`\\ s into a report.

    :func:`check_health` scans the finished report for anomalies; pass
    ``metrics`` to also emit them into a registry as ``health.*``
    series (the live-run hook).
    """
    records = list(records)
    windows = _windows_of(records)
    for window in windows:
        in_window = [r for r in records
                     if r.ph == "X"
                     and _overlap(r, window.start_s, window.end_s) > 0]
        window.path, window.phase_seconds, window.unattributed_s = \
            _extract_path(in_window, window.start_s, window.end_s)
        window.hidden_sync_s = _hidden_sync(
            records, window.start_s, window.end_s)
        busy: dict[int, float] = {}
        for record in in_window:
            if record.soc is not None and record.kind in _SOC_BUSY_KINDS:
                busy[record.soc] = busy.get(record.soc, 0.0) + _overlap(
                    record, window.start_s, window.end_s)
        window.soc_busy = busy

    kind_counts: dict[str, int] = {}
    for record in records:
        kind_counts[record.kind] = kind_counts.get(record.kind, 0) + 1

    pcb_health: dict[int, dict] = {}
    for record in records:
        if record.kind != "nic_wait" or record.pcb is None:
            continue
        stats = pcb_health.setdefault(
            record.pcb, {"wait_s": 0.0, "retries": 0, "degraded": False})
        stats["wait_s"] = round(stats["wait_s"] + record.dur_s, 9)
        stats["retries"] += int(record.args.get("retries", 0))
    faults = []
    for record in records:
        if record.kind != "fault":
            continue
        fault = {"ts_s": round(record.ts_s, 9), "name": record.name,
                 **record.args}
        if record.soc is not None:
            fault["soc"] = record.soc
        if record.pcb is not None:
            fault["pcb"] = record.pcb
        faults.append(fault)
        # a flapping NIC degrades its PCB even before retries appear; a
        # SoC's fault carries its PCB too, but leaves the NIC alone
        if record.pcb is not None and record.soc is None:
            stats = pcb_health.setdefault(
                record.pcb, {"wait_s": 0.0, "retries": 0, "degraded": False})
            stats["degraded"] = True
    for stats in pcb_health.values():
        if stats["retries"]:
            stats["degraded"] = True

    jobs: dict[str, dict] = {}
    for record in records:
        if record.job is None:
            continue
        stats = jobs.setdefault(record.job, {
            "busy_s": 0.0, "queue_wait_s": 0.0, "epochs": 0,
            "preemptions": 0, "resizes": 0, "accuracy": None})
        if record.kind == "job" and record.ph == "X":
            stats["busy_s"] = round(stats["busy_s"] + record.dur_s, 9)
            stats["epochs"] += 1
            if "accuracy" in record.args:
                stats["accuracy"] = record.args["accuracy"]
        elif record.kind == "queue":
            stats["queue_wait_s"] = round(
                stats["queue_wait_s"] + record.dur_s, 9)
        elif record.kind == "preemption":
            stats["preemptions"] += 1
        elif record.kind == "resize":
            stats["resizes"] += 1

    serving = _serving_summary(records)

    report = TraceReport(windows=windows, num_records=len(records),
                         kind_counts=kind_counts, pcb_health=pcb_health,
                         faults=faults, jobs=jobs,
                         graph_stats=_graph_stats(records), serving=serving)
    report.anomalies = check_health(report)
    if metrics is not None and getattr(metrics, "enabled", False):
        emit_anomalies(report.anomalies, metrics)
    return report


#: per-replica executor counters: one ``graph_replay`` span each
_GRAPH_COUNTERS = ("captures", "replays", "eager_steps", "fallbacks")
#: run-wide plan-cache fields: every span of a precision repeats them
_GRAPH_PLAN_FIELDS = ("plans", "binds", "unshared_plans", "workspace_bytes")


def _graph_stats(records) -> "dict | None":
    """``precision -> counters`` over every ``graph_replay`` span.

    Counters sum over the spans (one per replica and precision); the
    plan fields are taken once.
    """
    stats: dict[str, dict] = {}
    for record in records:
        if record.kind != "graph_replay":
            continue
        args = record.args
        total = stats.setdefault(args["precision"], {})
        for key in _GRAPH_COUNTERS:
            total[key] = total.get(key, 0) + args.get(key, 0)
        for key in _GRAPH_PLAN_FIELDS:
            if key in args:
                total[key] = args[key]
    return dict(sorted(stats.items())) or None


def _serving_summary(records) -> "dict | None":
    """Roll ``serve`` check-window spans into the report's serving block.

    Window spans carry their own aggregates (the plane computes them at
    request resolution), so this is pure accumulation — plus the SLO
    violation timeline the health monitor and renderer surface.
    """
    spans = [r for r in records if r.kind == "serve" and r.ph == "X"]
    if not spans:
        return None
    spans = sorted(spans, key=lambda r: r.ts_s)
    totals = {"requests": 0, "served": 0, "dropped": 0}
    violations = []
    p99s = []
    replicas = []
    for span in spans:
        args = span.args
        totals["requests"] += int(args.get("arrivals", 0))
        totals["served"] += int(args.get("served", 0))
        totals["dropped"] += int(args.get("dropped", 0))
        if "replicas" in args:
            replicas.append(int(args["replicas"]))
        if "p99_ms" in args:
            p99s.append(float(args["p99_ms"]))
        if args.get("violation"):
            violations.append({
                "ts_s": round(span.ts_s, 9),
                "p99_ms": args.get("p99_ms"),
                "queue_depth": args.get("queue_depth"),
                "replicas": args.get("replicas"),
            })
    scale_events = sum(1 for r in records if r.kind == "scale")
    return {
        "windows": len(spans),
        **totals,
        "slo_ms": spans[0].args.get("slo_ms"),
        "violation_windows": len(violations),
        "violations": violations,
        "max_p99_ms": max(p99s) if p99s else None,
        "replicas_min": min(replicas) if replicas else 0,
        "replicas_max": max(replicas) if replicas else 0,
        "scale_events": scale_events,
    }


def analyze_trace(path, **kwargs) -> TraceReport:
    """Load a JSONL trace (plain or ``.gz``) and diagnose it."""
    from .export import load_trace_records
    return analyze_records(load_trace_records(path), **kwargs)


# ----------------------------------------------------------------------
# Health monitoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Anomaly:
    """One detected irregularity, ready for the metrics registry."""

    kind: str           # epoch_time_spike / sync_regression / ...
    where: str          # "epoch 3", "soc 7", "pcb 0", "job finetune"
    value: float        # the measured magnitude
    threshold: float    # what it had to exceed to fire
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "where": self.where,
                "value": round(self.value, 6),
                "threshold": round(self.threshold, 6),
                "detail": self.detail}


# Thresholds of the anomaly scan: multiplicative or absolute shares,
# chosen so a healthy homogeneous run emits nothing.
#: an epoch slower than this multiple of the median epoch time
#: (recoveries legitimately cause these — the detail says so when a
#: recovery phase is present)
SPIKE_FACTOR = 1.5
#: an epoch whose visible-sync share exceeds the first epoch's by this
#: many percentage points
SYNC_REGRESSION = 0.10
#: slowest-SoC busy time over the median
STRAGGLER_SKEW = 1.25
#: a job queued for more than this share of the trace duration (or
#: preempted without ever running)
STARVATION_SHARE = 0.25


def check_health(report: TraceReport) -> "list[Anomaly]":
    """Anomaly scan over a :class:`TraceReport`."""
    anomalies: list[Anomaly] = []
    epochs = report.epochs
    if len(epochs) >= 2:
        times = sorted(w.seconds for w in epochs)
        median = times[len(times) // 2]
        baseline_sync = _sync_share(epochs[0])
        for window in epochs:
            if median > 0 and window.seconds > SPIKE_FACTOR * median:
                recovery = window.phase_seconds.get("recovery", 0.0)
                anomalies.append(Anomaly(
                    kind="epoch_time_spike", where=window.label,
                    value=window.seconds / median,
                    threshold=SPIKE_FACTOR,
                    detail=(f"{window.seconds:.3f}s vs median "
                            f"{median:.3f}s"
                            + (f" ({recovery:.3f}s of recovery)"
                               if recovery > 0 else ""))))
            share = _sync_share(window)
            if share - baseline_sync > SYNC_REGRESSION:
                anomalies.append(Anomaly(
                    kind="sync_regression", where=window.label,
                    value=share, threshold=baseline_sync + SYNC_REGRESSION,
                    detail=(f"visible sync share {share:.1%} vs "
                            f"{baseline_sync:.1%} at epoch start")))
    for window in epochs:
        straggler = window.straggler
        if straggler is not None and straggler[1] > STRAGGLER_SKEW:
            anomalies.append(Anomaly(
                kind="straggler_soc",
                where=f"{window.label}: soc {straggler[0]}",
                value=straggler[1], threshold=STRAGGLER_SKEW,
                detail=(f"busy {straggler[1]:.2f}x the median SoC")))
    for pcb, stats in sorted(report.pcb_health.items()):
        if stats["degraded"]:
            anomalies.append(Anomaly(
                kind="degraded_pcb", where=f"pcb {pcb}",
                value=float(stats["retries"]), threshold=0.0,
                detail=(f"{stats['retries']} retries, "
                        f"{stats['wait_s']:.3f}s NIC wait")))
    if report.serving is not None:
        slo = report.serving.get("slo_ms") or 0.0
        for violation in report.serving["violations"]:
            p99 = violation.get("p99_ms")
            anomalies.append(Anomaly(
                kind="slo_violation",
                where=f"serve t={violation['ts_s']:.0f}s",
                value=float(p99 if p99 is not None else 0.0),
                threshold=float(slo),
                detail=(f"p99 {p99:.0f}ms vs SLO {slo:.0f}ms, "
                        if p99 is not None else "backlogged, ")
                + (f"{violation.get('replicas', '?')} replica(s), "
                   f"queue {violation.get('queue_depth', '?')}")))
    horizon = report.total_s
    for job, stats in sorted(report.jobs.items()):
        starved = (horizon > 0 and stats["queue_wait_s"]
                   > STARVATION_SHARE * horizon)
        never_ran = stats["epochs"] == 0 and (
            stats["queue_wait_s"] > 0 or stats["preemptions"] > 0)
        if starved or never_ran:
            anomalies.append(Anomaly(
                kind="starved_job", where=f"job {job}",
                value=stats["queue_wait_s"],
                threshold=STARVATION_SHARE * horizon,
                detail=(f"queued {stats['queue_wait_s']:.0f}s, "
                        f"{stats['epochs']} epoch(s) run")))
    return anomalies


def _sync_share(window: WindowReport) -> float:
    if window.seconds <= 0:
        return 0.0
    visible = window.phase_seconds.get("sync", 0.0) \
        + window.phase_seconds.get("allreduce", 0.0) \
        + window.phase_seconds.get("leader_sync", 0.0)
    return visible / window.seconds


def emit_anomalies(anomalies: "list[Anomaly]", metrics) -> None:
    """Mirror anomalies into the registry as ``health.*`` series."""
    for anomaly in anomalies:
        metrics.counter("health.anomalies", kind=anomaly.kind).inc()
        metrics.gauge("health.value", kind=anomaly.kind,
                      where=anomaly.where).set(anomaly.value)


# ----------------------------------------------------------------------
# Run-vs-run diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseDelta:
    """One aligned quantity across two runs."""

    key: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        base = max(abs(self.a), abs(self.b))
        return self.delta / base if base > 0 else 0.0

    def to_dict(self) -> dict:
        return {"key": self.key, "a": round(self.a, 9),
                "b": round(self.b, 9), "delta": round(self.delta, 9),
                "rel": round(self.rel, 6)}


@dataclass
class TraceDiff:
    """Aligned comparison of two trace reports (A = baseline, B = new)."""

    phases: "list[PhaseDelta]"
    epochs: "list[PhaseDelta]"          # per-epoch wall seconds
    total: PhaseDelta
    hidden: PhaseDelta
    threshold: float
    notes: "list[str]" = field(default_factory=list)

    def significant(self, delta: PhaseDelta) -> bool:
        return abs(delta.rel) >= self.threshold \
            and abs(delta.delta) > 1e-9

    @property
    def significant_phases(self) -> "list[PhaseDelta]":
        return [d for d in self.phases if self.significant(d)]

    @property
    def verdict(self) -> str:
        if not self.significant(self.total):
            return ("no significant wall-clock change "
                    f"(|Δ| < {self.threshold:.0%})")
        direction = "faster" if self.total.delta < 0 else "slower"
        movers = self.significant_phases
        attribution = ", ".join(
            f"{d.key} {d.delta:+.3f}s" for d in sorted(
                movers, key=lambda d: abs(d.delta), reverse=True)[:3])
        return (f"B is {abs(self.total.rel):.1%} {direction} "
                f"({self.total.a:.3f}s -> {self.total.b:.3f}s"
                + (f"; {attribution}" if attribution else "") + ")")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "threshold": self.threshold,
            "total": self.total.to_dict(),
            "hidden_sync": self.hidden.to_dict(),
            "phases": [d.to_dict() for d in self.phases],
            "epochs": [d.to_dict() for d in self.epochs],
            "notes": self.notes,
        }


def diff_reports(a: TraceReport, b: TraceReport,
                 threshold: float = 0.02) -> TraceDiff:
    """Align two reports and flag per-phase deltas beyond ``threshold``.

    Alignment is structural, not positional: phase buckets align by
    span kind, epochs align by epoch index, and job lanes/graph
    counters are compared as notes.  ``threshold`` is the relative
    significance floor — smaller moves are reported but not flagged.
    """
    phases_a, phases_b = a.phase_totals, b.phase_totals
    phases = [PhaseDelta(kind, phases_a.get(kind, 0.0),
                         phases_b.get(kind, 0.0))
              for kind in sorted(set(phases_a) | set(phases_b))]
    epochs_a = {w.epoch: w for w in a.epochs}
    epochs_b = {w.epoch: w for w in b.epochs}
    epochs = [PhaseDelta(f"epoch {epoch}",
                         epochs_a[epoch].seconds if epoch in epochs_a else 0.0,
                         epochs_b[epoch].seconds if epoch in epochs_b else 0.0)
              for epoch in sorted(set(epochs_a) | set(epochs_b))]
    diff = TraceDiff(
        phases=phases, epochs=epochs,
        total=PhaseDelta("total", a.total_s, b.total_s),
        hidden=PhaseDelta("hidden_sync", a.hidden_total_s, b.hidden_total_s),
        threshold=threshold)
    if set(epochs_a) != set(epochs_b):
        diff.notes.append(
            f"epoch count differs: {len(epochs_a)} vs {len(epochs_b)}")
    graph_a, graph_b = a.graph_stats or {}, b.graph_stats or {}
    for precision in sorted(set(graph_a) | set(graph_b)):
        stats_a, stats_b = graph_a.get(precision), graph_b.get(precision)
        if stats_a != stats_b:
            diff.notes.append(
                f"graph executor: A={_graph_note(precision, stats_a)} "
                f"B={_graph_note(precision, stats_b)}")
    retries_a = sum(s["retries"] for s in a.pcb_health.values())
    retries_b = sum(s["retries"] for s in b.pcb_health.values())
    if retries_a != retries_b:
        diff.notes.append(f"network retries: {retries_a} vs {retries_b}")
    recov_a = a.kind_counts.get("recovery", 0)
    recov_b = b.kind_counts.get("recovery", 0)
    if recov_a != recov_b:
        diff.notes.append(f"recovery steps: {recov_a} vs {recov_b}")
    if a.jobs or b.jobs:
        for job in sorted(set(a.jobs) | set(b.jobs)):
            sa = a.jobs.get(job, {}).get("busy_s", 0.0)
            sb = b.jobs.get(job, {}).get("busy_s", 0.0)
            delta = PhaseDelta(f"job {job}", sa, sb)
            if diff.significant(delta):
                diff.notes.append(
                    f"job {job}: busy {sa:.1f}s vs {sb:.1f}s")
    return diff


def _graph_note(precision: str, stats: "dict | None") -> str:
    """One precision's executor counters (``_graph_stats``)."""
    if not stats:
        return "off"
    note = (f"on ({stats['replays']} replays, {stats['captures']} captures, "
            f"{stats['eager_steps']} eager)")
    if "plans" in stats:
        # run-wide: the precision's replicas share plans
        note += (f"; all {precision} replicas: plans {stats['plans']} "
                 f"(unshared {stats.get('unshared_plans', 0)}), "
                 f"binds {stats.get('binds', 0)}, workspace "
                 f"{stats.get('workspace_bytes', 0) / 2**20:.1f} MiB")
    return note


# ----------------------------------------------------------------------
# Rendering (table / markdown / json)
# ----------------------------------------------------------------------
_FORMATS = ("table", "json", "markdown")


def _render_blocks(blocks, fmt: str) -> str:
    """Render ``[(title, headers, rows) | str]`` blocks in one format."""
    from ..harness.reporting import format_table
    if fmt not in ("table", "markdown"):
        raise ValueError(f"unknown format {fmt!r}; expected {_FORMATS}")
    out: list[str] = []
    for block in blocks:
        if isinstance(block, str):
            out.append(block)
            continue
        title, headers, rows = block
        if fmt == "markdown":
            out.append(f"### {title}")
            out.append(_markdown_table(headers, rows))
        else:
            out.append(f"[{title}]")
            out.append(format_table(headers, rows))
    return "\n".join(out) + "\n"


def _markdown_table(headers, rows) -> str:
    from ..harness.reporting import _cell
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join([" --- "] * len(headers)) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
    return "\n".join(lines)


def _phase_columns(report: TraceReport) -> "list[str]":
    ordered = [k for k in _PATH_PRIORITY if k in report.phase_totals]
    return ordered + sorted(set(report.phase_totals) - set(ordered))


def render_report(report: TraceReport, fmt: str = "table",
                  top: int = 8) -> str:
    """The ``analyze report`` view of one trace."""
    if fmt == "json":
        import json
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    blocks: list = []
    epochs = report.epochs
    blocks.append(
        f"trace: {report.num_records} records, {report.total_s:.3f} "
        f"simulated seconds, {len(epochs)} epoch(s), "
        f"coverage {report.coverage:.1%}")

    phase_cols = _phase_columns(report)
    rows = []
    for window in report.windows:
        kind, where = window.bottleneck
        rows.append([window.label, window.seconds]
                    + [window.phase_seconds.get(k, 0.0) for k in phase_cols]
                    + [window.hidden_sync_s, f"{window.coverage:.1%}",
                       f"{kind} ({where})"])
    blocks.append(("per-window phase accounting (seconds)",
                   ["window", "seconds"] + phase_cols
                   + ["hidden", "coverage", "bottleneck"], rows))

    slowest = max(epochs or report.windows, default=None,
                  key=lambda w: w.seconds)
    if slowest is not None and slowest.path:
        segments = slowest.path
        shown = sorted(segments, key=lambda s: s.dur_s,
                       reverse=True)[:top]
        shown = sorted(shown, key=lambda s: s.start_s)
        rows = [[f"{s.start_s:.3f}", s.dur_s, s.kind, s.name, s.where]
                for s in shown]
        title = (f"critical path of {slowest.label} "
                 f"({slowest.seconds:.3f}s"
                 + (f", top {top} of {len(segments)} segments"
                    if len(segments) > top else "") + ")")
        blocks.append((title, ["t_start", "seconds", "kind", "span",
                               "where"], rows))

    stragglers = [(w, w.straggler) for w in epochs
                  if w.straggler is not None]
    if stragglers:
        rows = [[w.label, s[0], s[1],
                 max(w.soc_busy.values()),
                 sorted(w.soc_busy.values())[(len(w.soc_busy) - 1) // 2]]
                for w, s in stragglers]
        blocks.append(("straggler skew (slowest SoC vs median)",
                       ["window", "slowest_soc", "skew", "busy_s",
                        "median_s"], rows))

    if report.pcb_health:
        rows = [[pcb, stats["wait_s"], stats["retries"],
                 "yes" if stats["degraded"] else "no"]
                for pcb, stats in sorted(report.pcb_health.items())]
        blocks.append(("network health", ["pcb", "nic_wait_s", "retries",
                                          "degraded"], rows))
    if report.faults:
        rows = [[f["ts_s"], f["name"],
                 ", ".join(f"{k}={v}" for k, v in sorted(f.items())
                           if k not in ("ts_s", "name"))]
                for f in report.faults]
        blocks.append(("fault events", ["ts_s", "fault", "detail"], rows))
    if report.jobs:
        rows = [[job, stats["epochs"], stats["busy_s"],
                 stats["queue_wait_s"], stats["preemptions"],
                 stats["resizes"],
                 "" if stats["accuracy"] is None
                 else f"{stats['accuracy']:.1%}"]
                for job, stats in sorted(report.jobs.items())]
        blocks.append(("job lanes", ["job", "epochs", "busy_s", "queued_s",
                                     "preempts", "resizes", "accuracy"],
                       rows))
    if report.serving is not None:
        serving = report.serving
        rows = [[serving["windows"], serving["requests"], serving["served"],
                 serving["dropped"],
                 f"{serving['replicas_min']}-{serving['replicas_max']}",
                 "" if serving["max_p99_ms"] is None
                 else f"{serving['max_p99_ms']:.0f}",
                 "" if serving["slo_ms"] is None
                 else f"{serving['slo_ms']:.0f}",
                 serving["violation_windows"], serving["scale_events"]]]
        blocks.append(("serving plane",
                       ["windows", "requests", "served", "dropped",
                        "replicas", "max_p99_ms", "slo_ms", "violations",
                        "scale_events"], rows))
    for precision, stats in (report.graph_stats or {}).items():
        blocks.append("graph executor: " + _graph_note(precision, stats))
    if report.anomalies:
        rows = [[a.kind, a.where, a.value, a.detail]
                for a in report.anomalies]
        blocks.append(("anomalies", ["kind", "where", "value", "detail"],
                       rows))
    else:
        blocks.append("anomalies: none")
    return _render_blocks(blocks, fmt)


def render_diff(diff: TraceDiff, fmt: str = "table") -> str:
    """The ``analyze diff`` view of two traces (A = baseline, B = new)."""
    if fmt == "json":
        import json
        return json.dumps(diff.to_dict(), indent=2, sort_keys=True) + "\n"
    blocks: list = [f"verdict: {diff.verdict}"]
    rows = [[d.key, d.a, d.b, d.delta, f"{d.rel:+.1%}",
             "*" if diff.significant(d) else ""]
            for d in [diff.total, diff.hidden] + diff.phases]
    blocks.append(("per-phase wall seconds (A vs B)",
                   ["phase", "A", "B", "delta", "rel", "sig"], rows))
    if diff.epochs:
        rows = [[d.key, d.a, d.b, d.delta, f"{d.rel:+.1%}",
                 "*" if diff.significant(d) else ""]
                for d in diff.epochs]
        blocks.append(("per-epoch wall seconds",
                       ["epoch", "A", "B", "delta", "rel", "sig"], rows))
    for note in diff.notes:
        blocks.append(f"note: {note}")
    return _render_blocks(blocks, fmt)


def render_live_summary(report: TraceReport) -> str:
    """The compact bottleneck report a ``--trace`` run prints at exit."""
    lines = []
    epochs = report.epochs or report.windows
    if not epochs:
        return "analysis: empty trace"
    slowest = max(epochs, key=lambda w: w.seconds)
    kind, where = slowest.bottleneck
    lines.append(
        f"analysis: bottleneck {kind} ({where}) in {slowest.label} "
        f"[{slowest.seconds:.3f}s of {report.total_s:.3f}s total]; "
        f"comm hidden {slowest.hidden_fraction:.0%}, "
        f"coverage {report.coverage:.1%}")
    for anomaly in report.anomalies[:5]:
        lines.append(f"analysis: anomaly {anomaly.kind} at {anomaly.where} "
                     f"({anomaly.detail})")
    if len(report.anomalies) > 5:
        lines.append(f"analysis: ... {len(report.anomalies) - 5} more "
                     "anomalies (run `repro analyze report` on the trace)")
    return "\n".join(lines)
