"""Output checks of the claims benchmark.

Every function returns a list of ``{"name", "ok", "detail"}`` records.
The runner counts each as one attempted operation, a failing one as a
failed operation, and exits non-zero when any fails — a benchmark
number from a run whose outputs are wrong is not a number.

The cross-run check (:func:`diff_exact`) is what makes the simulated
clock a contract: two runs of one workload with one seed must agree on
every deterministic output, bit for bit.
"""

from __future__ import annotations

import math

__all__ = ["check_training", "check_trace", "check_jobs", "check_serving",
           "diff_exact"]

#: the analysis engine's own floor (benchmarks/test_ext_analysis.py)
MIN_COVERAGE = 0.99


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": "" if ok else detail}


def _finite_accuracies(values) -> bool:
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def check_training(result, config, graph_stats: dict) -> "list[dict]":
    """One ``SoCFlow.train`` result against its config."""
    history = result.accuracy_history
    advanced = (sum(result.breakdown.values())
                - result.extra["sync_hidden_s"])
    checks = [
        _check("epochs_completed", result.epochs_run == config.max_epochs,
               f"{result.epochs_run} of {config.max_epochs} epochs ran"),
        _check("accuracies_finite", _finite_accuracies(history),
               f"accuracy history {history}"),
        # hidden sync is busy time that never advanced the wall clock,
        # so the phase totals minus it must be the elapsed time
        _check("sim_clock_conserved",
               math.isclose(advanced, result.sim_time_s, rel_tol=1e-9),
               f"phases-hidden={advanced!r} vs clock={result.sim_time_s!r}"),
        _check("energy_positive", result.energy.total_kj > 0.0,
               f"energy {result.energy.total_kj!r} kJ"),
    ]
    if config.graph:
        for precision in ("fp32", "int8"):
            stats = graph_stats.get(precision, {})
            checks.append(_check(
                f"graph_{precision}_replayed_without_fallback",
                stats.get("replays", 0) > 0
                and stats.get("fallbacks", 0) == 0,
                f"{precision} graph stats {stats}"))
    if config.fault_schedule is not None:
        checks.append(_check(
            "recovered_from_crash", len(result.extra["recoveries"]) >= 1,
            "fault schedule carries a crash but no recovery ran"))
    return checks


def check_trace(report, rendered: str, num_recorded: int) -> "list[dict]":
    """The exported ``.jsonl.gz`` as read back by ``analyze_trace``."""
    return [
        _check("trace_round_trip", report.num_records == num_recorded,
               f"{report.num_records} records loaded, "
               f"{num_recorded} recorded"),
        _check("trace_coverage", report.coverage >= MIN_COVERAGE,
               f"critical-path coverage {report.coverage:.4f} "
               f"< {MIN_COVERAGE}"),
        _check("trace_report_rendered", "coverage" in rendered,
               "markdown report is missing its summary line"),
    ]


def check_jobs(records) -> "list[dict]":
    """Every admitted job ran all its epochs inside its deadline."""
    checks = []
    for record in records:
        done = (record.status == "completed"
                and record.epochs_done == record.job.epochs)
        checks.append(_check(
            f"job_{record.job.id}_completed", done,
            f"status {record.status}, {record.epochs_done} of "
            f"{record.job.epochs} epochs"))
    checks.append(_check(
        "job_accuracies_finite",
        _finite_accuracies(r.final_accuracy for r in records),
        f"{[r.final_accuracy for r in records]}"))
    return checks


def check_serving(serving: dict) -> "list[dict]":
    """Request conservation and a usable latency summary."""
    resolved = (serving["served"] + serving["dropped"]
                + serving["queued_at_end"])
    p99 = serving["max_p99_ms"]
    return [
        _check("requests_conserved", serving["requests"] == resolved,
               f"{serving['requests']} arrived, {resolved} served+shed+queued"),
        _check("serve_p99_finite", p99 is not None and math.isfinite(p99),
               f"worst-window p99 {p99!r}"),
        _check("serve_windows_cover_day", serving["windows"] == 96,
               f"{serving['windows']} check windows in 24 h at 15 min"),
    ]


def diff_exact(first, other, path: str = "") -> "list[str]":
    """Paths at which two ``exact`` outputs differ (``[]`` when equal)."""
    if isinstance(first, dict) and isinstance(other, dict):
        diffs = []
        for key in sorted(set(first) | set(other)):
            where = f"{path}.{key}" if path else str(key)
            if key not in first or key not in other:
                diffs.append(where)
            else:
                diffs += diff_exact(first[key], other[key], where)
        return diffs
    if isinstance(first, list) and isinstance(other, list):
        if len(first) != len(other):
            return [f"{path}[len]"]
        diffs = []
        for index, (a, b) in enumerate(zip(first, other)):
            diffs += diff_exact(a, b, f"{path}[{index}]")
        return diffs
    return [] if first == other else [path]
