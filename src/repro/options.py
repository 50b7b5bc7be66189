"""Every option of every ``repro`` command, declared once.

A row of :data:`OPTIONS` names one flag, the ``cluster:`` key a job file
sets it with (if any), the converter that parses and range-checks a
value (a flag's text or a job file's scalar alike), its default for each
command that takes it, and its help.  ``repro.cli`` makes the flags from
the rows, ``repro.jobs.spec`` derives ``CLUSTER_KEYS`` from them and
converts each ``cluster:`` value, and :func:`resolve` settles every
value once: the flag, else the job file, else the declared default.

This module imports no other ``repro`` module at import time
(``repro.jobs.spec`` imports it): the choice lists and the flash-crowd
converter import what they read when called.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from importlib import import_module
from types import SimpleNamespace
from typing import Callable

__all__ = ["Option", "OPTIONS", "BadValue", "options_for", "resolve",
           "methods"]


class BadValue(argparse.ArgumentTypeError, ValueError):
    """A value an option refuses; argparse prints the reason as is."""


def _bounded(kind, floor: float, strict: bool = False) -> Callable:
    """Converter to a finite ``kind`` >= ``floor`` (> with ``strict``);
    a file's bool is no number, nor its float an integer."""
    numbers = (int,) if kind is int else (int, float)

    def convert(value):
        number = None
        if isinstance(value, str) or (isinstance(value, numbers)
                                      and not isinstance(value, bool)):
            try:
                number = kind(value)
            except ValueError:
                pass
        if number is None or not math.isfinite(number):
            expected = "an integer" if kind is int else "a finite number"
            raise BadValue(f"expected {expected}, got {value}")
        if number < floor or (strict and number == floor):
            raise BadValue(
                f"must be {'>' if strict else '>='} {floor}, got {number}")
        return number
    return convert


positive_int = _bounded(int, 1)
non_negative_int = _bounded(int, 0)
positive_float = _bounded(float, 0, strict=True)
non_negative_float = _bounded(float, 0)


def strict_bool(value) -> bool:
    if not isinstance(value, bool):
        raise BadValue(f"expected true or false, got {value}")
    return value


def text(value) -> str:
    if not isinstance(value, str) or not value:
        raise BadValue(f"expected a name, got {value!r}")
    return value


def static_window(value) -> "tuple[float, float]":
    """``'22:8'`` -> (start hour 22.0, duration 8.0 h)."""
    start, sep, hours = value.partition(":")
    try:
        if sep:
            return _bounded(float, -math.inf)(start), positive_float(hours)
    except BadValue:
        pass
    raise BadValue(f"expected START:HOURS, got {value!r}")


def flash_crowd(value):
    """``START:DUR:MULT`` -> :class:`~repro.serving.arrivals.FlashCrowd`."""
    from .serving.arrivals import FlashCrowd
    try:
        return FlashCrowd.parse(value)
    except ValueError as err:
        raise BadValue(str(err)) from None


def _names(module: str, registry: str, *extra: str) -> Callable:
    """The sorted names of ``repro.<module>.<registry>`` (and ``extra``),
    read when asked."""
    return lambda: sorted(getattr(import_module(f"repro.{module}"),
                                  registry)) + list(extra)


workloads = _names("harness", "WORKLOADS")
presets = _names("harness", "SCALE_PRESETS")
methods = _names("distributed", "STRATEGY_REGISTRY", "socflow")


def method_list(value) -> "list[str]":
    """``'ring,socflow'`` -> the named methods, at least one, all known."""
    names = [name.strip() for name in value.split(",") if name.strip()]
    unknown = [name for name in names if name not in methods()]
    if unknown or not names:
        raise BadValue(f"unknown methods: {', '.join(unknown)}" if unknown
                       else "expected at least one method")
    return names


@dataclass(frozen=True)
class Option:
    """One flag, taken by the commands of ``defaults`` (``{command:
    default}``).  ``action`` is argparse's (``store_true``, ``append``)
    or ``switch`` (``--x/--no-x``); ``choices`` may be a function."""

    flag: str
    defaults: dict
    help: str
    convert: "Callable | None" = None
    key: "str | None" = None
    choices: "Callable | tuple | None" = None
    metavar: "str | None" = None
    action: "str | None" = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def from_file(self, value):
        """A ``cluster:`` value, converted (``append`` takes a list)."""
        if self.action != "append":
            return self.convert(value)
        if not isinstance(value, list):
            raise BadValue(f"expected a list, got {value}")
        return [self.convert(item) for item in value]


def _on(default, *commands) -> dict:
    return dict.fromkeys(commands or ("run", "compare", "jobs"), default)


TRAIN = ("run", "compare")
REPORT, DIFF = "analyze report", "analyze diff"

#: every row; a command lists its arguments in row order
OPTIONS = (
    Option("trace_file", _on(None, REPORT), "JSONL trace exported with "
           "--trace-format jsonl (.gz accepted)", metavar="TRACE.jsonl"),
    Option("trace_a", _on(None, DIFF), "the baseline trace",
           metavar="A.jsonl"),
    Option("trace_b", _on(None, DIFF), "the new trace", metavar="B.jsonl"),
    Option("--threshold", _on(0.25, "trace"), "busy share below which an "
           "hour is idle", non_negative_float),
    Option("--threshold", _on(0.02, DIFF), "relative significance floor",
           non_negative_float),
    Option("--workload", _on("vgg11", *TRAIN), "workload to train",
           choices=workloads),
    Option("--preset", _on("quick", *TRAIN), "scale preset", choices=presets),
    Option("--spec", _on(None, "jobs"), "YAML/JSON job file ({cluster: ..., "
           "jobs: [...]})", metavar="PATH", required=True),
    Option("--socs", _on(32), "cluster size", positive_int, "socs"),
    Option("--groups", _on(None, *TRAIN), "logical groups (default: a "
           "quarter of the SoCs, at least 2)", positive_int),
    Option("--epochs", _on(None, *TRAIN),
           "epochs to train (default: the preset's)", positive_int),
    Option("--seed", _on(0, *TRAIN, "jobs", "trace"), "random seed (jobs: "
           "the session trace's)", non_negative_int, "seed"),
    Option("--horizon", _on(24.0, "jobs"), "scheduling horizon in hours",
           positive_float, "horizon_hours"),
    Option("--start-hour", _on(0.0, "jobs"), "simulation start on the "
           "tidal day", non_negative_float, "start_hour"),
    Option("--quantum", _on(0.25, "jobs"), "minimum scheduling-round "
           "length, hours", positive_float, "quantum_hours"),
    Option("--sessions-per-hour", _on(60.0, "jobs"), "peak user-session "
           "arrival rate", positive_float, "peak_sessions_per_hour"),
    Option("--static-window", _on(None, "jobs"), "disable elasticity: jobs "
           "run only inside the fixed window, e.g. '22:8'", static_window,
           metavar="START:HOURS"),
    Option("--workers", _on(1), "host processes training logical groups in "
           "parallel (real math); results are bit-identical for any value",
           positive_int),
    Option("--faults", _on(None), "fault-injection spec, e.g. 'crash:epoch="
           "1,soc=3;flap:epoch=2,pcb=0,mult=0.2,until=4' (jobs: crashes "
           "only, epochs = rounds)", metavar="SPEC"),
    Option("--fault-mode", _on("fail-stop", *TRAIN), "baseline reaction to "
           "dead SoCs (SoCFlow always recovers)",
           choices=("fail-stop", "continue")),
    Option("--serve", _on(False, "jobs"), "co-schedule with the request-"
           "level serving plane: inference replicas bid for SoCs under an "
           "SLO and preempt training on pressure", action="store_true"),
    Option("--serve-model", _on("resnet18", "jobs"), "model the replicas "
           "serve", text, "serve_model", metavar="MODEL"),
    Option("--peak-rps", _on(60.0, "jobs"), "peak aggregate request rate",
           positive_float, "peak_rps"),
    Option("--slo-ms", _on(600.0, "jobs"), "p99 latency SLO per check "
           "window, ms", positive_float, "slo_ms"),
    Option("--flash-crowd", _on((), "jobs"), "inject a flash crowd (hours, "
           "hours, rate multiplier); repeatable", flash_crowd,
           "flash_crowds", metavar="START:DUR:MULT", action="append"),
    Option("--min-replicas", _on(1, "jobs"), "serving floor",
           non_negative_int, "min_replicas"),
    Option("--max-replicas", _on(None, "jobs"), "serving ceiling (default: "
           "the cluster)", positive_int, "max_replicas"),
    Option("--report", _on(None, "jobs"), "write the schedule report as "
           "JSON", metavar="PATH"),
    Option("--fusion-threshold-mb", _on(None), "bucketed gradient fusion: "
           "close a bucket at this many MiB of simulated-scale gradients "
           "and overlap its collective with backward (default: whole-model "
           "sync)", positive_float, "fusion_threshold_mb", metavar="MB"),
    Option("--fusion-max-ops", _on(None), "bucketed gradient fusion: at "
           "most N tensors per bucket (combines with the MiB threshold; "
           "either knob alone enables fusion)", positive_int,
           "fusion_max_ops", metavar="N"),
    Option("--graph", {**_on(False, *TRAIN), "jobs": True}, "compile the "
           "training step: trace once, replay many with a preallocated "
           "tensor arena (bit-identical to eager; --no-graph runs the eager "
           "tape)", strict_bool, "graph", action="switch"),
    Option("--trace", _on(None), "write a trace of the simulated run (open "
           "chrome format in Perfetto)", metavar="PATH"),
    Option("--trace-format", _on("chrome"), "trace file format",
           choices=("chrome", "jsonl")),
    Option("--metrics", _on(None), "write the metrics registry as JSONL",
           metavar="PATH"),
    Option("--method", _on("socflow", "run"), "method to train with",
           choices=methods),
    Option("--methods", _on("ring,fedavg,socflow", "compare"),
           "comma-separated method names", method_list),
    Option("--top", _on(8, REPORT), "critical-path segments to show",
           positive_int),
    Option("--format", _on("table", REPORT, DIFF), "output format",
           choices=("table", "json", "markdown")),
    Option("--out", _on(None, REPORT, DIFF), "write the rendered report to "
           "PATH instead of stdout", metavar="PATH"),
)


def options_for(command: str) -> "list[Option]":
    return [option for option in OPTIONS if command in option.defaults]


def resolve(command: str, args, cluster: "dict | None" = None):
    """``command``'s options, each settled once: the parsed flag (left
    ``None`` when not given), else the job file's converted ``cluster:``
    value, else the declared default."""
    settled = {}
    for option in options_for(command):
        value = getattr(args, option.dest)
        if value is None:
            value = (cluster or {}).get(option.key, option.defaults[command])
        settled[option.dest] = value
    return SimpleNamespace(**settled)
