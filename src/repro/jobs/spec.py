"""Training-job specifications for the multi-tenant scheduler.

A :class:`TrainingJob` is the unit the :mod:`repro.jobs` subsystem
schedules: one workload to train for a number of epochs, with a
priority, an elastic SoC range (``min_socs``..``max_socs``) and an
optional completion deadline.  Job files are YAML or JSON documents::

    cluster:            # optional; CLI flags override
      socs: 32
      seed: 0
    jobs:
      - id: vgg-nightly
        workload: vgg11
        priority: 3
        min_socs: 8
        max_socs: 24
        epochs: 4
        submit_hour: 22.5
        deadline_hours: 10

YAML job files are read by :func:`parse_simple_yaml`, a small built-in
parser for the indentation/list/scalar subset the job files need, so
one parser — never an optional dependency — decides what a file means.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["JobSpecError", "TrainingJob", "CLUSTER_KEYS", "parse_job_specs",
           "load_job_file", "parse_simple_yaml"]


class JobSpecError(ValueError):
    """A job specification is malformed."""


@dataclass(frozen=True)
class TrainingJob:
    """One tenant's training request.

    ``min_socs`` is the gang-placement floor: the scheduler never runs
    the job on fewer chips (it preempts to a checkpoint instead), and
    ``max_socs`` caps how far elastic growth inflates it.  ``priority``
    is the fair-share weight; higher priorities both admit first and
    receive a larger share of surplus SoCs.
    """

    id: str
    workload: str
    priority: int = 1
    min_socs: int = 4
    max_socs: int = 16
    epochs: int = 4
    submit_hour: float = 0.0
    deadline_hours: float | None = None
    preset: str = "quick"
    seed: int = 0
    #: accuracy-admissible logical-group size (the Eq. 1 bound the
    #: elastic resize re-runs group sizing against)
    target_group_size: int = 4
    #: train CPU(FP32)+NPU(INT8) mixed precision instead of FP32 only
    mixed: bool = False

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise JobSpecError("job id must be a non-empty string")
        if not self.workload or not isinstance(self.workload, str):
            raise JobSpecError(f"job {self.id!r}: workload is required")
        if self.priority < 1:
            raise JobSpecError(f"job {self.id!r}: priority must be >= 1")
        if not 1 <= self.min_socs <= self.max_socs:
            raise JobSpecError(
                f"job {self.id!r}: need 1 <= min_socs <= max_socs, got "
                f"[{self.min_socs}, {self.max_socs}]")
        if self.epochs < 1:
            raise JobSpecError(f"job {self.id!r}: epochs must be >= 1")
        if self.submit_hour < 0:
            raise JobSpecError(
                f"job {self.id!r}: submit_hour must be non-negative")
        if self.deadline_hours is not None and self.deadline_hours <= 0:
            raise JobSpecError(
                f"job {self.id!r}: deadline_hours must be positive")
        if self.target_group_size < 1:
            raise JobSpecError(
                f"job {self.id!r}: target_group_size must be >= 1")


_JOB_FIELDS = {f.name for f in fields(TrainingJob)}

#: every key a job file's ``cluster:`` section may set (each one a
#: ``repro jobs`` flag's default)
CLUSTER_KEYS = frozenset({
    "socs", "seed", "peak_sessions_per_hour", "horizon_hours", "start_hour",
    "quantum_hours", "fusion_threshold_mb", "fusion_max_ops", "graph",
    "flash_crowds", "serve_model", "peak_rps", "max_replicas", "slo_ms",
    "min_replicas"})


def _build_job(entry: dict, index: int) -> TrainingJob:
    if not isinstance(entry, dict):
        raise JobSpecError(f"job #{index}: expected a mapping, got "
                           f"{type(entry).__name__}")
    unknown = sorted(set(entry) - _JOB_FIELDS)
    if unknown:
        raise JobSpecError(f"job #{index}: unknown field(s) "
                           f"{', '.join(unknown)}")
    try:
        return TrainingJob(**entry)
    except TypeError as err:
        raise JobSpecError(f"job #{index}: {err}") from None


def parse_job_specs(payload) -> tuple[list[TrainingJob], dict]:
    """``(jobs, cluster_options)`` from a parsed job document.

    Accepts either ``{"jobs": [...], "cluster": {...}}`` or a bare list
    of job mappings.  Job ids must be unique.
    """
    if isinstance(payload, list):
        entries, cluster = payload, {}
    elif isinstance(payload, dict):
        entries = payload.get("jobs")
        cluster = payload.get("cluster") or {}
        if entries is None:
            raise JobSpecError("job document has no 'jobs' section")
        unknown = sorted(set(payload) - {"jobs", "cluster"})
        if unknown:
            raise JobSpecError(f"unknown top-level section(s): "
                               f"{', '.join(unknown)}")
    else:
        raise JobSpecError("job document must be a mapping or a list")
    if not isinstance(entries, list) or not entries:
        raise JobSpecError("'jobs' must be a non-empty list")
    if not isinstance(cluster, dict):
        raise JobSpecError("'cluster' must be a mapping")
    unknown = sorted(set(cluster) - CLUSTER_KEYS)
    if unknown:
        raise JobSpecError(f"unknown cluster key(s) {', '.join(unknown)}; "
                           f"expected {', '.join(sorted(CLUSTER_KEYS))}")
    jobs = [_build_job(entry, i) for i, entry in enumerate(entries)]
    seen: set[str] = set()
    for job in jobs:
        if job.id in seen:
            raise JobSpecError(f"duplicate job id {job.id!r}")
        seen.add(job.id)
    return jobs, dict(cluster)


def load_job_file(path) -> tuple[list[TrainingJob], dict]:
    """Parse a YAML/JSON job file into ``(jobs, cluster_options)``."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise JobSpecError(f"{path}: invalid JSON ({err})") from None
    else:
        payload = parse_simple_yaml(text)
    return parse_job_specs(payload)


# ----------------------------------------------------------------------
# Built-in YAML-subset parser
# ----------------------------------------------------------------------
def _parse_scalar(token: str):
    token = token.strip()
    if len(token) >= 2 and token[0] in "'\"" and token[-1] == token[0]:
        return token[1:-1]
    low = token.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("null", "none", "~", ""):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines: list[tuple[int, str]] = []
    for raw in text.splitlines():
        if raw.lstrip().startswith("#"):
            continue
        stripped = raw.split(" #", 1)[0].rstrip()
        if not stripped.strip():
            continue
        lines.append((len(stripped) - len(stripped.lstrip()),
                      stripped.lstrip()))
    return lines


def _parse_block(lines, i: int, indent: int):
    if lines[i][1].startswith("- "):
        return _parse_list(lines, i, indent)
    return _parse_map(lines, i, indent)


def _split_key(content: str) -> "tuple[str, str] | None":
    """``(key, value text)`` of a mapping entry, else None: as in YAML,
    only ``": "`` or a line-ending ``":"`` separates a key, so a plain
    scalar such as ``20:30:2`` stays one string."""
    if content.endswith(":"):
        return content[:-1].strip(), ""
    key, sep, rest = content.partition(": ")
    return (key.strip(), rest.strip()) if sep else None


def _parse_map(lines, i: int, indent: int):
    out: dict = {}
    while i < len(lines) and lines[i][0] == indent \
            and not lines[i][1].startswith("- "):
        content = lines[i][1]
        entry = _split_key(content)
        if entry is None:
            raise JobSpecError(f"expected 'key: value', got {content!r}")
        key, rest = entry
        if rest:
            out[key] = _parse_scalar(rest)
            i += 1
        else:
            i += 1
            if i < len(lines) and lines[i][0] > indent:
                out[key], i = _parse_block(lines, i, lines[i][0])
            else:
                out[key] = None
    return out, i


def _parse_list(lines, i: int, indent: int):
    out: list = []
    while i < len(lines) and lines[i][0] == indent \
            and lines[i][1].startswith("- "):
        content = lines[i][1][2:].strip()
        entry = _split_key(content)
        if entry is not None:
            key, rest = entry
            item = {key: _parse_scalar(rest)}
            i += 1
            if i < len(lines) and lines[i][0] > indent:
                more, i = _parse_map(lines, i, lines[i][0])
                item.update(more)
            out.append(item)
        else:
            out.append(_parse_scalar(content))
            i += 1
    return out, i


def parse_simple_yaml(text: str):
    """Parse the YAML subset job files use (mappings, lists, scalars).

    Supports nested block mappings, block lists (``- `` items, with
    inline first key), ``#`` comments and plain/quoted scalars — enough
    for :mod:`repro.jobs` spec files.
    """
    lines = _content_lines(text)
    if not lines:
        raise JobSpecError("empty job document")
    value, i = _parse_block(lines, 0, lines[0][0])
    if i != len(lines):
        raise JobSpecError(
            f"could not parse line: {lines[i][1]!r} (bad indentation?)")
    return value
