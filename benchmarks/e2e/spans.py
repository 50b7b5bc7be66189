"""Host-clock spans around the public entry points of each ``repro`` layer.

The traced pass of the claims benchmark installs these wrappers from
outside: nothing under ``src/`` knows it is being timed.  A wrapper is
put on the attribute its callers actually read — the class for a
method, and for a function every module that imported it by name — so
:data:`PATCHES` names ``(module, attribute)`` pairs, not definitions.

Each span is ``[name, layer, start, end, parent, work]``; spans of one
run share the recorder (and its run id in the exported trace); ``work``
is an optional count taken at the same boundary (samples in a training
batch).  Everything stays in memory until the run ends.

A layer's **self time** is its spans' durations minus the part their
child spans cover; work done by code that is not wrapped (numpy, the
autograd tape, helpers) lands in the nearest wrapped ancestor.  Self
times over all layers sum to the root span by construction, so the
per-layer table accounts for the whole traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

__all__ = ["PATCHES", "SpanRecorder"]

NAME, LAYER, START, END, PARENT, WORK = range(6)


def _batch_samples(recorder, args, kwargs) -> int:
    return len(args[1])          # train_batch(self, x, y)


def _remember_execution(recorder, args, kwargs) -> int:
    """Keep each placed ``JobExecution`` so the per-job cost clocks and
    energy meters can be read after the run (the scheduler's report
    does not carry them)."""
    recorder.executions[id(args[0])] = args[0]
    return 0


#: (layer, span name, module, attribute path[, work counter]).  The layer
#: is the ``repro.<package>`` that *does* the work, which for the two
#: step functions living in ``repro.distributed.base`` is ``nn``.
PATCHES: "list[tuple]" = [
    # harness / data: set-up
    ("harness", "harness.make_run_config",
     "repro.harness.experiments", "make_run_config"),
    ("data", "data.load_dataset",
     "repro.harness.experiments", "load_dataset"),
    # core: the strategy, topology decisions, group steps, recovery
    ("core", "core.SoCFlow.train", "repro.core.socflow", "SoCFlow.train"),
    ("core", "core.train_batch", "repro.core.mixed_precision",
     "GroupMixedTrainer.train_batch", _batch_samples),
    ("core", "core.integrity_greedy_mapping",
     "repro.core.socflow", "integrity_greedy_mapping"),
    ("core", "core.integrity_greedy_mapping",
     "repro.jobs.execution", "integrity_greedy_mapping"),
    ("core", "core.CommunicationPlan.from_mapping",
     "repro.core.planning", "CommunicationPlan.from_mapping"),
    ("core", "core.reform_groups", "repro.core.socflow", "reform_groups"),
    ("core", "core.reform_groups", "repro.jobs.execution", "reform_groups"),
    ("core", "core.allocation_group_count",
     "repro.jobs.execution", "allocation_group_count"),
    ("core", "core.survivor_group_count",
     "repro.core.socflow", "survivor_group_count"),
    # nn: the FP32 step and evaluation
    ("nn", "nn.fp32_train_step",
     "repro.core.mixed_precision", "fp32_train_step"),
    ("nn", "nn.evaluate_accuracy", "repro.core.socflow", "evaluate_accuracy"),
    ("nn", "nn.evaluate_accuracy",
     "repro.jobs.execution", "evaluate_accuracy"),
    # quant: the INT8 step, Eq. 5 merge, alpha profiling
    ("quant", "quant.Int8Trainer.train_step",
     "repro.quant.trainer", "Int8Trainer.train_step"),
    ("quant", "quant.Int8Trainer.predict_logits",
     "repro.quant.trainer", "Int8Trainer.predict_logits"),
    ("quant", "quant.merge_weights",
     "repro.core.mixed_precision", "merge_weights"),
    # comm: delayed aggregation
    ("comm", "comm.bucketed_average_states",
     "repro.core.socflow", "bucketed_average_states"),
    ("comm", "comm.bucketed_average_states",
     "repro.jobs.execution", "bucketed_average_states"),
    # cluster: the priced network and the session generator
    ("cluster", "cluster.ring_allreduce_time",
     "repro.cluster.network", "NetworkFabric.ring_allreduce_time"),
    ("cluster", "cluster.concurrent_ring_allreduce_time",
     "repro.cluster.network", "NetworkFabric.concurrent_ring_allreduce_time"),
    ("cluster", "cluster.simulate_day",
     "repro.cluster.workload", "SessionSimulator.simulate_day"),
    # jobs: the round loop and the job lifecycle
    ("jobs", "jobs.ElasticScheduler.run",
     "repro.jobs.scheduler", "ElasticScheduler.run"),
    ("jobs", "jobs.run_epoch", "repro.jobs.execution",
     "JobExecution.run_epoch"),
    ("jobs", "jobs.place", "repro.jobs.execution", "JobExecution.place",
     _remember_execution),
    ("jobs", "jobs.resize", "repro.jobs.execution", "JobExecution.resize"),
    ("jobs", "jobs.preempt", "repro.jobs.execution", "JobExecution.preempt"),
    # serving: arrival generation and the per-window dispatch loop
    ("serving", "serving.ArrivalProcess",
     "repro.serving.arrivals", "ArrivalProcess.__init__"),
    ("serving", "serving.advance",
     "repro.serving.plane", "ServingPlane.advance"),
    # telemetry: the export -> analyze -> render pipeline
    ("telemetry", "telemetry.write_trace",
     "repro.telemetry.export", "write_trace"),
    ("telemetry", "telemetry.analyze_trace",
     "repro.telemetry.analysis", "analyze_trace"),
    ("telemetry", "telemetry.render_report",
     "repro.telemetry.analysis", "render_report"),
]


class SpanRecorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self._undo: "list[tuple]" = []
        #: patch targets that could not be resolved, by name — a renamed
        #: entry point must show up here, not as a silent hole
        self.missing: "list[str]" = []
        self.executions: "dict[int, object]" = {}

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, layer: str, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    work(self, args, kwargs) if work is not None else 0]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        for layer, name, module_name, path, *rest in PATCHES:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attr] if parents \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            work = rest[0] if rest else None
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(
                    self.wrap(original.__func__, name, layer, work))
            else:
                patched = self.wrap(original, name, layer, work)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def durations_ms(self, name: str) -> "list[float]":
        return [(s[END] - s[START]) * 1e3 for s in self.spans
                if s[NAME] == name]

    def work(self, name: str) -> int:
        return sum(s[WORK] for s in self.spans if s[NAME] == name)

    def self_times(self) -> "list[float]":
        """Per-span self seconds (duration minus direct children)."""
        own = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def table(self) -> "dict[str, dict[str, dict]]":
        """``{"spans"|"layers": {name: {calls, total_s, self_s}}}``.

        A layer's ``total_s`` counts a span only when its parent is in
        another layer, so nested same-layer spans are not double-counted.
        """
        own = self.self_times()
        by_span: dict[str, dict] = {}
        by_layer: dict[str, dict] = {}
        for span, self_s in zip(self.spans, own):
            duration = span[END] - span[START]
            row = by_span.setdefault(
                span[NAME], {"layer": span[LAYER], "calls": 0,
                             "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += self_s
            layer = by_layer.setdefault(
                span[LAYER], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += self_s
            parent = span[PARENT]
            if parent < 0 or self.spans[parent][LAYER] != span[LAYER]:
                layer["total_s"] += duration
        return {"spans": by_span, "layers": by_layer}

    def write_chrome_trace(self, path, run_id: str) -> None:
        """Host-clock Chrome trace (``chrome://tracing`` / Perfetto)."""
        origin = min((s[START] for s in self.spans), default=0.0)
        events = [{
            "name": span[NAME], "cat": span[LAYER], "ph": "X",
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"run": run_id, "id": index, "parent": span[PARENT],
                     "work": span[WORK]},
        } for index, span in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
