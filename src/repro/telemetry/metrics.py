"""Metrics registry: labeled counters, gauges and histograms.

The registry is the scalar/series side of the telemetry subsystem:
bytes over each PCB NIC, retry counts, per-phase seconds, alpha/beta
per epoch, straggler slowdowns.  Metrics are identified by a name plus
a sorted label set, so ``registry.counter("nic.bytes", pcb=3)`` is one
series and ``pcb=4`` another.

Everything is deterministic: histograms keep their raw observations in
arrival order and percentiles use nearest-rank interpolation over a
sorted copy, so two identical runs export identical summaries.  For
million-step runs a histogram can instead be bounded
(``Histogram(reservoir=k)``, or registry-wide via
``MetricsRegistry(histogram_reservoir=k)``): count/sum/min/max/mean
stay exact while percentiles come from a seeded Vitter Algorithm-R
sample — still deterministic for a fixed observation order.  The
:class:`NullMetricsRegistry` default makes every instrument a shared
no-op, keeping the untraced hot path free of bookkeeping.
"""

from __future__ import annotations

import json
import random

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullMetricsRegistry"]


class Counter:
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def summary(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-set value, with the full series kept for per-epoch reports."""

    kind = "gauge"

    def __init__(self):
        self.value: float | None = None
        self.series: list[float] = []

    def set(self, value: float) -> None:
        self.value = float(value)
        self.series.append(self.value)

    def summary(self) -> dict:
        return {"value": self.value, "observations": len(self.series)}


class Histogram:
    """Raw-observation histogram with percentile summaries.

    With ``reservoir=k`` the instrument keeps at most ``k`` observations
    (uniform Vitter Algorithm-R sample, seeded per instrument so runs
    stay reproducible) while ``count``/``sum``/``min``/``max`` — and
    therefore ``mean`` — remain exact.  Only the percentiles become
    approximate, and only once more than ``k`` values arrive.
    """

    kind = "histogram"

    def __init__(self, reservoir: int | None = None):
        if reservoir is not None and reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.observations: list[float] = []
        self.reservoir = reservoir
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._rng = random.Random(0x5eed) if reservoir is not None else None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self.reservoir is None or len(self.observations) < self.reservoir:
            self.observations.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir:
                self.observations[slot] = value

    def observe_many(self, values) -> None:
        """Bulk :meth:`observe` for request-resolution callers.

        An ndarray is unboxed once (``tolist``), never value by value.
        In unbounded mode the aggregates update in one pass without a
        per-value Python call; in reservoir mode values go through
        :meth:`observe` one by one so the RNG consumption — and thus the
        sample — is identical to the equivalent loop.
        """
        if hasattr(values, "tolist"):
            values = values.astype(float, copy=False).tolist()
        else:
            values = [float(v) for v in values]
        if self.reservoir is not None:
            for value in values:
                self.observe(value)
            return
        if not values:
            return
        self.count += len(values)
        self.sum += sum(values)
        low, high = min(values), max(values)
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)
        self.observations.extend(values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100].

        Exact in unbounded mode; computed over the reservoir sample once
        the instrument has spilled.
        """
        if not self.observations:
            raise ValueError("empty histogram has no percentiles")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self.observations)
        rank = max(0, min(len(ordered) - 1,
                          int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0}
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "mean": self.sum / self.count,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
        }
        if self.reservoir is not None and self.count > self.reservoir:
            out["sampled"] = len(self.observations)
        return out


class _NullInstrument:
    """Shared no-op stand-in for every instrument type."""

    kind = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def summary(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Accepts every call, records nothing."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def collect(self) -> list[dict]:
        return []


class MetricsRegistry:
    """Get-or-create registry keyed by (name, sorted labels).

    ``histogram_reservoir`` bounds every histogram the registry creates
    (see :class:`Histogram`); the default ``None`` keeps the exact
    unbounded behaviour.
    """

    enabled = True

    def __init__(self, histogram_reservoir: int | None = None):
        self._metrics: dict[tuple, object] = {}
        self.histogram_reservoir = histogram_reservoir

    def _get(self, cls, name: str, labels: dict, factory=None):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = (factory or cls)()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r}{labels} already registered "
                            f"as {type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(
            Histogram, name, labels,
            factory=lambda: Histogram(reservoir=self.histogram_reservoir))

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    def collect(self) -> list[dict]:
        """All series as dict rows, sorted by (name, labels)."""
        rows = []
        for (name, labels), metric in sorted(self._metrics.items()):
            rows.append({"name": name, "labels": dict(labels),
                         "type": metric.kind, **metric.summary()})
        return rows

    def to_jsonl(self) -> str:
        """One JSON object per series; byte-stable across identical runs."""
        return "\n".join(json.dumps(row, sort_keys=True)
                         for row in self.collect())

    def write_jsonl(self, path) -> None:
        from .export import open_text
        with open_text(path, "w") as fh:
            fh.write(self.to_jsonl())
            fh.write("\n")
