"""The serving plane: shared request queue, replica pool, SLO autoscaler.

:class:`ServingPlane` simulates the inference side of the cluster at
request granularity.  It owns the pre-generated arrival stream, a
shared FIFO request queue, and a pool of per-SoC
:class:`~repro.serving.replica.Replica` servers; time advances in fixed
*check windows* (the autoscaler's control period).  Inside a window,
batches form greedily: the earliest-free replica takes up to
``max_batch`` queued requests that have already arrived when it can
start, so batching amortises launch overhead without ever idling a
replica to wait for a fuller batch.  Requests whose queueing delay
exceeds the shedding timeout are dropped — and counted, never silent.

At each window boundary the autoscaler compares demand against
capacity: the target replica count covers the next window's arrival
rate at :data:`TARGET_UTILISATION`, plus whatever it takes to drain the
current backlog within one window, bumped by one whenever the window's
p99 violated the SLO.  Scale-ups claim idle SoCs immediately (with
:data:`SPINUP_S` of model load before the new replica serves); when
idle SoCs run out the shortfall is published as
:attr:`pending_deficit`, which the co-scheduler converts into training
preemptions at the next round boundary.  Scale-downs wait out a
patience period and only release replicas that are idle, so in-flight
batches always finish.

Determinism: arrivals are pre-generated, batch formation is a pure
function of arrival times and replica state, and every iteration is
sorted — the same parameters and seed produce byte-identical window
stats, metrics and traces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapreplace

import numpy as np

from ..telemetry import NULL_TELEMETRY, Telemetry
from .arrivals import ArrivalProcess
from .replica import Replica, ServiceModel

__all__ = ["ServingPlane", "WindowStats"]

#: demand headroom: replicas are provisioned so the forecast rate uses
#: only this share of their peak throughput
TARGET_UTILISATION = 0.6
#: model-load delay before a newly claimed SoC serves traffic, seconds
SPINUP_S = 30.0


@dataclass
class WindowStats:
    """Aggregates of one check window (the autoscaler's control period)."""

    index: int
    start_hour: float
    end_hour: float
    arrivals: int = 0
    served: int = 0
    dropped: int = 0
    queue_depth: int = 0
    replicas: int = 0
    p50_ms: float | None = None
    p99_ms: float | None = None
    violation: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_hour": round(self.start_hour, 6),
            "arrivals": self.arrivals, "served": self.served,
            "dropped": self.dropped, "queue_depth": self.queue_depth,
            "replicas": self.replicas,
            "p50_ms": (None if self.p50_ms is None
                       else round(self.p50_ms, 3)),
            "p99_ms": (None if self.p99_ms is None
                       else round(self.p99_ms, 3)),
            "violation": self.violation,
        }


def _nearest_rank(sorted_ms: "np.ndarray", p: float) -> float:
    """Nearest-rank percentile (the histogram's rule) over a sorted
    array, so window stats and registry summaries agree."""
    rank = max(0, min(len(sorted_ms) - 1,
                      int(round(p / 100.0 * (len(sorted_ms) - 1)))))
    return float(sorted_ms[rank])


class ServingPlane:
    """Request queue + replica pool + SLO-aware autoscaler.

    Parameters
    ----------
    arrivals, service:
        The workload and the calibrated per-replica timing.
    slo_ms:
        The p99 latency objective per check window.
    min_replicas, max_replicas:
        Pool bounds (``max_replicas=None`` = bounded by the cluster).
    check_interval_hours:
        Control period; also the stats/telemetry window.
    scale_down_patience:
        Consecutive calm windows before surplus replicas release.
    shed_after_s:
        Queueing-delay bound after which a request is dropped
        (defaults to ``4 * slo_ms``): the real platform sheds to other
        servers rather than serve a hopelessly late response.
    autoscale:
        ``False`` freezes the pool (the statically provisioned
        baseline): no claims, no releases, no deficit.
    sim_zero_hour:
        Hour mapped to simulated second 0 in traces (the scheduler's
        ``start_hour``).
    """

    def __init__(self, arrivals: ArrivalProcess, service: ServiceModel, *,
                 slo_ms: float = 250.0,
                 min_replicas: int = 1, max_replicas: "int | None" = None,
                 check_interval_hours: float = 0.25,
                 scale_down_patience: int = 3,
                 shed_after_s: "float | None" = None, autoscale: bool = True,
                 sim_zero_hour: "float | None" = None,
                 telemetry: "Telemetry | None" = None):
        if slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if min_replicas < 0:
            raise ValueError("min_replicas must be non-negative")
        if max_replicas is not None and max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if check_interval_hours <= 0:
            raise ValueError("check_interval_hours must be positive")
        if shed_after_s is not None and shed_after_s < 0:
            raise ValueError("shed_after_s must be non-negative")
        self.arrivals = arrivals
        self.service = service
        self.slo_ms = slo_ms
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.check_interval_hours = check_interval_hours
        self.scale_down_patience = scale_down_patience
        self.shed_after_s = (4.0 * slo_ms / 1000.0 if shed_after_s is None
                             else shed_after_s)
        self.autoscale = autoscale
        self.sim_zero_hour = (arrivals.start_hour if sim_zero_hour is None
                              else sim_zero_hour)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

        self.replicas: "dict[int, Replica]" = {}
        self.windows: "list[WindowStats]" = []
        self.pending_deficit = 0
        self.total_requests = 0
        self.total_served = 0
        self.total_dropped = 0
        self.violation_windows = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.preempted_socs = 0
        self.replica_soc_hours = 0.0

        self._now = arrivals.start_hour
        # the shared FIFO is the range [_head, _admitted) of arrivals_h
        self._head = self._admitted = 0
        # exactly one (free_hour, soc) entry per live replica
        self._heap: "list[tuple[float, int]]" = []
        #: service hours of an n-request batch (index 0 unused)
        self._batch_h = [None] + [service.batch_seconds(n) / 3600.0
                                  for n in range(1, service.max_batch + 1)]
        self._calm_windows = 0

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    @property
    def held_socs(self) -> "set[int]":
        """SoCs currently owned by serving replicas."""
        return set(self.replicas)

    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet dispatched or shed."""
        return self._admitted - self._head

    def _rebuild_heap(self) -> None:
        """Re-derive the pool heap after the replica set changed (a
        sorted list is a heap; at most cluster-size entries)."""
        self._heap = sorted((replica.free_hour, soc)
                            for soc, replica in self.replicas.items())

    def provision(self, socs: "list[int]", hour: float, *,
                  warm: bool = True) -> None:
        """Install replicas on ``socs`` (no spin-up when ``warm``)."""
        ready = hour if warm else hour + SPINUP_S / 3600.0
        for soc in sorted(socs):
            if soc in self.replicas:
                raise ValueError(f"soc {soc} already serves")
            self.replicas[soc] = Replica(soc, self.service, ready_hour=ready)
        self._rebuild_heap()

    def grant(self, socs: "list[int]", hour: float) -> None:
        """Hand over SoCs preempted from training (co-scheduler path)."""
        socs = sorted(socs)[:max(0, self.pending_deficit)]
        if not socs:
            return
        self.provision(socs, hour, warm=False)
        self.pending_deficit -= len(socs)
        self.preempted_socs += len(socs)
        self.scale_ups += len(socs)
        self._scale_event("scale-up:preempt", hour, len(socs))

    def bootstrap(self, claimable: "list[int]", hour: float) -> None:
        """Provision the initial pool for the first window's forecast.

        The service was already running before the simulated horizon
        begins, so the starting replicas are warm (no spin-up) and not
        counted as scale-ups.
        """
        if self.replicas or not self.autoscale:
            return
        target = max(self._forecast_need(hour), self.min_replicas)
        if self.max_replicas is not None:
            target = min(target, self.max_replicas)
        claims = sorted(claimable, reverse=True)[:target]
        for soc in claims:
            claimable.remove(soc)
        self.provision(claims, hour, warm=True)
        self.pending_deficit = target - len(claims)

    def evict(self, socs: "set[int]", hour: float) -> None:
        """Drop the replicas on ``socs``, whose crash begins at ``hour``.

        A batch one of them started earlier still completes (its
        requests were served at dispatch); no later batch lands on it.
        """
        lost = sorted(socs & self.replicas.keys())
        if not lost:
            return
        for soc in lost:
            del self.replicas[soc]
        self._rebuild_heap()
        self._scale_event("scale-down:crash", hour, len(lost))

    def _forecast_need(self, hour: float) -> int:
        """Replicas covering the next window's arrival rate at
        :data:`TARGET_UTILISATION` (the stream is pre-generated)."""
        forecast_rps = self.arrivals.count_between(
            hour, hour + self.check_interval_hours) \
            / (self.check_interval_hours * 3600.0)
        return math.ceil(forecast_rps / (TARGET_UTILISATION
                                         * self.service.peak_rps))

    def _sim_s(self, hour: float) -> float:
        return (hour - self.sim_zero_hour) * 3600.0

    def _scale_event(self, name: str, hour: float, socs: int) -> None:
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.event("scale", self._sim_s(hour), name=name, socs=socs,
                         replicas=len(self.replicas))

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def advance(self, until_hour: float,
                claimable: "list[int] | None" = None, *,
                flush: bool = False) -> None:
        """Process complete check windows up to ``until_hour``.

        ``claimable`` is this round's idle-SoC pool (mutated as the
        autoscaler claims from it).  A trailing partial window is left
        for the next call unless ``flush`` (end of horizon).
        """
        claimable = claimable if claimable is not None else []
        eps = 1e-9
        while self._now + self.check_interval_hours <= until_hour + eps:
            w1 = self._now + self.check_interval_hours
            self._run_window(self._now, w1, claimable)
            self._now = w1
        if flush and until_hour > self._now + eps:
            self._run_window(self._now, until_hour, claimable)
            self._now = until_hour

    # ------------------------------------------------------------------
    def _run_window(self, t0: float, t1: float,
                    claimable: "list[int]") -> None:
        stats = WindowStats(index=len(self.windows), start_hour=t0,
                            end_hour=t1, replicas=len(self.replicas))

        # 1. admit this window's arrivals: the queue's upper bound moves
        hi = int(np.searchsorted(self.arrivals.arrivals_h, t1, side="left"))
        stats.arrivals = hi - self._admitted
        self.total_requests += stats.arrivals
        self._admitted = hi

        # 2. dispatch batches until nothing can start inside the window
        latencies_ms, dropped = self._dispatch(t1)
        stats.served = len(latencies_ms)
        stats.dropped = dropped
        self.total_served += stats.served
        self.total_dropped += dropped
        stats.queue_depth = self.queue_depth
        if stats.served:
            metrics = self.telemetry.metrics
            if metrics.enabled:
                metrics.histogram("serving.latency_ms").observe_many(
                    latencies_ms)
            ordered = np.sort(latencies_ms)
            stats.p50_ms = _nearest_rank(ordered, 50)
            stats.p99_ms = _nearest_rank(ordered, 99)
            stats.violation = stats.p99_ms > self.slo_ms
        # an un-drained backlog is an SLO violation in the making even
        # if every *served* request was fast
        if stats.queue_depth > 0 and not self.replicas:
            stats.violation = True
        if stats.violation:
            self.violation_windows += 1

        self.replica_soc_hours += len(self.replicas) * (t1 - t0)
        self._emit_window(stats, t0, t1)
        self.windows.append(stats)

        # 3. autoscale for the next window
        if self.autoscale:
            self._autoscale(stats, t1, claimable)

    # ------------------------------------------------------------------
    def _dispatch(self, t1: float) -> "tuple[np.ndarray, int]":
        """Form and run batches whose start falls before ``t1``.

        One iteration per *batch* — its start depends on the previous
        batch's end — and numpy for everything per request.  Returns
        the served latencies (dispatch order) and the shed count.
        """
        arrivals = self.arrivals.arrivals_h[self._head:self._admitted]
        window = arrivals.tolist()      # scalar access, this window only
        size = len(window)
        served = np.ones(size, dtype=bool)
        heap, batch_h = self._heap, self._batch_h
        shed_h = self.shed_after_s / 3600.0
        max_batch = self.service.max_batch
        window_end = t1 - 1e-12
        one_h = batch_h[1]
        dones, socs = [], []
        #: (batch index, size) of the batches of more than one request
        multi_at, multi_n = [], []
        i = 0
        if not heap:
            # no capacity at all: shed what has already waited out the
            # timeout by t1, keep the rest queued
            while i < size and t1 - window[i] > shed_h:
                i += 1
            served[:i] = False
        while heap and i < size:
            free, soc = heap[0]
            arrived = window[i]
            if free <= arrived < window_end and (
                    i + 1 == size or window[i + 1] > arrived + 1e-12):
                # a lone request on an idle replica (most batches): it
                # starts on arrival, alone
                done = arrived + one_h
                heapreplace(heap, (done, soc))
                dones.append(done)
                socs.append(soc)
                i += 1
                continue
            start = free if free > arrived else arrived
            if start >= window_end:
                break                    # next batch belongs to a later window
            if start - arrived > shed_h:
                # shed requests that would exceed the timeout by batch
                # start, then re-derive the start from the new head
                j = i + 1
                while j < size and start - window[j] > shed_h:
                    j += 1
                served[i:j] = False
                i = j
                if i >= size:
                    break
                arrived = window[i]
                start = free if free > arrived else arrived
                if start >= window_end:
                    break
            # batch = requests already arrived when the replica can start
            stop = i + max_batch
            n = bisect_right(window, start + 1e-12, i,
                             stop if stop < size else size) - i
            done = start + batch_h[n]
            heapreplace(heap, (done, soc))
            if n > 1:
                multi_at.append(len(dones))
                multi_n.append(n)
            dones.append(done)
            socs.append(soc)
            i += n
        self._head += i

        sizes = np.ones(len(dones), dtype=np.int64)
        sizes[multi_at] = multi_n
        latencies_ms = (np.repeat(np.array(dones), sizes)
                        - arrivals[:i][served[:i]]) * 3_600_000.0
        top = max(self.replicas, default=-1) + 1
        batches = np.bincount(socs, minlength=top)
        requests = np.bincount(socs, weights=sizes, minlength=top)
        for free, soc in heap:
            replica = self.replicas[soc]
            replica.free_hour = free
            replica.batches += int(batches[soc])
            replica.requests_served += int(requests[soc])
        return latencies_ms, i - len(latencies_ms)

    # ------------------------------------------------------------------
    def _autoscale(self, stats: WindowStats, hour: float,
                   claimable: "list[int]") -> None:
        # extra replicas to drain the backlog within one window
        drain_per_replica = self.service.peak_rps \
            * (self.check_interval_hours * 3600.0)
        backlog_need = math.ceil(stats.queue_depth / drain_per_replica)
        target = max(self._forecast_need(hour) + backlog_need,
                     self.min_replicas)
        if stats.violation:
            target = max(target, len(self.replicas) + 1)
        if self.max_replicas is not None:
            target = min(target, self.max_replicas)

        current = len(self.replicas)
        if target > current:
            self._calm_windows = 0
            want = target - current
            claims = sorted((s for s in claimable
                             if s not in self.replicas),
                            reverse=True)[:want]
            if claims:
                for soc in claims:
                    claimable.remove(soc)
                self.provision(claims, hour, warm=False)
                self.scale_ups += len(claims)
                self._scale_event("scale-up", hour, len(claims))
            self.pending_deficit = want - len(claims)
        elif target < current:
            self.pending_deficit = 0
            self._calm_windows += 1
            if self._calm_windows >= self.scale_down_patience:
                self._release(current - target, hour)
        else:
            self.pending_deficit = 0
            self._calm_windows = 0

    def _release(self, count: int, hour: float) -> None:
        """Release up to ``count`` idle replicas (lowest SoC ids first,
        handing the training-preferred low range back first)."""
        # only idle replicas release: in-flight batches always finish
        released = [soc for soc in sorted(self.replicas)
                    if self.replicas[soc].free_hour <= hour + 1e-12][:count]
        for soc in released:
            del self.replicas[soc]
        if released:
            self._rebuild_heap()
            self.scale_downs += len(released)
            self._calm_windows = 0
            self._scale_event("scale-down", hour, len(released))

    # ------------------------------------------------------------------
    def _emit_window(self, stats: WindowStats, t0: float, t1: float) -> None:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        metrics = telemetry.metrics
        if metrics.enabled:
            metrics.counter("serving.requests").inc(stats.arrivals)
            metrics.counter("serving.served").inc(stats.served)
            if stats.dropped:
                metrics.counter("serving.dropped").inc(stats.dropped)
            if stats.violation:
                metrics.counter("serving.slo_violations").inc()
            metrics.gauge("serving.replicas").set(stats.replicas)
            metrics.gauge("serving.queue_depth").set(stats.queue_depth)
        tracer = telemetry.tracer
        if tracer.enabled:
            args = {key: value for key, value in stats.to_dict().items()
                    if key not in ("index", "start_hour")
                    and value is not None}
            tracer.span("serve", self._sim_s(t0), (t1 - t0) * 3600.0,
                        name=f"serve window {stats.index}",
                        slo_ms=self.slo_ms, **args)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The report block (`report.extra["serving"]`) for one run."""
        served_ms = self.telemetry.metrics.histogram("serving.latency_ms") \
            if self.telemetry.metrics.enabled else None
        out = {
            "requests": self.total_requests,
            "served": self.total_served,
            "dropped": self.total_dropped,
            "queued_at_end": self.queue_depth,
            "windows": len(self.windows),
            "violation_windows": self.violation_windows,
            "slo_ms": self.slo_ms,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "preempted_socs": self.preempted_socs,
            "replica_soc_hours": round(self.replica_soc_hours, 6),
            "max_replicas_seen": max(
                (w.replicas for w in self.windows), default=0),
            "max_p99_ms": max(
                (round(w.p99_ms, 3) for w in self.windows
                 if w.p99_ms is not None), default=None),
            "window_stats": [w.to_dict() for w in self.windows],
        }
        if served_ms is not None and served_ms.count:
            out["latency_ms"] = {
                "p50": round(served_ms.percentile(50), 3),
                "p99": round(served_ms.percentile(99), 3),
                "max": round(served_ms.max, 3),
            }
        return out
