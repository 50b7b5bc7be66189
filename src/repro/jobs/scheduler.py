"""Elastic multi-tenant scheduling of training jobs over the tidal trace.

The :class:`ElasticScheduler` closes the loop the paper's Figure 1
opens: the SoC-Cluster's day job (user sessions riding the tidal
curve) decides how many chips are idle at any hour, and the scheduler
packs admitted :class:`~repro.jobs.spec.TrainingJob` tenants onto that
shifting pool.  Each scheduling round it

1. admits newly-arrived jobs through the :class:`~repro.jobs.queue.JobQueue`;
2. computes the idle capacity (session-busy SoCs and fault-dead SoCs
   are unavailable; a non-elastic baseline is additionally gated to a
   fixed overnight window);
3. runs fair-share gang placement: every runnable job gets its
   ``min_socs`` floor in priority order, then — in elastic mode — the
   surplus is granted one SoC at a time to the job with the smallest
   priority-weighted consumption (``soc_hours / priority``), capped at
   ``max_socs``;
4. applies the plan: jobs that lost their floor are preempted to a
   warm checkpoint and requeued *at their original fairness position*,
   new grants are gang-placed (priced as a per-job dispatch), changed
   grants trigger an elastic resize (Eq. 1 group sizing, the
   integrity-greedy mapping and CG planning re-run; priced as a
   recovery step);
5. advances every running job by one epoch of real math + simulated
   charge; the round lasts as long as the slowest job's epoch (floored
   at the scheduling quantum).

Determinism: all iteration orders are sorted, per-job RNGs are seeded
by the job spec, and the shared telemetry timeline is driven by the
round clock — the same seed + job file yields byte-identical exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..cluster.clock import PhaseClock
from ..cluster.faults import FaultSchedule
from ..cluster.topology import ClusterTopology
from ..cluster.workload import Session, SessionIndex
from ..telemetry import NULL_TELEMETRY, Telemetry
from .execution import JobExecution
from .queue import JobQueue, QueueEntry
from .spec import TrainingJob

__all__ = ["JobRecord", "ScheduleReport", "ElasticScheduler"]


@dataclass
class JobRecord:
    """Per-job outcome bookkeeping, reported by :class:`ScheduleReport`."""

    job: TrainingJob
    status: str = "queued"      # queued/running/completed/missed/unfinished
    submit_hour: float = 0.0
    start_hour: float | None = None
    finish_hour: float | None = None
    epochs_done: int = 0
    final_accuracy: float = 0.0
    queue_wait_hours: float | None = None
    soc_hours: float = 0.0
    resizes: int = 0
    preemptions: int = 0

    def to_dict(self) -> dict:
        return {
            "id": self.job.id, "status": self.status,
            "priority": self.job.priority,
            "submit_hour": round(self.submit_hour, 6),
            "start_hour": (None if self.start_hour is None
                           else round(self.start_hour, 6)),
            "finish_hour": (None if self.finish_hour is None
                            else round(self.finish_hour, 6)),
            "epochs_done": self.epochs_done,
            "epochs_requested": self.job.epochs,
            "final_accuracy": round(self.final_accuracy, 6),
            "queue_wait_hours": (None if self.queue_wait_hours is None
                                 else round(self.queue_wait_hours, 6)),
            "soc_hours": round(self.soc_hours, 6),
            "resizes": self.resizes, "preemptions": self.preemptions,
        }


@dataclass
class ScheduleReport:
    """What one scheduling run did with the cluster's idle capacity."""

    jobs: "dict[str, JobRecord]"
    horizon_hours: float
    available_soc_hours: float = 0.0
    used_soc_hours: float = 0.0
    rounds: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def utilisation(self) -> float:
        """Share of idle SoC-hours actually spent training."""
        if self.available_soc_hours <= 0:
            return 0.0
        return self.used_soc_hours / self.available_soc_hours

    @property
    def completed(self) -> "list[str]":
        return sorted(j for j, r in self.jobs.items()
                      if r.status == "completed")

    def to_dict(self) -> dict:
        return {
            "horizon_hours": round(self.horizon_hours, 6),
            "rounds": self.rounds,
            "available_soc_hours": round(self.available_soc_hours, 6),
            "used_soc_hours": round(self.used_soc_hours, 6),
            "utilisation": round(self.utilisation, 6),
            "jobs": [self.jobs[j].to_dict() for j in sorted(self.jobs)],
            **self.extra,
        }


class ElasticScheduler:
    """Fair-share elastic gang scheduler on the shared simulated clock.

    Parameters
    ----------
    sessions:
        The user-session timeline (``SessionSimulator.simulate_day``)
        whose busy SoCs training must yield to.
    elastic:
        ``False`` runs the static baseline: jobs only run inside
        ``window`` and only ever hold their ``min_socs`` floor — no
        growth into surplus capacity.
    window:
        ``(start_hour, duration_hours)`` for the static baseline
        (ignored when ``elastic``); wraps across midnight.
    config_factory:
        ``job -> RunConfig`` override for tests; the default builds the
        job's workload at its preset via the experiment harness.  The
        config must keep ``telemetry=None`` — the scheduler owns the
        shared timeline.
    """

    def __init__(self, topology: ClusterTopology, sessions: "list[Session]",
                 *, quantum_hours: float = 0.25, horizon_hours: float = 24.0,
                 start_hour: float = 0.0, elastic: bool = True,
                 window: "tuple[float, float] | None" = None,
                 fault_schedule=None, telemetry: Telemetry | None = None,
                 workers: int = 1, config_factory=None,
                 known_workloads: "set[str] | None" = None,
                 fusion_threshold_mb: float | None = None,
                 fusion_max_ops: int | None = None,
                 graph: bool = False):
        if quantum_hours <= 0:
            raise ValueError("quantum_hours must be positive")
        if horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        if not elastic and window is None:
            raise ValueError("the static baseline needs a window")
        self.topology = topology
        self.sessions = list(sessions)
        #: sorted-interval occupancy index — rounds query busy SoCs every
        #: quantum, so the per-round O(sessions) rescan was a hot path
        self._session_index = SessionIndex(self.sessions)
        self.quantum_hours = quantum_hours
        self.horizon_hours = horizon_hours
        self.start_hour = start_hour
        self.elastic = elastic
        self.window = window
        #: only its crashes are read: a dead SoC leaves the idle pool
        self.fault_schedule = (FaultSchedule() if fault_schedule is None
                               else fault_schedule.validate_for(topology))
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.workers = workers
        self.fusion_threshold_mb = fusion_threshold_mb
        self.fusion_max_ops = fusion_max_ops
        self.graph = graph
        self._config_factory = config_factory
        if known_workloads is None and config_factory is None:
            from ..harness.experiments import WORKLOADS
            known_workloads = set(WORKLOADS)
        self.queue = JobQueue(topology, known_workloads=known_workloads)
        self.clock = PhaseClock()
        if self.telemetry.enabled:
            self.telemetry.attach(clock=self.clock, topology=topology)
        self._entries: dict[str, QueueEntry] = {}
        self._execs: dict[str, JobExecution] = {}
        self._records: dict[str, JobRecord] = {}

    # ------------------------------------------------------------------
    def submit(self, job: TrainingJob) -> JobRecord:
        """Admit ``job`` (or raise :class:`JobAdmissionError`)."""
        entry = self.queue.submit(job, job.submit_hour)
        self._entries[job.id] = entry
        record = JobRecord(job=job, submit_hour=job.submit_hour)
        self._records[job.id] = record
        return record

    # ------------------------------------------------------------------
    def _sim_s(self, hour: float) -> float:
        return (hour - self.start_hour) * 3600.0

    def _in_window(self, hour: float) -> bool:
        if self.window is None:
            return True
        start, duration = self.window
        return ((hour - start) % 24.0) < duration

    def _idle_socs(self, hour: float, round_index: int) -> list:
        """SoCs free of sessions and faults, in id order (deterministic)."""
        busy = self._session_index.busy_socs_at(hour % 24.0)
        dead = self.fault_schedule.dead_socs(round_index)
        return [s for s in range(self.topology.num_socs)
                if s not in busy and s not in dead]

    def _capacity(self, hour: float, round_index: int) -> list:
        """Policy-gated schedulable SoCs (static mode adds the window).

        Utilisation accounting deliberately uses :meth:`_idle_socs`
        instead: the window is a *policy* choice, so idle capacity the
        static baseline refuses to touch still counts as available.
        """
        if not self.elastic and not self._in_window(hour):
            return []
        return self._idle_socs(hour, round_index)

    def _config_for(self, job: TrainingJob):
        if self._config_factory is not None:
            return self._config_factory(job)
        from ..harness.experiments import make_run_config
        config = make_run_config(
            job.workload, job.preset, num_socs=self.topology.num_socs,
            num_groups=max(1, self.topology.num_socs
                           // job.target_group_size),
            seed=job.seed, max_epochs=job.epochs, workers=self.workers,
            fusion_threshold_mb=self.fusion_threshold_mb,
            fusion_max_ops=self.fusion_max_ops,
            graph=self.graph)
        return replace(config, topology=self.topology)

    # ------------------------------------------------------------------
    # Fair-share allocation
    # ------------------------------------------------------------------
    def _runnable_entries(self, hour: float) -> "list[QueueEntry]":
        """Arrived, not-yet-complete entries in scheduling order."""
        entries = []
        for entry in self.queue.pending():
            if entry.submit_hour <= hour + 1e-9:
                entries.append(entry)
        for job_id in sorted(self._execs):
            ex = self._execs[job_id]
            if ex.running and not ex.complete:
                entries.append(self._entries[job_id])
        return sorted(entries, key=lambda e: e.sort_key)

    def _allocate(self, capacity: list, hour: float) -> "dict[str, list]":
        """``job id -> SoC ids`` this round (gang floors + fair surplus).

        Every grant satisfies ``min_socs <= len(socs) <= max_socs``; a
        job that cannot get its floor gets *nothing* (gang placement is
        all-or-nothing).  SoC ids are sticky: a resized job keeps as
        much of its previous allocation as capacity allows, minimising
        mapping churn.
        """
        candidates = self._runnable_entries(hour)
        grants: dict[str, int] = {}
        cap = len(capacity)
        for entry in candidates:
            job = entry.job
            if cap >= job.min_socs:
                grants[job.id] = job.min_socs
                cap -= job.min_socs
        if self.elastic and cap > 0:
            order = {e.job.id: i for i, e in enumerate(candidates)}
            while cap > 0:
                eligible = [
                    e.job for e in candidates
                    if e.job.id in grants and grants[e.job.id] < e.job.max_socs]
                if not eligible:
                    break
                # deficit round-robin: the job that has consumed the
                # least per unit of priority grows first; within a
                # round, surplus spreads proportionally to priority
                chosen = min(eligible, key=lambda j: (
                    self._records[j.id].soc_hours / j.priority,
                    grants[j.id] / j.priority,
                    order[j.id]))
                grants[chosen.id] += 1
                cap -= 1
        assigned: dict[str, list] = {}
        free = [s for s in capacity]
        for entry in candidates:
            job_id = entry.job.id
            if job_id not in grants:
                continue
            want = grants[job_id]
            ex = self._execs.get(job_id)
            prev = set(ex.allocated) if ex is not None else set()
            keep = [s for s in free if s in prev][:want]
            kept = set(keep)
            fill = [s for s in free if s not in kept][:want - len(keep)]
            taken = set(keep + fill)
            assigned[job_id] = sorted(taken)
            free = [s for s in free if s not in taken]
        return assigned

    # ------------------------------------------------------------------
    def _apply_allocation(self, assigned: "dict[str, list]",
                          hour: float) -> "dict[str, float]":
        """Preempt / place / resize to match the plan; per-job overhead s."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        overhead: dict[str, float] = {}
        now_s = self._sim_s(hour)
        for job_id in sorted(self._execs):
            ex = self._execs[job_id]
            if not ex.running or ex.complete:
                continue
            if job_id not in assigned:
                ex.preempt()
                record = self._records[job_id]
                record.preemptions += 1
                record.status = "queued"
                self.queue.requeue(self._entries[job_id])
                if tracer.enabled:
                    tracer.event("preemption", now_s, job=job_id,
                                 name=f"{job_id}:preempt",
                                 epochs_done=ex.epochs_done)
                metrics.counter("jobs.preemptions").inc()
        for job_id in sorted(assigned):
            socs = assigned[job_id]
            entry = self._entries[job_id]
            record = self._records[job_id]
            ex = self._execs.get(job_id)
            if ex is None:
                ex = JobExecution(entry.job, self._config_for(entry.job))
                self._execs[job_id] = ex
            if not ex.running:
                if job_id in self.queue:
                    self.queue.remove(job_id)
                first = record.start_hour is None
                overhead[job_id] = ex.place(socs)
                record.status = "running"
                if first:
                    record.start_hour = hour
                    record.queue_wait_hours = hour - entry.submit_hour
                    if tracer.enabled:
                        tracer.span("queue", self._sim_s(entry.submit_hour),
                                    record.queue_wait_hours * 3600.0,
                                    job=job_id, name=f"{job_id}:queued",
                                    priority=entry.job.priority)
                    metrics.histogram("jobs.queue_wait_hours").observe(
                        record.queue_wait_hours)
            elif socs != ex.allocated:
                grew = len(socs) > len(ex.allocated)
                overhead[job_id] = ex.resize(socs)
                record.resizes += 1
                if tracer.enabled:
                    tracer.event("resize", now_s, job=job_id,
                                 name=f"{job_id}:{'grow' if grew else 'shrink'}",
                                 socs=len(socs), num_groups=ex.num_groups)
                metrics.counter("jobs.resizes").inc()
        return overhead

    # ------------------------------------------------------------------
    # Round hooks (extension points for co-scheduling subclasses)
    # ------------------------------------------------------------------
    def _begin_round(self, hour: float, round_index: int) -> None:
        """Called at the top of every round, before capacity is computed.

        The serving co-scheduler (:mod:`repro.serving`) advances its
        request plane to ``hour`` here and re-bids for SoCs, so the
        capacity this round sees already reflects SLO pressure.
        """

    def _end_run(self, hour: float) -> None:
        """Called once when the horizon is reached (before reporting)."""

    # ------------------------------------------------------------------
    def run(self) -> ScheduleReport:
        """Drive the round loop to the horizon and report."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        report = ScheduleReport(jobs=self._records,
                                horizon_hours=self.horizon_hours)
        t = self.start_hour
        end = self.start_hour + self.horizon_hours
        round_index = 0
        try:
            while t < end:
                self._begin_round(t, round_index)
                capacity = self._capacity(t, round_index)
                assigned = self._allocate(capacity, t)
                overhead = self._apply_allocation(assigned, t)
                round_s = 0.0
                finished: list[str] = []
                for job_id in sorted(self._execs):
                    ex = self._execs[job_id]
                    if not ex.running or ex.complete:
                        continue
                    t0 = self._sim_s(t)
                    seconds = ex.run_epoch()
                    total = seconds + overhead.get(job_id, 0.0)
                    round_s = max(round_s, total)
                    record = self._records[job_id]
                    record.epochs_done = ex.epochs_done
                    record.final_accuracy = ex.final_accuracy
                    if tracer.enabled:
                        tracer.span(
                            "job", t0, seconds, job=job_id,
                            name=f"{job_id}:epoch {ex.epochs_done - 1}",
                            socs=len(ex.allocated),
                            num_groups=ex.num_groups,
                            accuracy=record.final_accuracy)
                    if ex.complete:
                        finished.append(job_id)
                dt = max(round_s / 3600.0, self.quantum_hours)
                dt = min(dt, end - t)
                report.available_soc_hours += \
                    len(self._idle_socs(t, round_index)) * dt
                for job_id in sorted(self._execs):
                    ex = self._execs[job_id]
                    if ex.running:
                        held = len(ex.allocated) * dt
                        report.used_soc_hours += held
                        self._records[job_id].soc_hours += held
                for job_id in finished:
                    self._finish(job_id, t + dt)
                t += dt
                self.clock.advance(dt * 3600.0, "job")
                round_index += 1
                report.rounds = round_index
                if metrics.enabled:
                    # live health feed: round cadence + concurrency, so
                    # a trace-less run still shows scheduling behaviour
                    metrics.histogram("jobs.round_hours").observe(dt)
                    metrics.histogram("jobs.running_per_round").observe(
                        sum(1 for ex in self._execs.values()
                            if ex.running and not ex.complete))
                if not self.queue and not any(
                        ex.running and not ex.complete
                        for ex in self._execs.values()):
                    break
            # Account the idle capacity left on the table between the
            # last round and the horizon, so utilisation compares
            # policies over the same denominator instead of rewarding
            # a baseline that merely stops early.
            while t < end - 1e-9:
                self._begin_round(t, round_index)
                dt = min(self.quantum_hours, end - t)
                report.available_soc_hours += \
                    len(self._idle_socs(t, round_index)) * dt
                t += dt
            self._end_run(end)
        finally:
            for ex in self._execs.values():
                ex.close()
        for job_id in sorted(self._records):
            record = self._records[job_id]
            if record.status in ("queued", "running"):
                record.status = "unfinished"
            if record.status == "unfinished" and record.epochs_done == 0 \
                    and tracer.enabled:
                # a job that waited out the whole horizon never got a
                # placement-time queue span; emit one so the analysis
                # engine's starved-job monitor sees the wait
                start = self._sim_s(record.submit_hour)
                tracer.span("queue", start,
                            max(0.0, self._sim_s(end) - start),
                            job=job_id, name=f"{job_id}:starved")
            ex = self._execs.get(job_id)
            if ex is not None:
                record.resizes = ex.resizes
            metrics.counter("jobs.soc_hours", job=job_id).inc(
                record.soc_hours)
        if metrics.enabled:
            metrics.gauge("jobs.utilisation").set(report.utilisation)
            metrics.gauge("jobs.available_soc_hours").set(
                report.available_soc_hours)
            metrics.gauge("jobs.used_soc_hours").set(
                report.used_soc_hours)
        report.extra["elastic"] = self.elastic
        return report

    def _finish(self, job_id: str, hour: float) -> None:
        ex = self._execs[job_id]
        record = self._records[job_id]
        record.finish_hour = hour
        elapsed = hour - record.submit_hour
        job = record.job
        missed = (job.deadline_hours is not None
                  and elapsed > job.deadline_hours)
        record.status = "missed" if missed else "completed"
        ex.allocated = []
        ex.close()
        metrics = self.telemetry.metrics
        metrics.counter("jobs.missed" if missed else "jobs.completed").inc()
