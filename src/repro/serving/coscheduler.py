"""SLO-aware training/serving co-scheduling.

:class:`ServingCoScheduler` closes the loop the ISSUE's tentpole asks
for: the serving plane and the training tenants bid for the same SoCs.
Each scheduling round, *before* training capacity is computed, the
plane advances to the round's start — serving the requests that arrived
since the last round and re-running its autoscaler.  Scale-ups claim
from the idle pool first; only when that runs dry does the plane
publish a deficit, which this scheduler settles by preempting the
highest-numbered training-held SoCs (training prefers low ids, serving
high ids, so the two pools churn at one boundary instead of
fragmenting).  The preemption itself rides the existing warm-checkpoint
path: the victims simply vanish from this round's capacity, and the
base class's fair-share allocator shrinks or preempts the affected jobs
exactly as it would for a session surge.  As load ebbs the plane
releases SoCs and training grows back into them through the normal
elastic surplus grant.

Serving *is* the day job here: the co-scheduler is normally built with
an empty session list, because the request stream — not a canned busy
curve — generates the idle-SoC signal.  (Sessions can still be supplied
to model a second, opaque tenant.)
"""

from __future__ import annotations

from ..cluster.topology import ClusterTopology
from ..jobs.scheduler import ElasticScheduler, ScheduleReport
from .plane import ServingPlane

__all__ = ["ServingCoScheduler"]


class ServingCoScheduler(ElasticScheduler):
    """:class:`~repro.jobs.scheduler.ElasticScheduler` sharing the
    cluster with a :class:`~repro.serving.plane.ServingPlane`.

    The plane must cover the scheduler's horizon (its arrival process
    is pre-generated) and is advanced only from the round loop, so the
    workload realisation is identical across scheduling policies.
    """

    def __init__(self, topology: ClusterTopology, plane: ServingPlane,
                 *, sessions=None, **kwargs):
        super().__init__(topology, sessions or [], **kwargs)
        self.plane = plane
        # one timeline: plane spans must land on the scheduler's clock
        plane.sim_zero_hour = self.start_hour
        if plane.arrivals.start_hour > self.start_hour + 1e-9 or \
                plane.arrivals.end_hour < self.start_hour \
                + self.horizon_hours - 1e-9:
            raise ValueError(
                "arrival process does not cover the scheduling horizon")

    # ------------------------------------------------------------------
    def _training_held(self) -> "set[int]":
        held: set[int] = set()
        for ex in self._execs.values():
            if ex.running and not ex.complete:
                held.update(ex.allocated)
        return held

    def _free_pool(self, round_index: int) -> "list[int]":
        """SoCs nobody holds: not dead, not serving, not training."""
        dead = self.fault_schedule.dead_socs(round_index)
        held = self.plane.held_socs
        training = self._training_held()
        return [s for s in range(self.topology.num_socs)
                if s not in dead and s not in held and s not in training]

    # ------------------------------------------------------------------
    # Round hooks
    # ------------------------------------------------------------------
    def _begin_round(self, hour: float, round_index: int) -> None:
        plane = self.plane
        free = self._free_pool(round_index)
        if round_index == 0 and plane.autoscale and not plane.replicas:
            plane.bootstrap(free, hour)
        plane.advance(hour, claimable=free)
        if plane.pending_deficit > 0:
            # idle pool exhausted: preempt training, highest ids first
            dead = self.fault_schedule.dead_socs(round_index)
            victims = sorted(
                (s for s in self._training_held() if s not in dead),
                reverse=True)[:plane.pending_deficit]
            plane.grant(victims, hour)

    def _end_run(self, hour: float) -> None:
        self.plane.advance(hour, claimable=self._free_pool(0), flush=True)

    # ------------------------------------------------------------------
    def _idle_socs(self, hour: float, round_index: int) -> list:
        """Training-available SoCs: alive, un-served, session-free."""
        busy = self._session_index.busy_socs_at(hour % 24.0)
        dead = self.fault_schedule.dead_socs(round_index)
        held = self.plane.held_socs
        return [s for s in range(self.topology.num_socs)
                if s not in busy and s not in dead and s not in held]

    # ------------------------------------------------------------------
    def run(self) -> ScheduleReport:
        report = super().run()
        report.extra["serving"] = self.plane.summary()
        metrics = self.telemetry.metrics
        if metrics.enabled:
            metrics.gauge("serving.replica_soc_hours").set(
                self.plane.replica_soc_hours)
        return report
