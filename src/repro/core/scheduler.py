"""Global scheduler: the control-board software (§3, Figure 5a).

Responsibilities reproduced here:

- *dispatch*: model/data broadcast cost before training starts;
- *checkpointing*: models checkpoint to UFS so user workloads can
  preempt training at any time without losing progress;
- *preemption*: a sudden user-load event terminates whole logical
  groups (the flexible group structure means only those groups stop);
- *underclocking-aware rebalancing* (§4.1 optimisation 2): when DVFS
  slows a SoC, its group's batch shares are rebalanced so the slow chip
  stops being a straggler;
- *fault handling*: an attached :class:`~repro.cluster.faults.FaultSchedule`
  feeds unplanned faults (SoC crashes, NIC degradation, persistent
  stragglers, preemption storms) into the epoch loop; the scheduler
  tracks the dead set, pushes NIC multipliers into the network fabric,
  and prices the rollback/re-group recovery step.

Every control-plane event — dispatch, recovery, checkpoint — is priced
*and* charged here, at paper scale (the cost model's ``grad_bytes``),
with its span and metrics: :meth:`GlobalScheduler.dispatch`,
:meth:`~GlobalScheduler.recover` and :meth:`~GlobalScheduler.checkpoint`
are what SoCFlow and the job scheduler's executions call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster.faults import FaultSchedule
from ..cluster.network import CONTROL_BOARD, Flow, NetworkFabric
from ..cluster.topology import ClusterTopology
from ..cluster.workload import PreemptionEvent

__all__ = ["PreemptionEvent", "UnderclockEvent", "GlobalScheduler"]

#: sustained UFS 3.1 sequential write bandwidth, bytes/s
_UFS_WRITE_BPS = 500e6
#: sustained UFS 3.1 sequential read bandwidth, bytes/s (rollback restore)
_UFS_READ_BPS = 2e9
#: control-board overhead to detect a dead SoC and re-plan the groups
#: (health-check timeout + Eq. 1 / mapping / CG planning re-run)
_REPLAN_S = 0.5


@dataclass(frozen=True)
class UnderclockEvent:
    """DVFS slows ``soc`` to ``factor`` of nominal speed from ``epoch``."""

    epoch: int
    soc: int
    factor: float

    def __post_init__(self):
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")


@dataclass
class GlobalScheduler:
    """Event bookkeeping, and the one pricer of control-plane events.

    :meth:`dispatch`, :meth:`recover` and :meth:`checkpoint` take the
    run's :class:`~repro.distributed.base.CostModel`, charge it and
    return the seconds charged.
    """

    topology: ClusterTopology
    rebalance: bool = True
    events: list = field(default_factory=list)
    fault_schedule: FaultSchedule | None = None
    _clock_factors: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.fault_schedule is not None:
            self.fault_schedule.validate_for(self.topology)

    # -- dispatch / recovery / checkpoint ---------------------------------
    def dispatch(self, cost, socs: "list[int] | None" = None) -> float:
        """Broadcast the model and per-SoC data shards from the control
        board at the start of a job.

        ``socs`` restricts the broadcast to a job's allocated subset
        (multi-tenant schedules dispatch each admitted job only to the
        SoCs it was gang-placed on); the default is the whole cluster.
        """
        socs = (list(range(self.topology.num_socs)) if socs is None
                else sorted(socs))
        config = cost.config
        model_bytes = cost.grad_bytes
        data_bytes = (config.sim_samples_per_epoch
                      * math.prod(config.task.input_shape) / len(socs))
        t0 = cost.clock.now
        seconds = _broadcast(cost.fabric, socs, model_bytes + data_bytes)
        cost.charge_epoch_sync(seconds, len(socs))
        cost.telemetry.tracer.span("dispatch", t0, seconds,
                                   model_bytes=model_bytes,
                                   num_socs=len(socs))
        return seconds

    def recover(self, cost, survivors: "list[int]", **span) -> float:
        """One rollback/re-group step onto ``survivors`` (fault recovery,
        elastic resize, warm resume).

        Survivors read the last checkpoint back from UFS (in parallel),
        the control board re-runs group sizing/mapping/CG planning, and
        one broadcast re-seeds any member whose checkpoint is stale.
        ``span`` are the ``recovery`` span's name and args.
        """
        model_bytes = cost.grad_bytes
        t0 = cost.clock.now
        seconds = (_REPLAN_S + model_bytes / _UFS_READ_BPS
                   + _broadcast(cost.fabric, survivors, model_bytes))
        cost.charge_epoch_sync(seconds, len(survivors), phase="recovery")
        telemetry = cost.telemetry
        telemetry.tracer.span("recovery", t0, seconds,
                              survivors=len(survivors), **span)
        telemetry.metrics.counter("recovery.count").inc()
        telemetry.metrics.histogram("recovery.seconds").observe(seconds)
        return seconds

    def checkpoint(self, cost, phase: str, **span) -> float:
        """Write one model checkpoint to a SoC's UFS storage, charged to
        ``phase``; ``span`` are the ``checkpoint`` span's name and args."""
        model_bytes = cost.grad_bytes
        seconds = model_bytes / _UFS_WRITE_BPS
        cost.telemetry.tracer.span("checkpoint", cost.clock.now, seconds,
                                   model_bytes=model_bytes, **span)
        cost.charge_checkpoint(seconds, phase)
        return seconds

    # -- preemption -------------------------------------------------------
    def preemptions_at(self, epoch: int) -> list[PreemptionEvent]:
        """Planned preemptions at ``epoch``, plus any fault-schedule storms."""
        planned = [e for e in self.events
                   if isinstance(e, PreemptionEvent) and e.epoch == epoch]
        if self.fault_schedule is not None:
            planned.extend(PreemptionEvent(storm.epoch, storm.num_groups)
                           for storm in self.fault_schedule.storms_at(epoch))
        return planned

    # -- underclocking ----------------------------------------------------
    def apply_underclocks(self, epoch: int) -> None:
        """Apply every underclock that has begun by ``epoch``.

        Matching ``<= epoch`` (not ``== epoch``) keeps the schedule
        correct when a run resumes from a checkpoint *past* an event's
        epoch: the DVFS state is persistent, so an event that landed on
        or before the restored epoch must still be in force.
        """
        begun = sorted((e for e in self.events
                        if isinstance(e, UnderclockEvent)
                        and e.epoch <= epoch),
                       key=lambda e: e.epoch)
        for event in begun:
            self._clock_factors[event.soc] = event.factor

    def group_slowdown(self, group_socs: list[int]) -> float:
        """Wall-time multiplier for one group's compute.

        Without rebalancing the slowest member is a straggler
        (multiplier ``1/min_factor``); with rebalancing work moves to
        faster members and the multiplier is the harmonic-mean ratio
        ``G / sum(factors)``.
        """
        factors = [self._clock_factors.get(s, 1.0) for s in group_socs]
        if all(f == 1.0 for f in factors):
            return 1.0
        if self.rebalance:
            return len(factors) / sum(factors)
        return 1.0 / min(factors)

    # -- unplanned faults -------------------------------------------------
    def apply_faults(self, epoch: int, fabric: NetworkFabric) -> set[int]:
        """Bring the fault state up to ``epoch``; return the dead set.

        Straggler factors fold into the same clock-factor table the
        underclock events use (both are persistent DVFS effects); the
        rest is :meth:`FaultSchedule.enter_epoch` on ``fabric``.
        """
        if self.fault_schedule is None:
            return set()
        for soc, factor in self.fault_schedule.straggler_factors(epoch).items():
            self._clock_factors[soc] = min(
                self._clock_factors.get(soc, 1.0), factor)
        return self.fault_schedule.enter_epoch(epoch, fabric)


def _broadcast(fabric: NetworkFabric, socs: "list[int]",
               nbytes: float) -> float:
    """Seconds for the control board to send ``nbytes`` to every SoC."""
    return fabric.transfer_time([Flow(CONTROL_BOARD, s, nbytes)
                                 for s in socs])
