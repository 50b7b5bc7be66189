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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.faults import FaultSchedule, event_summary
from ..cluster.network import NetworkFabric
from ..cluster.topology import ClusterTopology
from ..cluster.workload import PreemptionEvent
from ..telemetry import NULL_TELEMETRY, Telemetry

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
    """Event bookkeeping + cost formulas for the control-board logic."""

    topology: ClusterTopology
    rebalance: bool = True
    events: list = field(default_factory=list)
    fault_schedule: FaultSchedule | None = None
    telemetry: Telemetry = field(default_factory=lambda: NULL_TELEMETRY)
    _clock_factors: dict[int, float] = field(default_factory=dict)

    # -- dispatch -------------------------------------------------------
    def dispatch_seconds(self, fabric: NetworkFabric, model_bytes: float,
                         data_bytes_per_soc: float,
                         socs: "list[int] | None" = None) -> float:
        """Broadcast the model and per-SoC data shards from the control
        board at the start of a job.

        ``socs`` restricts the broadcast to a job's allocated subset
        (multi-tenant schedules dispatch each admitted job only to the
        SoCs it was gang-placed on); the default is the whole cluster.
        """
        from ..cluster.network import CONTROL_BOARD
        if socs is None:
            socs = list(range(self.topology.num_socs))
        else:
            socs = sorted(socs)
        per_soc = model_bytes + data_bytes_per_soc
        return fabric.transfer_time(
            [_flow(CONTROL_BOARD, s, per_soc) for s in socs])

    # -- checkpoint / preemption ----------------------------------------
    @staticmethod
    def checkpoint_seconds(model_bytes: float) -> float:
        """Write one model checkpoint to the SoC's UFS storage."""
        return model_bytes / _UFS_WRITE_BPS

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
    def apply_faults(self, epoch: int,
                     fabric: NetworkFabric | None = None) -> set[int]:
        """Bring the fault state up to ``epoch``; return the dead set.

        Straggler factors fold into the same clock-factor table the
        underclock events use (both are persistent DVFS effects), and
        NIC multipliers are pushed into ``fabric`` so every subsequent
        transfer-time query sees the degraded links.
        """
        if self.fault_schedule is None:
            return set()
        for soc, factor in self.fault_schedule.straggler_factors(epoch).items():
            self._clock_factors[soc] = min(
                self._clock_factors.get(soc, 1.0), factor)
        if fabric is not None:
            fabric.apply_pcb_multipliers(
                self.fault_schedule.nic_multipliers(epoch))
        tel = self.telemetry
        if tel.tracer.enabled or tel.metrics.enabled:
            for event in self.fault_schedule.events_at(epoch):
                args = event_summary(event)
                kind = args.pop("fault")
                tel.tracer.event("fault", tel.now, name=f"fault:{kind}",
                                 soc=args.pop("soc", None),
                                 pcb=args.pop("pcb", None), fault=kind,
                                 **args)
                tel.metrics.counter("faults.injected", kind=kind).inc()
        return self.dead_socs_at(epoch)

    def dead_socs_at(self, epoch: int) -> set[int]:
        if self.fault_schedule is None:
            return set()
        return {s for s in self.fault_schedule.dead_socs(epoch)
                if 0 <= s < self.topology.num_socs}

    def alive_socs_at(self, epoch: int) -> list[int]:
        dead = self.dead_socs_at(epoch)
        return [s for s in range(self.topology.num_socs) if s not in dead]

    def recovery_seconds(self, model_bytes: float, fabric: NetworkFabric,
                         survivors: list[int]) -> float:
        """Price one rollback/re-group step after detecting dead SoCs.

        Survivors read the last checkpoint back from UFS (in parallel),
        the control board re-runs group sizing/mapping/CG planning, and
        one broadcast re-seeds any member whose checkpoint is stale.
        """
        read_s = model_bytes / _UFS_READ_BPS
        redispatch_s = 0.0
        if survivors:
            from ..cluster.network import CONTROL_BOARD
            redispatch_s = fabric.transfer_time(
                [_flow(CONTROL_BOARD, s, model_bytes) for s in survivors])
        return _REPLAN_S + read_s + redispatch_s


def _flow(src: int, dst: int, nbytes: float):
    from ..cluster.network import Flow
    return Flow(src, dst, nbytes)
