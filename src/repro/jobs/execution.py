"""One admitted job's training state under elastic scheduling.

A :class:`JobExecution` owns everything a running job carries between
scheduler rounds: its warm :class:`~repro.core.mixed_precision.GroupMixedTrainer`
replicas, the integrity-greedy mapping of its logical groups onto the
SoCs it currently holds, the CG communication plan, a per-job
:class:`~repro.distributed.base.CostModel` clock, and the latest
checkpoint.  The scheduler drives it through a small lifecycle:

- :meth:`place` — gang-place onto an allocation (initial dispatch, or a
  warm resume from the latest checkpoint after a preemption);
- :meth:`resize` — elastic grow/shrink: Eq. 1 group sizing re-runs via
  :func:`~repro.core.grouping.allocation_group_count`, the mapping and
  CG plan are rebuilt over the new SoC set, and the trainer list is
  reformed through the same warm rollback path fault recovery uses
  (:func:`~repro.core.socflow.reform_groups`), priced as a recovery
  step;
- :meth:`run_epoch` — one real-math epoch over the logical groups plus
  the simulated-clock charge for the paper-scale cluster;
- :meth:`preempt` — checkpoint and release all SoCs.

All real math is deterministic in ``(job spec, seed)``: the epoch
shuffle RNG, model init seeds and merge order never depend on
scheduling wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.buckets import bucketed_average_states
from ..core.grouping import allocation_group_count
from ..core.mapping import MappingResult, integrity_greedy_mapping
from ..core.mixed_precision import GroupMixedTrainer
from ..core.planning import CommunicationPlan
from ..core.scheduler import GlobalScheduler
from ..core.socflow import (build_groups, make_lg_executor, reform_groups,
                            run_group_epoch)
from ..distributed import pricing
from ..distributed.base import CostModel, RunConfig, evaluate_accuracy
from ..quant.int8 import QuantConfig
from ..quant.mixed import MixedPrecisionController
from .spec import TrainingJob

__all__ = ["JobCheckpoint", "JobExecution"]


@dataclass(frozen=True)
class JobCheckpoint:
    """The state a preempted job resumes from (latest merged epoch)."""

    state: dict
    epoch: int
    accuracy_history: tuple
    alpha: float


class JobExecution:
    """Warm training state + per-job simulated clock for one job."""

    def __init__(self, job: TrainingJob, config: RunConfig,
                 quant: QuantConfig | None = None):
        if config.telemetry is not None:
            raise ValueError(
                "job configs must not carry telemetry: the scheduler owns "
                "the shared timeline (per-job clocks would rebind it)")
        self.job = job
        self.config = config
        self.quant = quant or QuantConfig()
        #: the groups' precision mode: a job is mixed or all-CPU
        self._precision = "mixed" if job.mixed else "fp32"
        self.cost = CostModel(config)
        self.controller = MixedPrecisionController(self.cost.t_cpu_sample,
                                                   self.cost.t_npu_sample)
        self.scheduler = GlobalScheduler(config.topology)
        self._rng = np.random.default_rng(config.seed)
        self.allocated: list[int] = []
        self.mapping: MappingResult | None = None
        self.plan: CommunicationPlan | None = None
        self._groups: list[GroupMixedTrainer] = []
        self._executor = None
        self.epochs_done = 0
        self.history: list[float] = []
        self.resizes = 0
        self.preemptions = 0
        self.last_checkpoint: JobCheckpoint | None = None

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.epochs_done >= self.job.epochs

    @property
    def running(self) -> bool:
        return bool(self.allocated)

    @property
    def num_groups(self) -> int:
        return self.mapping.num_groups if self.mapping is not None else 0

    @property
    def final_accuracy(self) -> float:
        return self.history[-1] if self.history else 0.0

    # ------------------------------------------------------------------
    # Placement lifecycle
    # ------------------------------------------------------------------
    def _plan_for(self, socs: list[int]) -> int:
        if len(socs) < self.job.min_socs:
            raise ValueError(
                f"job {self.job.id!r}: allocation of {len(socs)} SoCs "
                f"violates min_socs={self.job.min_socs}")
        num_groups = allocation_group_count(
            len(socs), self.job.target_group_size)
        self.mapping = integrity_greedy_mapping(
            self.config.topology, num_groups, alive=set(socs))
        self.plan = CommunicationPlan.from_mapping(self.mapping)
        return num_groups

    def place(self, socs: list[int]) -> float:
        """Gang-place onto ``socs``; returns the charged seconds.

        First placement pays the control-board dispatch (model + data
        shards broadcast to exactly the allocated SoCs); a resume after
        preemption pays the recovery price and reloads the latest
        checkpoint into freshly reformed warm groups.
        """
        resumed = self.last_checkpoint is not None
        num_groups = self._plan_for(socs)
        self.allocated = sorted(socs)
        if self._groups:
            state = self.last_checkpoint.state
            self._groups = reform_groups(self.config, self.controller,
                                         self.quant, self._groups,
                                         num_groups, state)
        else:
            self._groups = self._build_groups(num_groups)
            if resumed:                                 # pragma: no cover
                for group in self._groups:
                    group.load_state(self.last_checkpoint.state)
        if resumed:
            return self.scheduler.recover(self.cost, self.allocated)
        return self.scheduler.dispatch(self.cost, self.allocated)

    def resize(self, socs: list[int]) -> float:
        """Elastically grow/shrink to ``socs``; returns recovery seconds.

        Eq. 1 group sizing, the integrity-greedy mapping and CG
        planning all re-run on the new allocation; survivors keep their
        warm optimizer state and everyone reloads the last merged
        weights (a no-op for members that already hold them).
        """
        if not self._groups:
            raise RuntimeError(f"job {self.job.id!r} is not running")
        state = self._groups[0].state_dict()
        num_groups = self._plan_for(socs)
        self.allocated = sorted(socs)
        self._groups = reform_groups(self.config, self.controller,
                                     self.quant, self._groups, num_groups,
                                     state)
        self.resizes += 1
        return self.scheduler.recover(self.cost, self.allocated)

    def preempt(self) -> float:
        """Checkpoint and release every SoC; returns the charged seconds."""
        seconds = self.scheduler.checkpoint(self.cost, "sync")
        self.preemptions += 1
        self.allocated = []
        self.mapping = None
        self.plan = None
        self._close_executor()
        return seconds

    def close(self) -> None:
        self._close_executor()
        if self._groups:
            self._groups[0].arena.release()

    def _close_executor(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _build_groups(self, num_groups: int) -> list[GroupMixedTrainer]:
        return build_groups(self.config, self.controller, self.quant,
                            num_groups, precision=self._precision)

    def run_epoch(self) -> float:
        """One epoch of real math + simulated charge; returns seconds."""
        if not self._groups or self.mapping is None:
            raise RuntimeError(f"job {self.job.id!r} is not placed")
        groups = self._groups
        task = self.config.task
        if self._executor is None:      # a per-job pool when workers > 1
            self._executor = make_lg_executor(
                self.config, self.quant, self._precision, self.cost, None)
        run_group_epoch(self.config, groups, self._rng, self._executor)
        layout = groups[0].fp32.flatten_parameters().layout
        merged = bucketed_average_states(
            [g.live_state() for g in groups], self.cost.bucket_plan(layout))
        for group in groups:
            group.load_state(merged)
        # Priced at the CPU share this epoch's batches were split by,
        # i.e. before alpha is re-profiled for the next one.
        cost = self.cost
        epoch_t0 = cost.clock.now
        pricing.apply(cost, pricing.price_epoch(
            cost, self.mapping, self.plan, layout=layout,
            cpu_share=self.controller.cpu_share if self.job.mixed else 1.0))
        seconds = cost.clock.now - epoch_t0
        if self.job.mixed:
            groups[0].update_alpha(task.x_test[:128])
        accuracy = evaluate_accuracy(groups[0].fp32, task.x_test,
                                     task.y_test)
        self.history.append(accuracy)
        self.epochs_done += 1
        self.last_checkpoint = JobCheckpoint(
            state=merged, epoch=self.epochs_done,
            accuracy_history=tuple(self.history),
            alpha=self.controller.alpha)
        return seconds
