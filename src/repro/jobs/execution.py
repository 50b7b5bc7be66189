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
from ..core.socflow import build_groups, reform_groups
from ..distributed.base import (OVERLAP_FRACTION, CostModel, RunConfig,
                                evaluate_accuracy)
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
    def model_bytes(self) -> float:
        return self.cost.grad_bytes

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
            seconds = self.scheduler.recovery_seconds(
                self.model_bytes, self.cost.fabric, self.allocated)
            self.cost.clock.advance(seconds, "recovery")
        else:
            data_bytes = (self.config.sim_samples_per_epoch
                          * float(np.prod(self.config.task.input_shape))
                          / len(socs))
            seconds = self.scheduler.dispatch_seconds(
                self.cost.fabric, self.model_bytes, data_bytes,
                socs=self.allocated)
            self.cost.clock.advance(seconds, "sync")
        self.cost.energy.charge_network(seconds, len(socs))
        return seconds

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
        seconds = self.scheduler.recovery_seconds(
            self.model_bytes, self.cost.fabric, self.allocated)
        self.cost.clock.advance(seconds, "recovery")
        self.cost.energy.charge_network(seconds, len(socs))
        self.resizes += 1
        return seconds

    def preempt(self) -> float:
        """Checkpoint and release every SoC; returns the charged seconds."""
        seconds = GlobalScheduler.checkpoint_seconds(self.model_bytes)
        self.cost.clock.advance(seconds, "sync")
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
                            num_groups, mixed=self.job.mixed)

    def _executor_for_epoch(self):
        """A per-job LG worker pool when ``config.workers > 1``."""
        if getattr(self.config, "workers", 1) <= 1:
            return None
        if self._executor is None:
            from ..parallel import LgExecutor
            executor = LgExecutor(
                self.config, quant=self.quant, mixed=self.job.mixed,
                int8_only=False, t_cpu=self.cost.t_cpu_sample,
                t_npu=self.cost.t_npu_sample, telemetry=None,
                workers=self.config.workers)
            if not executor.parallel:                   # pragma: no cover
                executor.close()
                return None
            self._executor = executor
        return self._executor

    def run_epoch(self) -> float:
        """One epoch of real math + simulated charge; returns seconds."""
        if not self._groups or self.mapping is None:
            raise RuntimeError(f"job {self.job.id!r} is not placed")
        groups = self._groups
        task = self.config.task
        n = len(groups)
        order = self._rng.permutation(len(task.x_train))
        shards = np.array_split(order, n)
        group_batch = min(self.config.batch_size,
                          min(len(s) for s in shards))
        steps = max(1, min(len(s) for s in shards) // group_batch)
        executor = self._executor_for_epoch()
        if executor is not None and n > 1:
            executor.run_epoch(groups, shards, steps, group_batch)
        else:
            for step in range(steps):
                for group, shard in zip(groups, shards):
                    idx = shard[step * group_batch:(step + 1) * group_batch]
                    group.train_batch(task.x_train[idx], task.y_train[idx])
        merged = bucketed_average_states(
            [g.state_dict() for g in groups],
            self.cost.bucket_plan(groups[0].fp32.flatten_parameters().layout))
        for group in groups:
            group.load_state(merged)
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
        return self._charge_epoch()

    def _charge_epoch(self) -> float:
        """Advance the job's simulated clock by one paper-scale epoch.

        The same cost structure as SoCFlow's epoch charge: per-step
        compute on the allocated SoCs, the planned CG sync schedule
        hidden under compute, the optimizer update, then the epoch tail
        (one unhidden intra-group sync + the leader ring).
        """
        config, cost = self.config, self.cost
        mapping, plan = self.mapping, self.plan
        n = mapping.num_groups
        num_active = sum(len(socs) for socs in mapping.groups)
        per_soc_samples = config.sim_global_batch * n / num_active
        if self.job.mixed:
            share = self.controller.cpu_share
            cpu_n = share * per_soc_samples
            npu_n = per_soc_samples - cpu_n
        else:
            cpu_n, npu_n = per_soc_samples, 0.0
        compute_s = max(cpu_n * cost.t_cpu_sample,
                        npu_n * cost.t_npu_sample)

        payload = cost.grad_bytes
        cg_times = plan.planned_sync_seconds(cost.fabric, payload)
        raw = sum(cg_times)
        hidden = min(raw, compute_s if n > 1
                     else OVERLAP_FRACTION * compute_s)
        bucket_plan = cost.bucket_plan(
            self._groups[0].fp32.flatten_parameters().layout)
        if bucket_plan is not None:
            # Bucket-granular CG pipelining, same as SoCFlow's epoch
            # charge: each bucket runs the CG sequence on its payload
            # slice as backward emits it.
            bucket_times = [
                sum(plan.planned_sync_seconds(cost.fabric, b_bytes,
                                              num_tensors=b_tensors))
                for b_bytes, b_tensors in zip(
                    bucket_plan.sim_bytes(payload),
                    bucket_plan.sim_tensors(cost.profile.num_tensors))]
            sync_s, hidden, _ = cost.overlapped_sync(
                compute_s, bucket_plan, bucket_times, raw, hidden)
        else:
            sync_s = raw - hidden
        update_s = cost.update_seconds()
        steps = max(1, -(-config.sim_samples_per_epoch
                         // (n * config.sim_global_batch)))

        t0 = cost.clock.now
        cost.clock.advance(steps * compute_s, "compute")
        cost.clock.advance(steps * sync_s, "sync")
        cost.clock.attribute(steps * hidden, "sync")
        cost.clock.advance(steps * update_s, "update")
        cost.energy.charge_mixed(steps * cpu_n * cost.t_cpu_sample,
                                 steps * npu_n * cost.t_npu_sample,
                                 steps * compute_s, num_active)
        cost.energy.charge_network(steps * sync_s, num_active)
        cost.energy.charge_network(steps * hidden, num_active,
                                   include_idle=False)
        cost.energy.charge_compute(steps * update_s, num_active, 1.0)

        tail = plan.planned_sync_seconds(cost.fabric, payload)
        leaders = [socs[0] for socs in mapping.groups]
        inter = (cost.fabric.ring_allreduce_time(leaders, payload)
                 if len(leaders) > 1 else 0.0)
        cost.charge_epoch_sync(sum(tail) + inter, num_active)
        return cost.clock.now - t0
