"""One admitted job under elastic scheduling: a group-wise run plus the
job's placement policy.

A scheduled job is SoCFlow itself: its training state is a
:class:`~repro.core.socflow.GroupRun` (warm groups, mapping, CG plan,
per-job cost clock, rollback anchor), built at the first placement.
:class:`JobExecution` keeps only the job's own policy: Eq. 1 group
sizing per allocation (:func:`~repro.core.grouping.allocation_group_count`)
above the ``min_socs`` floor, dispatch on the first placement versus a
warm resume priced as a recovery afterwards, preemption, and the
counters the scheduler reports.  All real math is deterministic in
``(job spec, seed)``, never in scheduling wall-clock.
"""

from __future__ import annotations

# Imported only for the claims benchmark's spans (ROADMAP item 1).
from ..comm.buckets import bucketed_average_states  # noqa: F401
from ..core.grouping import allocation_group_count
from ..core.mapping import integrity_greedy_mapping  # noqa: F401
from ..core.planning import CommunicationPlan
from ..core.socflow import GroupRun, SoCFlowOptions
from ..core.socflow import reform_groups  # noqa: F401
from ..distributed.base import CostModel, RunConfig
from ..distributed.base import evaluate_accuracy  # noqa: F401
from ..quant.int8 import QuantConfig
from ..quant.mixed import MixedPrecisionController
from .spec import TrainingJob

__all__ = ["JobExecution"]


class JobExecution:
    """A job's group-wise run and its placement policy."""

    def __init__(self, job: TrainingJob, config: RunConfig,
                 quant: QuantConfig | None = None):
        if config.telemetry is not None:
            raise ValueError(
                "job configs must not carry telemetry: the scheduler owns "
                "the shared timeline (per-job clocks would rebind it)")
        self.job = job
        self.config = config
        #: a job's groups train mixed or all-CPU
        self.options = SoCFlowOptions(
            precision="mixed" if job.mixed else "fp32",
            quant=quant or QuantConfig())
        self.cost = CostModel(config)
        self.controller = MixedPrecisionController(self.cost.t_cpu_sample,
                                                   self.cost.t_npu_sample)
        self.run: GroupRun | None = None    # built at the first placement
        self.allocated: list[int] = []
        #: the run's CG plan; None while preempted
        self.plan: CommunicationPlan | None = None
        self.resizes = 0
        self.preemptions = 0

    # ------------------------------------------------------------------
    @property
    def history(self) -> list[float]:
        return self.run.history if self.run is not None else []

    @property
    def epochs_done(self) -> int:
        return len(self.history)

    @property
    def complete(self) -> bool:
        return self.epochs_done >= self.job.epochs

    @property
    def running(self) -> bool:
        return bool(self.allocated)

    @property
    def num_groups(self) -> int:
        return self.plan.mapping.num_groups if self.plan is not None else 0

    @property
    def final_accuracy(self) -> float:
        return self.history[-1] if self.history else 0.0

    # ------------------------------------------------------------------
    def _group_count(self, socs: list[int]) -> int:
        if len(socs) < self.job.min_socs:
            raise ValueError(
                f"job {self.job.id!r}: allocation of {len(socs)} SoCs "
                f"violates min_socs={self.job.min_socs}")
        return allocation_group_count(len(socs), self.job.target_group_size)

    def place(self, socs: list[int]) -> float:
        """Gang-place onto ``socs``; returns the charged seconds.

        The first placement pays the control-board dispatch (model +
        data shards broadcast to exactly the allocated SoCs).  Any later
        one resumes the warm groups from the run's anchor — the last
        merged state, or the initial weights when the job was preempted
        before its first epoch — and pays the recovery price.
        """
        num_groups = self._group_count(socs)
        self.allocated = sorted(socs)
        if self.run is None:
            self.run = GroupRun(self.config, self.options, self.cost,
                                self.controller, num_groups, self.allocated)
            seconds = self.run.scheduler.dispatch(self.cost, self.allocated)
        else:
            seconds = self.run.regroup(num_groups, self.allocated)
        self.plan = self.run.plan
        return seconds

    def resize(self, socs: list[int]) -> float:
        """Elastically grow/shrink to ``socs``; returns recovery seconds."""
        if not self.allocated:
            raise RuntimeError(f"job {self.job.id!r} is not running")
        num_groups = self._group_count(socs)
        self.allocated = sorted(socs)
        seconds = self.run.regroup(num_groups, self.allocated)
        self.plan = self.run.plan
        self.resizes += 1
        return seconds

    def preempt(self) -> float:
        """Checkpoint and release every SoC; returns the charged seconds."""
        seconds = self.run.scheduler.checkpoint(self.cost, "sync",
                                                len(self.allocated))
        self.preemptions += 1
        self.plan = None
        self.close()
        return seconds

    def close(self) -> None:
        """Release the allocation and the run's executor and workspaces."""
        self.allocated = []
        if self.run is not None:
            self.run.close()

    def run_epoch(self) -> float:
        """One epoch of real math + simulated charge; returns seconds."""
        if not self.allocated:
            raise RuntimeError(f"job {self.job.id!r} is not placed")
        return self.run.run_epoch()
