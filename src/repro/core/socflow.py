"""The SoCFlow training strategy — everything of §3 end to end.

Per batch: every logical group splits its sub-batch across CPU (FP32)
and NPU (INT8) by the alpha/beta rule, steps both, merges on-chip
(Eq. 5), and ring-synchronises within the group (the planned CG
schedule keeps contending rings off the wire simultaneously, hiding the
cost under compute).  Per epoch: the group leaders run one
Ring-AllReduce over the group weights (delayed aggregation), data is
reshuffled across groups, and alpha is re-profiled on the validation
set.

Every sub-technique is individually switchable for the Figure 13
ablation: ``grouping`` (vs one flat ring), ``mapping``
(integrity-greedy vs naive), ``planning`` (CG schedule vs concurrent),
``precision`` (CPU+NPU mixed vs CPU only).

Resilience: when the run config carries a
:class:`~repro.cluster.faults.FaultSchedule`, the scheduler surfaces
dead SoCs at every epoch boundary; SoCFlow rolls the cluster back to
the last merged checkpoint, re-runs Eq. 1 group sizing, the
integrity-greedy mapping and CG planning over the survivors, rebuilds
the logical groups, and keeps training — paying a priced recovery step
instead of aborting.  NIC degradations flow into the network fabric
(ring all-reduces slow down and pay timeout/retry backoff), DVFS
underclocks (stragglers) drive the rebalancing, and preemptions
(storms) terminate whole groups: one timeline, read once per epoch by
:meth:`GlobalScheduler.enter_epoch`.

:class:`GroupRun` is the group-wise run itself — groups, mapping, CG
plan, clock, controller and rollback anchor, one epoch body and one
regroup path; :class:`SoCFlow` drives it over the epochs, and the job
scheduler drives one per job (:mod:`repro.jobs.execution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..comm.buckets import bucketed_average_states
from ..cluster.faults import FaultSchedule, PreemptionStorm
from ..distributed import pricing
from ..distributed.base import (CostModel, RunConfig, Strategy,
                                StrategyResult, evaluate_accuracy,
                                flush_graph_stats, record_epoch_telemetry)
from ..nn.arena import trim_heap
from ..quant.int8 import QuantConfig
from ..quant.mixed import MixedPrecisionController
from .checkpoint import TrainingCheckpoint
from .grouping import select_group_count, survivor_group_count
from .mapping import MappingResult, integrity_greedy_mapping, naive_mapping
from .mixed_precision import GroupMixedTrainer
from .planning import CommunicationPlan
from .scheduler import GlobalScheduler

__all__ = ["SoCFlowOptions", "SoCFlow", "GroupRun",
           "build_groups", "reform_groups", "make_lg_executor",
           "run_group_epoch"]


def _grow_groups(config: RunConfig, controller, quant,
                 groups: "list[GroupMixedTrainer]", num_groups: int
                 ) -> "list[GroupMixedTrainer]":
    """Append members up to ``num_groups`` at their seed offsets, on
    ``groups[0]``'s step arena and in its precision mode, without
    initial weights of their own: the caller loads them."""
    for g in range(len(groups), num_groups):
        groups.append(GroupMixedTrainer(
            config, controller, quant, seed_offset=g,
            precision=groups[0].precision, arena=groups[0].arena,
            init_weights=False))
    return groups


def build_groups(config: RunConfig, controller, quant, num_groups: int,
                 precision: str = "mixed") -> "list[GroupMixedTrainer]":
    """The logical groups of a new run: group 0 draws the seeded
    initial weights and makes the run's step arena; the others start
    from group 0's weights."""
    base = GroupMixedTrainer(config, controller, quant, seed_offset=0,
                             precision=precision)
    groups = _grow_groups(config, controller, quant, [base], num_groups)
    init_state = base.state_dict()
    for group in groups[1:]:
        group.load_state(init_state)
    return groups


def reform_groups(config: RunConfig, controller, quant,
                  groups: "list[GroupMixedTrainer]", num_groups: int,
                  state: dict) -> "list[GroupMixedTrainer]":
    """Shrink or grow a warm trainer list to ``num_groups`` members.

    The shared rollback path of fault recovery and elastic resize:
    surviving trainers are reused so their warm runtime state
    (optimizer momentum, INT8 calibration RNG) carries across, new
    members are built at their seed offsets on the run's step arena,
    and every member loads ``state`` — the last globally-merged
    checkpoint.
    """
    if not groups:
        raise ValueError("need at least one warm trainer to reform from")
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    groups = _grow_groups(config, controller, quant, groups[:num_groups],
                          num_groups)
    for group in groups:
        group.load_state(state)
    return groups


def make_lg_executor(config: RunConfig, quant, precision: str,
                     cost: CostModel, telemetry):
    """A worker pool for ``config.workers > 1``, else None.

    The executor replicates each logical group in a worker process
    (same config, same seed offsets), so it needs exactly the inputs
    ``build_groups`` consumed.
    """
    if config.workers <= 1:
        return None
    from ..parallel import LgExecutor
    executor = LgExecutor(
        config, quant=quant, precision=precision, t_cpu=cost.t_cpu_sample,
        t_npu=cost.t_npu_sample, telemetry=telemetry, workers=config.workers)
    if not executor.parallel:                           # pragma: no cover
        executor.close()
        return None
    return executor


def run_group_epoch(config: RunConfig, groups: "list[GroupMixedTrainer]",
                    rng: np.random.Generator, executor=None) -> None:
    """One epoch of real math: cross-group shuffle (one draw from
    ``rng``), then lock-step group batches."""
    task = config.task
    order = rng.permutation(len(task.x_train))
    shards = np.array_split(order, len(groups))
    # config.batch_size is BS_g: every group steps with a full batch
    # (Table 1 — the paper's "global batch size 64" is per group).
    group_batch = min(config.batch_size, min(len(s) for s in shards))
    steps = max(1, min(len(s) for s in shards) // group_batch)
    if executor is not None and len(groups) > 1:
        # Group-major parallel schedule; bit-identical to the
        # step-major loop below because groups are independent
        # between sync points (see repro.parallel.pool).
        executor.run_epoch(groups, shards, steps, group_batch)
        return
    for step in range(steps):
        for group, shard in zip(groups, shards):
            idx = shard[step * group_batch:(step + 1) * group_batch]
            group.train_batch(task.x_train[idx], task.y_train[idx])


@dataclass(frozen=True)
class SoCFlowOptions:
    """Feature switches (all on = the full system; see Figure 13)."""

    grouping: bool = True
    mapping: str = "integrity"          # "integrity" | "naive"
    planning: bool = True
    #: None = dynamic alpha (profiled per epoch); a float pins it
    #: (Figure 14's "Ours-Half" uses fixed alpha = 0.7)
    fixed_alpha: float | None = None
    #: "mixed" | "fp32" | "int8" — what the logical groups train in:
    #: the Figure 14 precision modes ("fp32" is Figure 13's CPU-only
    #: ablation)
    precision: str = "mixed"
    quant: QuantConfig = field(default_factory=QuantConfig)
    rebalance: bool = True
    #: write a resumable checkpoint here after every epoch
    checkpoint_path: str | None = None
    #: resume from ``checkpoint_path`` when it exists
    resume: bool = False
    #: run the §3.1 warm-up heuristic: profile first-epoch accuracy at
    #: doubling group counts and pick the largest that holds up
    auto_group_size: bool = False

    def __post_init__(self):
        if self.mapping not in ("integrity", "naive"):
            raise ValueError("mapping must be 'integrity' or 'naive'")
        if self.precision not in ("mixed", "fp32", "int8"):
            raise ValueError("precision must be mixed/fp32/int8")


class GroupRun:
    """One group-wise run: what SoCFlow and a scheduled job keep between
    epochs.

    It holds the logical groups (warm trainers on one step arena), their
    mapping onto SoCs and its CG plan, the priced
    :class:`~repro.distributed.base.CostModel`, the mixed-precision
    controller, the control board (:class:`GlobalScheduler`), the
    cross-group shuffle RNG, the lazily opened LG executor, the accuracy
    history and the rollback anchor: a :class:`TrainingCheckpoint` of the
    last merged state, the initial weights at epoch -1 until the first
    merge.  ``options`` supply the mapping kind, precision mode, CG
    planning, fixed alpha and control-board rebalancing.  The caller
    charges the dispatch: ``run.scheduler.dispatch(cost, socs)``.
    """

    def __init__(self, config: RunConfig, options: SoCFlowOptions,
                 cost: CostModel, controller: MixedPrecisionController,
                 num_groups: int, socs: "list[int] | None" = None):
        self.config, self.options = config, options
        self.cost, self.controller = cost, controller
        self.scheduler = GlobalScheduler(
            config.topology, rebalance=options.rebalance,
            fault_schedule=config.fault_schedule or FaultSchedule())
        self.rng = np.random.default_rng(config.seed)
        self._map(num_groups, socs)
        self.groups = build_groups(config, controller, options.quant,
                                   self.mapping.num_groups,
                                   precision=options.precision)
        self.history: list[float] = []
        self.anchor = TrainingCheckpoint(self.groups[0].state_dict(),
                                         epoch=-1, alpha=controller.alpha)
        self._executor = None

    def _map(self, num_groups: int, socs: "list[int] | None") -> None:
        """Place ``num_groups`` groups (at most one per SoC) on ``socs``,
        the whole cluster when None, and plan their CGs."""
        topology = self.config.topology
        alive = None if socs is None else set(socs)
        available = topology.num_socs if alive is None else len(alive)
        mapper = (integrity_greedy_mapping
                  if self.options.mapping == "integrity" else naive_mapping)
        self.mapping = mapper(topology, max(1, min(num_groups, available)),
                              alive=alive)
        self.plan = CommunicationPlan.from_mapping(self.mapping)

    def regroup(self, count: int, socs: "list[int]", **span) -> float:
        """Roll back to the anchor in ``count`` groups on ``socs``;
        returns the priced recovery seconds (``span``: the recovery
        span's name and args).

        The one path of fault recovery, an elastic resize and a resume
        after preemption: the mapping and CG planning re-run on ``socs``
        (the caller re-ran Eq. 1 sizing), and only the *weights* roll
        back.  Surviving trainers are reused so their warm runtime state
        (optimizer momentum, INT8 calibration RNG) carries across instead
        of resetting — rebuilding from scratch measurably stalls the
        mixed-precision path.
        """
        self._map(count, socs)
        self.groups = reform_groups(self.config, self.controller,
                                    self.options.quant, self.groups,
                                    self.mapping.num_groups,
                                    self.anchor.model_state)
        return self.scheduler.recover(self.cost, socs, **span)

    def run_epoch(self, active: "int | None" = None, pre_merge=None) -> float:
        """One epoch of the first ``active`` groups (all by default; the
        rest sit out preempted); returns its charged seconds.

        Real math, then the epoch charge at the CPU share the batches
        were split by (alpha is re-profiled after it, for the next
        epoch), then delayed aggregation.  ``pre_merge(group)`` sees the
        lead group's own model before the merge.  The merged model's
        accuracy joins ``history`` and the merged state becomes the
        anchor.
        """
        config, cost, options = self.config, self.cost, self.options
        groups = self.groups[:active]
        mapping, plan = self.mapping, self.plan
        if len(groups) < len(self.groups):
            mapping = MappingResult(mapping.groups[:len(groups)],
                                    config.topology)
            plan = CommunicationPlan.from_mapping(mapping)
        if self._executor is None:
            self._executor = make_lg_executor(
                config, options.quant, options.precision, cost,
                cost.telemetry)
        run_group_epoch(config, groups, self.rng, self._executor)
        # no step runs until the next epoch: the plans' transient pages
        # go back before the merge, profiling and evaluation allocate
        self.groups[0].arena.drop_pages()
        layout = groups[0].fp32.flatten_parameters().layout
        mixed = options.precision == "mixed"
        epoch_t0 = cost.clock.now
        pricing.apply(cost, pricing.price_epoch(
            cost, mapping, plan, layout=layout, planning=options.planning,
            cpu_share=(self.controller.cpu_share if mixed else
                       0.0 if options.precision == "int8" else 1.0),
            slowdown=max(self.scheduler.group_slowdown(socs)
                         for socs in mapping.groups)))
        seconds = cost.clock.now - epoch_t0
        if pre_merge is not None:
            pre_merge(groups[0])
        # Host data plane mirrors the fusion plan: the same bucket
        # boundaries aggregate the real weights, bit-identically to the
        # whole-model fused path.
        merged = bucketed_average_states(
            [g.live_state() for g in groups], cost.bucket_plan(layout),
            metrics=cost.telemetry.metrics)
        for group in groups:
            group.load_state(merged)
        # the merge is the rollback point from here on; the last one is
        # dropped before profiling and evaluation allocate
        self.anchor = TrainingCheckpoint(merged, epoch=len(self.history))
        if mixed and options.fixed_alpha is None:
            groups[0].update_alpha(config.task.x_test[:128])
        self.history.append(evaluate_accuracy(
            groups[0].fp32, config.task.x_test, config.task.y_test))
        # what profiling and evaluation freed goes back to the OS rather
        # than stay under the next epoch's plan pages
        trim_heap()
        self.anchor.accuracy_history = list(self.history)
        self.anchor.alpha = self.controller.alpha
        return seconds

    def flush_graph_stats(self, telemetry, now: float,
                          extra: "dict | None" = None, **attribution) -> None:
        """:func:`~repro.distributed.base.flush_graph_stats` over the
        groups: one ``graph_replay`` span per (group, precision) with
        its LG/CG, and the run's plan cache.  Under ``workers > 1`` the
        steps run in worker replicas whose executor counters are not
        shipped back, so the main-process numbers only reflect local
        activity."""
        lg_to_cg = {lg: cg_idx for cg_idx, cg in enumerate(self.plan.cgs)
                    for lg in cg}
        flush_graph_stats(
            telemetry, now, [group.graph_stats() for group in self.groups],
            extra, plans=self.groups[0].arena.snapshot(),
            lanes=[{"lg": lg, "cg": lg_to_cg.get(lg, 0)}
                   for lg in range(len(self.groups))], **attribution)

    def close(self) -> None:
        """Close the LG executor and drop the op workspaces the run
        pinned and its plans' pages; the warm groups stay (a preempted
        job resumes on them)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self.groups[0].arena.release()


class SoCFlow(Strategy):
    """Group-wise parallelism + delayed aggregation + mixed precision."""

    name = "socflow"

    def __init__(self, options: SoCFlowOptions | None = None):
        self.options = options or SoCFlowOptions()


    # ------------------------------------------------------------------
    def select_group_size(self, config: RunConfig) -> tuple[int, dict]:
        """The warm-up stage: one-epoch profiles at doubling group counts.

        Returns the selected count and the accuracy profile (for
        reporting).  Uses pre-merge group-local first-epoch accuracy,
        which mirrors convergence accuracy (Figure 6).
        """
        candidates = [1]
        while candidates[-1] * 2 <= config.topology.num_socs // 2:
            candidates.append(candidates[-1] * 2)
        profile: dict[int, float] = {}
        probe_options = replace(self.options, auto_group_size=False)
        for n in candidates:
            # Probe runs stay untraced: their scratch clocks must not
            # rebind the telemetry context of the real run.
            probe_config = replace(config, max_epochs=1, num_groups=n,
                                   telemetry=None, workers=1)
            result = SoCFlow(probe_options).train(probe_config)
            profile[n] = result.extra["first_epoch_group_accuracy"]
        return select_group_count(profile), profile

    def train(self, config: RunConfig) -> StrategyResult:
        options = self.options
        group_size_profile: dict | None = None
        if options.auto_group_size and options.grouping:
            chosen, group_size_profile = self.select_group_size(config)
            config = replace(config, num_groups=chosen)
        cost = CostModel(config, telemetry=config.telemetry)
        telemetry = cost.telemetry
        mixed = options.precision == "mixed"
        controller = MixedPrecisionController(cost.t_cpu_sample,
                                              cost.t_npu_sample)
        if options.fixed_alpha is not None:
            controller.alpha = options.fixed_alpha
        base_groups = config.num_groups if options.grouping else 1
        run = GroupRun(config, options, cost, controller, base_groups)
        scheduler = run.scheduler
        scheduler.dispatch(cost)

        state: dict = {}
        preempted = 0
        start_epoch = 0
        if options.resume and options.checkpoint_path is not None:
            start_epoch = self._try_resume(options.checkpoint_path, run,
                                           config)
        current_dead: set[int] = set()
        recoveries: list[dict] = []
        task = config.task

        def probe(group: GroupMixedTrainer) -> None:
            # The group-size heuristic profiles *pre-merge* accuracy
            # during the first epoch (§3.1) — one group's own model.
            state["first_epoch_group_accuracy"] = evaluate_accuracy(
                group.fp32, task.x_test, task.y_test)

        try:
            for epoch in range(start_epoch, config.max_epochs):
                epoch_start = cost.epoch_start()
                dead, storms = scheduler.enter_epoch(epoch, cost.fabric)
                if dead != current_dead:
                    survivors = [s for s in range(config.topology.num_socs)
                                 if s not in dead]
                    if not survivors:
                        state["all_dead_epoch"] = epoch
                        break
                    # Eq. 1 sizing re-runs on the survivors; the weights
                    # roll back to the last merged state
                    num_groups = survivor_group_count(
                        len(survivors), base_groups, config.topology.num_socs)
                    rolled_back_to = run.anchor.epoch
                    recovery_s = run.regroup(
                        num_groups, survivors, name=f"recovery@{epoch}",
                        dead_socs=sorted(dead), num_groups=num_groups,
                        rolled_back_to=rolled_back_to)
                    recoveries.append({
                        "epoch": epoch, "dead_socs": sorted(dead),
                        "num_groups": num_groups,
                        "rolled_back_to": rolled_back_to,
                        "recovery_seconds": recovery_s,
                    })
                    preempted = min(preempted, len(run.groups) - 1)
                    current_dead = dead
                held = sum(len(socs) for socs in run.mapping.groups)
                for storm in storms:
                    preempted = self._handle_preemption(
                        storm, run.groups, preempted, cost, scheduler, held)
                active = len(run.groups) - preempted
                run.run_epoch(active, pre_merge=probe if epoch == 0 else None)
                accuracy = run.history[-1]
                self._note_target(accuracy, epoch, config, state)
                if options.checkpoint_path is not None:
                    replace(run.anchor, rng_seed=config.seed,
                            meta={"model": config.model_name}
                            ).save(options.checkpoint_path)
                    # writing to UFS happens off the critical path on
                    # every SoC, but the leader's write is charged once
                    # per epoch
                    scheduler.checkpoint(cost, "update", held,
                                         name="checkpoint:epoch", epoch=epoch)
                record_epoch_telemetry(
                    cost, epoch_start, epoch, accuracy,
                    controller=controller if mixed else None,
                    num_groups=active)
        finally:
            run.close()
        groups, mapping, plan = run.groups, run.mapping, run.plan
        extra = {
            "first_epoch_group_accuracy":
                state.get("first_epoch_group_accuracy", 0.0),
            "num_groups": mapping.num_groups,
            "conflict_count": mapping.conflict_count(),
            "num_cgs": plan.num_cgs,
            "alpha_history": list(controller.history),
            "groups_preempted": preempted,
        }
        if group_size_profile is not None:
            extra["group_size_profile"] = group_size_profile
        if config.fault_schedule is not None:
            extra["aborted"] = False
            if "all_dead_epoch" in state:
                extra["all_dead_epoch"] = state["all_dead_epoch"]
            extra["recoveries"] = recoveries
            extra["final_num_groups"] = mapping.num_groups
            extra["final_groups"] = [list(g) for g in mapping.groups]
            extra["dead_socs"] = sorted(current_dead)
            extra["network_retries"] = cost.fabric.total_retries
        extra["final_state"] = groups[0].state_dict()
        evictions = groups[0].arena.workspace_evictions()
        if evictions:
            # the run cycled through more conv/pool scratch shapes than
            # the op workspace cache holds and kept reallocating some
            extra["workspace_evictions"] = evictions
            telemetry.metrics.counter("nn.workspace_evictions").inc(evictions)
        run.flush_graph_stats(telemetry, cost.clock.now, extra)
        return self._result(self.name, config, cost, run.history, state,
                            extra)

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    @staticmethod
    def _try_resume(path: str, run: GroupRun, config: RunConfig) -> int:
        """Restore a prior run's state into ``run`` (it becomes the
        rollback anchor); returns the epoch to resume at."""
        try:
            checkpoint = TrainingCheckpoint.load(path)
        except FileNotFoundError:
            return 0
        for group in run.groups:
            group.load_state(checkpoint.model_state)
        run.controller.alpha = checkpoint.alpha
        run.history.extend(checkpoint.accuracy_history)
        run.anchor = checkpoint
        return min(checkpoint.epoch + 1, config.max_epochs)

    @staticmethod
    def _handle_preemption(event: PreemptionStorm,
                           groups: list[GroupMixedTrainer], preempted: int,
                           cost: CostModel, scheduler: GlobalScheduler,
                           num_socs: int) -> int:
        """Terminate whole logical groups; checkpoint their models while
        the run's ``num_socs`` SoCs wait."""
        newly = min(event.num_groups, len(groups) - preempted - 1)
        if newly > 0:
            telemetry = cost.telemetry
            telemetry.tracer.event("preemption", cost.clock.now,
                                   epoch=event.epoch, num_groups=newly)
            scheduler.checkpoint(cost, "sync", num_socs,
                                 name="checkpoint:preempt")
            telemetry.metrics.counter("preemptions.groups").inc(newly)
        return preempted + max(0, newly)
