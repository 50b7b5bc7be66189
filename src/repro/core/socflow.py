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
(ring all-reduces slow down and pay timeout/retry backoff) and
persistent stragglers fold into the underclock rebalancing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..comm.buckets import bucketed_average_states
from ..distributed import pricing
from ..distributed.base import (CostModel, RunConfig, Strategy,
                                StrategyResult, evaluate_accuracy,
                                record_epoch_telemetry)
from ..quant.int8 import QuantConfig
from ..quant.mixed import MixedPrecisionController
from .grouping import survivor_group_count
from .mapping import MappingResult, integrity_greedy_mapping, naive_mapping
from .mixed_precision import GroupMixedTrainer
from .planning import CommunicationPlan
from .scheduler import GlobalScheduler, PreemptionEvent

__all__ = ["SoCFlowOptions", "SoCFlow", "build_socflow", "build_groups",
           "reform_groups", "make_lg_executor", "run_group_epoch"]


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
    if getattr(config, "workers", 1) <= 1:
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
    events: tuple = ()
    #: write a resumable checkpoint here after every epoch
    checkpoint_path: str | None = None
    #: resume from ``checkpoint_path`` when it exists
    resume: bool = False
    #: run the §3.1 warm-up heuristic: profile first-epoch accuracy at
    #: doubling group counts and pick the largest that holds up
    auto_group_size: bool = False
    #: accuracy-drop threshold for the heuristic (paper: ~15%)
    group_size_drop_threshold: float = 0.15

    def __post_init__(self):
        if self.mapping not in ("integrity", "naive"):
            raise ValueError("mapping must be 'integrity' or 'naive'")
        if self.precision not in ("mixed", "fp32", "int8"):
            raise ValueError("precision must be mixed/fp32/int8")


class SoCFlow(Strategy):
    """Group-wise parallelism + delayed aggregation + mixed precision."""

    name = "socflow"

    def __init__(self, options: SoCFlowOptions | None = None):
        self.options = options or SoCFlowOptions()

    # ------------------------------------------------------------------
    # Topology decisions
    # ------------------------------------------------------------------
    def _build_mapping(self, config: RunConfig,
                       alive: "set[int] | None" = None,
                       num_groups: int | None = None) -> MappingResult:
        available = (config.topology.num_socs if alive is None
                     else len(alive))
        if num_groups is None:
            num_groups = config.num_groups if self.options.grouping else 1
        num_groups = max(1, min(num_groups, available))
        if self.options.mapping == "integrity":
            return integrity_greedy_mapping(config.topology, num_groups,
                                            alive=alive)
        return naive_mapping(config.topology, num_groups, alive=alive)

    # ------------------------------------------------------------------
    def select_group_size(self, config: RunConfig) -> tuple[int, dict]:
        """The warm-up stage: one-epoch profiles at doubling group counts.

        Returns the selected count and the accuracy profile (for
        reporting).  Uses pre-merge group-local first-epoch accuracy,
        which mirrors convergence accuracy (Figure 6).
        """
        from .grouping import GroupSizeSelector
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
        selector = GroupSizeSelector(self.options.group_size_drop_threshold)
        return selector.select(profile), profile

    def train(self, config: RunConfig) -> StrategyResult:
        options = self.options
        group_size_profile: dict | None = None
        if options.auto_group_size and options.grouping:
            chosen, group_size_profile = self.select_group_size(config)
            config = replace(config, num_groups=chosen)
        cost = CostModel(config, telemetry=config.telemetry)
        telemetry = cost.telemetry
        mapping = self._build_mapping(config)
        plan = CommunicationPlan.from_mapping(mapping)
        scheduler = GlobalScheduler(config.topology,
                                    rebalance=options.rebalance,
                                    events=list(options.events),
                                    fault_schedule=config.fault_schedule)

        mixed = options.precision == "mixed"
        controller = MixedPrecisionController(cost.t_cpu_sample,
                                              cost.t_npu_sample)
        if options.fixed_alpha is not None:
            controller.alpha = options.fixed_alpha

        groups = self._build_groups(config, mapping, controller)
        val_x = config.task.x_test[:128]
        rng = np.random.default_rng(config.seed)

        scheduler.dispatch(cost)

        history: list[float] = []
        state: dict = {}
        preempted = 0
        start_epoch = 0
        if options.resume and options.checkpoint_path is not None:
            start_epoch = self._try_resume(options.checkpoint_path, groups,
                                           controller, history, config)
        #: rollback anchor: the last globally-merged state (and its epoch)
        last_good: tuple[dict, int] = (groups[0].state_dict(), -1)
        current_dead: set[int] = set()
        recoveries: list[dict] = []
        executor = make_lg_executor(config, options.quant, options.precision,
                                    cost, telemetry)
        try:
            for epoch in range(start_epoch, config.max_epochs):
                epoch_start = cost.epoch_start()
                scheduler.apply_underclocks(epoch)
                dead = scheduler.apply_faults(epoch, cost.fabric)
                if dead != current_dead:
                    survivors = [s for s in range(config.topology.num_socs)
                                 if s not in dead]
                    if not survivors:
                        state["all_dead_epoch"] = epoch
                        break
                    mapping, plan, groups = self._recover(
                        config, controller, groups, dead, survivors, last_good,
                        cost, scheduler, recoveries, epoch)
                    preempted = min(preempted, len(groups) - 1)
                    current_dead = dead
                for event in scheduler.preemptions_at(epoch):
                    preempted = self._handle_preemption(
                        event, groups, preempted, cost, scheduler)
                active = groups[:len(groups) - preempted] if preempted else groups
                if not active:
                    break
                active_mapping = MappingResult(
                    [mapping.groups[i] for i in range(len(active))],
                    config.topology)
                active_plan = CommunicationPlan.from_mapping(active_mapping)

                run_group_epoch(config, active, rng, executor)
                layout = active[0].fp32.flatten_parameters().layout
                cpu_share = (controller.cpu_share if mixed else
                             0.0 if options.precision == "int8" else 1.0)
                pricing.apply(cost, pricing.price_epoch(
                    cost, active_mapping, active_plan, cpu_share=cpu_share,
                    slowdown=max(scheduler.group_slowdown(socs)
                                 for socs in active_mapping.groups),
                    planning=options.planning, layout=layout))

                if epoch == 0:
                    # The group-size heuristic profiles *pre-merge* accuracy
                    # during the first epoch (§3.1) — one group's own model.
                    state["first_epoch_group_accuracy"] = evaluate_accuracy(
                        active[0].fp32, config.task.x_test, config.task.y_test)

                # Host data plane mirrors the fusion plan: the same
                # bucket boundaries aggregate the real weights, bit-
                # identically to the whole-model fused path.
                merged = bucketed_average_states(
                    [g.live_state() for g in active],
                    cost.bucket_plan(layout), metrics=telemetry.metrics)
                for group in active:
                    group.load_state(merged)
                last_good = (merged, epoch)
                if mixed and options.fixed_alpha is None:
                    active[0].update_alpha(val_x)

                accuracy = evaluate_accuracy(active[0].fp32, config.task.x_test,
                                             config.task.y_test)
                self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                                 history, state)
                if options.checkpoint_path is not None:
                    self._write_checkpoint(options.checkpoint_path, active[0],
                                           epoch, history, controller, config)
                    # writing to UFS happens off the critical path on
                    # every SoC, but the leader's write is charged once
                    # per epoch
                    scheduler.checkpoint(cost, "update",
                                         name="checkpoint:epoch", epoch=epoch)
                record_epoch_telemetry(
                    cost, epoch_start, epoch, accuracy,
                    controller=controller if mixed else None,
                    num_groups=active_mapping.num_groups)

        finally:
            if executor is not None:
                executor.close()
            groups[0].arena.release()
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
        self._flush_graph_stats(groups, plan, cost, telemetry, extra)
        return self._result(self.name, config, cost, history, state, extra)

    @staticmethod
    def _flush_graph_stats(groups, plan, cost, telemetry, extra) -> None:
        """Aggregate per-precision graph-executor counters into
        ``extra["graph_stats"]``, the metrics stream and the trace.

        No-op when ``--graph`` is off (no group has an executor), so
        eager telemetry is byte-identical to pre-graph runs.  Counters
        reuse the established ``graph.*`` names with a ``precision``
        label, plus a dedicated ``graph.int8_fallbacks`` total so a
        silently-eager INT8 path is visible rather than dropped.  One
        ``graph_replay`` span per (group, precision) carries LG/CG
        attribution.  The run's plan cache adds, per precision, how
        many plans were compiled (``graph.plans``; ``unshared_plans``
        of them for a replica that could not share), how many bindings
        were made and the workspace bytes they all compute in — in
        ``extra["graph_plans"]``, the metrics stream and on the spans.
        Under ``workers > 1`` the steps run in worker replicas whose
        executor counters are not shipped back, so the main-process
        numbers only reflect local activity.
        """
        per_group = [group.graph_stats() for group in groups]
        if not any(per_group):
            return
        totals: dict[str, dict[str, int]] = {}
        for stats in per_group:
            for precision, counters in (stats or {}).items():
                total = totals.setdefault(precision, {})
                for key, value in counters.items():
                    total[key] = total.get(key, 0) + value
        extra["graph_stats"] = totals
        plans = extra["graph_plans"] = groups[0].arena.snapshot()
        metrics = telemetry.metrics
        if metrics.enabled:
            for precision, counters in totals.items():
                for key, value in counters.items():
                    metrics.counter(f"graph.{key}",
                                    precision=precision).inc(value)
            if "int8" in totals:
                metrics.counter("graph.int8_fallbacks").inc(
                    totals["int8"].get("fallbacks", 0))
            for precision, counters in plans.items():
                for key in ("plans", "binds", "unshared_plans"):
                    metrics.counter(f"graph.{key}",
                                    precision=precision).inc(counters[key])
                metrics.gauge("graph.workspace_bytes",
                              precision=precision).set(
                    counters["workspace_bytes"])
        tracer = telemetry.tracer
        if tracer.enabled:
            lg_to_cg = {lg: cg_idx for cg_idx, cg in enumerate(plan.cgs)
                        for lg in cg}
            now = cost.clock.now
            for lg, stats in enumerate(per_group):
                for precision, counters in (stats or {}).items():
                    tracer.span("graph_replay", now, 0.0, lg=lg,
                                cg=lg_to_cg.get(lg, 0),
                                precision=precision, **counters,
                                **plans.get(precision, {}))

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _build_groups(self, config: RunConfig, mapping: MappingResult,
                      controller: MixedPrecisionController
                      ) -> list[GroupMixedTrainer]:
        return build_groups(config, controller, self.options.quant,
                            mapping.num_groups,
                            precision=self.options.precision)

    @staticmethod
    def _try_resume(path: str, groups: list[GroupMixedTrainer],
                    controller: MixedPrecisionController,
                    history: list[float], config: RunConfig) -> int:
        """Restore a prior run's state; returns the epoch to resume at."""
        from .checkpoint import TrainingCheckpoint
        try:
            checkpoint = TrainingCheckpoint.load(path)
        except FileNotFoundError:
            return 0
        for group in groups:
            group.load_state(checkpoint.model_state)
        controller.alpha = checkpoint.alpha
        history.extend(checkpoint.accuracy_history)
        return min(checkpoint.epoch + 1, config.max_epochs)

    @staticmethod
    def _write_checkpoint(path: str, group: GroupMixedTrainer, epoch: int,
                          history: list[float],
                          controller: MixedPrecisionController,
                          config: RunConfig) -> None:
        from .checkpoint import TrainingCheckpoint
        TrainingCheckpoint(
            model_state=group.state_dict(), epoch=epoch,
            accuracy_history=list(history), alpha=controller.alpha,
            rng_seed=config.seed, meta={"model": config.model_name}
        ).save(path)

    def _recover(self, config: RunConfig, controller,
                 groups: list[GroupMixedTrainer], dead: set[int],
                 survivors: list[int], last_good: tuple[dict, int],
                 cost: CostModel, scheduler: GlobalScheduler,
                 recoveries: list[dict], epoch: int):
        """Roll back and re-form groups after the dead set changes.

        Eq. 1 group sizing and the mapping/CG planning re-run on the
        shrunken (or re-grown) survivor set, and the recovery step is
        charged to the clock.  Only the *weights* roll back to the last
        merged checkpoint: the surviving trainers are reused so their
        warm runtime state (optimizer momentum, INT8 calibration RNG)
        carries across the recovery instead of resetting — rebuilding
        from scratch measurably stalls the mixed-precision path.
        """
        base_groups = config.num_groups if self.options.grouping else 1
        num_groups = survivor_group_count(
            len(survivors), base_groups, config.topology.num_socs)
        mapping = self._build_mapping(config, alive=set(survivors),
                                      num_groups=num_groups)
        plan = CommunicationPlan.from_mapping(mapping)
        rollback_state, rollback_epoch = last_good
        groups = reform_groups(config, controller, self.options.quant,
                               groups, num_groups, rollback_state)
        recovery_s = scheduler.recover(
            cost, survivors, name=f"recovery@{epoch}",
            dead_socs=sorted(dead), num_groups=mapping.num_groups,
            rolled_back_to=rollback_epoch)
        recoveries.append({
            "epoch": epoch,
            "dead_socs": sorted(dead),
            "num_groups": mapping.num_groups,
            "rolled_back_to": rollback_epoch,
            "recovery_seconds": recovery_s,
        })
        return mapping, plan, groups

    @staticmethod
    def _handle_preemption(event: PreemptionEvent,
                           groups: list[GroupMixedTrainer], preempted: int,
                           cost: CostModel, scheduler: GlobalScheduler) -> int:
        """Terminate whole logical groups; checkpoint their models."""
        newly = min(event.num_groups, len(groups) - preempted - 1)
        if newly > 0:
            telemetry = cost.telemetry
            telemetry.tracer.event("preemption", cost.clock.now,
                                   epoch=event.epoch, num_groups=newly)
            scheduler.checkpoint(cost, "sync", name="checkpoint:preempt")
            telemetry.metrics.counter("preemptions.groups").inc(newly)
        return preempted + max(0, newly)


def build_socflow(**kwargs) -> SoCFlow:
    """Convenience constructor: ``build_socflow(planning=False, ...)``."""
    return SoCFlow(SoCFlowOptions(**kwargs))
