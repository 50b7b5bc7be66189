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
``mixed`` (CPU+NPU vs CPU only).

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

from ..cluster.clock import PhaseClock
from ..comm.buckets import bucketed_average_states
from ..distributed.base import (CostModel, RunConfig, Strategy,
                                StrategyResult, evaluate_accuracy)
from ..quant.int8 import QuantConfig
from ..quant.mixed import MixedPrecisionController
from .grouping import survivor_group_count
from .mapping import MappingResult, integrity_greedy_mapping, naive_mapping
from .mixed_precision import GroupMixedTrainer
from .planning import CommunicationPlan
from .scheduler import GlobalScheduler, PreemptionEvent

__all__ = ["SoCFlowOptions", "SoCFlow", "build_socflow", "build_groups",
           "reform_groups"]


def _grow_groups(config: RunConfig, controller, quant,
                 groups: "list[GroupMixedTrainer]", num_groups: int,
                 int8_only: bool) -> "list[GroupMixedTrainer]":
    """Append members up to ``num_groups`` at their seed offsets, on
    ``groups[0]``'s step arena and without initial weights of their
    own: the caller loads them."""
    for g in range(len(groups), num_groups):
        trainer = GroupMixedTrainer(config, controller, quant,
                                    seed_offset=g, mixed=groups[0].mixed,
                                    arena=groups[0].arena,
                                    init_weights=False)
        if int8_only:
            trainer.train_batch = _int8_only_step(trainer)  # type: ignore
        groups.append(trainer)
    return groups


def build_groups(config: RunConfig, controller, quant, num_groups: int,
                 mixed: bool, int8_only: bool = False
                 ) -> "list[GroupMixedTrainer]":
    """The logical groups of a new run: group 0 draws the seeded
    initial weights and makes the run's step arena; the others start
    from group 0's weights."""
    base = GroupMixedTrainer(config, controller, quant, seed_offset=0,
                             mixed=mixed)
    if int8_only:
        base.train_batch = _int8_only_step(base)  # type: ignore
    groups = _grow_groups(config, controller, quant, [base], num_groups,
                          int8_only)
    init_state = base.state_dict()
    for group in groups[1:]:
        group.load_state(init_state)
    return groups


def reform_groups(config: RunConfig, controller, quant,
                  groups: "list[GroupMixedTrainer]", num_groups: int,
                  state: dict, int8_only: bool = False
                  ) -> "list[GroupMixedTrainer]":
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
                          num_groups, int8_only)
    for group in groups:
        group.load_state(state)
    return groups


@dataclass(frozen=True)
class SoCFlowOptions:
    """Feature switches (all on = the full system; see Figure 13)."""

    grouping: bool = True
    mapping: str = "integrity"          # "integrity" | "naive"
    planning: bool = True
    mixed: bool = True
    #: None = dynamic alpha (profiled per epoch); a float pins it
    #: (Figure 14's "Ours-Half" uses fixed alpha = 0.7)
    fixed_alpha: float | None = None
    #: "mixed" | "fp32" | "int8" — the Figure 14 precision modes
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
                                    fault_schedule=config.fault_schedule,
                                    telemetry=telemetry)

        mixed = options.mixed and options.precision == "mixed"
        controller = MixedPrecisionController(cost.t_cpu_sample,
                                              cost.t_npu_sample)
        if options.fixed_alpha is not None:
            controller.alpha = options.fixed_alpha

        groups = self._build_groups(config, mapping, controller, mixed)
        val_x = config.task.x_test[:128]
        rng = np.random.default_rng(config.seed)

        model_bytes = cost.grad_bytes
        dispatch_t0 = cost.clock.now
        dispatch_s = scheduler.dispatch_seconds(
            cost.fabric, model_bytes,
            data_bytes_per_soc=config.sim_samples_per_epoch
            * np.prod(config.task.input_shape) / config.topology.num_socs)
        cost.charge_epoch_sync(dispatch_s, config.topology.num_socs)
        if telemetry.tracer.enabled:
            telemetry.tracer.span("dispatch", dispatch_t0, dispatch_s,
                                  model_bytes=model_bytes,
                                  num_socs=config.topology.num_socs)

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
        executor = self._make_executor(config, cost, mixed, telemetry)
        try:
            for epoch in range(start_epoch, config.max_epochs):
                epoch_t0 = cost.clock.now
                epoch_phases0 = cost.clock.breakdown()
                epoch_hidden0 = cost.clock.attributed_breakdown()
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
                        event, groups, preempted, cost, model_bytes)
                active = groups[:len(groups) - preempted] if preempted else groups
                if not active:
                    break
                active_mapping = MappingResult(
                    [mapping.groups[i] for i in range(len(active))],
                    config.topology)
                active_plan = CommunicationPlan.from_mapping(active_mapping)

                self._run_real_epoch(config, active, epoch, rng, executor)
                layout = active[0].fp32.flatten_parameters().layout
                self._charge_epoch(config, cost, active_mapping, active_plan,
                                   controller, scheduler, mixed, epoch,
                                   layout=layout)

                if epoch == 0:
                    # The group-size heuristic profiles *pre-merge* accuracy
                    # during the first epoch (§3.1) — one group's own model.
                    state["first_epoch_group_accuracy"] = evaluate_accuracy(
                        active[0].fp32, config.task.x_test, config.task.y_test)

                # Host data plane mirrors the fusion plan: the same
                # bucket boundaries aggregate the real weights, bit-
                # identically to the whole-model fused path.
                merged = bucketed_average_states(
                    [g.state_dict() for g in active],
                    cost.bucket_plan(layout), metrics=telemetry.metrics)
                for group in active:
                    group.load_state(merged)
                last_good = (merged, epoch)
                if mixed and options.fixed_alpha is None:
                    controller.update_alpha(
                        *self._profile_logits(active[0], val_x))

                accuracy = evaluate_accuracy(active[0].fp32, config.task.x_test,
                                             config.task.y_test)
                self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                                 history, state)
                if options.checkpoint_path is not None:
                    self._write_checkpoint(options.checkpoint_path, active[0],
                                           epoch, history, controller, cost,
                                           config)
                if telemetry.enabled:
                    self._record_epoch_telemetry(
                        telemetry, cost, epoch, epoch_t0, epoch_phases0,
                        accuracy, controller if mixed else None,
                        active_mapping, hidden0=epoch_hidden0)

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
    def _make_executor(self, config: RunConfig, cost: CostModel,
                       mixed: bool, telemetry):
        """A worker pool for ``config.workers > 1``, else None.

        The executor replicates each logical group in a worker process
        (same config, same seed offsets), so it needs exactly the
        inputs ``_build_groups`` consumed.
        """
        if getattr(config, "workers", 1) <= 1:
            return None
        from ..parallel import LgExecutor
        # Worker replicas mirror _build_groups: INT8-only mode also
        # constructs the dual-model trainer, then swaps in the pure
        # INT8 step.
        executor = LgExecutor(
            config, quant=self.options.quant,
            mixed=mixed or self.options.precision == "int8",
            int8_only=self.options.precision == "int8",
            t_cpu=cost.t_cpu_sample, t_npu=cost.t_npu_sample,
            telemetry=telemetry, workers=config.workers)
        if not executor.parallel:                       # pragma: no cover
            executor.close()
            return None
        return executor

    def _build_groups(self, config: RunConfig, mapping: MappingResult,
                      controller: MixedPrecisionController,
                      mixed: bool) -> list[GroupMixedTrainer]:
        options = self.options
        return build_groups(config, controller, options.quant,
                            mapping.num_groups,
                            mixed=mixed or options.precision == "int8",
                            int8_only=options.precision == "int8")

    @staticmethod
    def _profile_logits(group: GroupMixedTrainer,
                        val_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from ..nn.tensor import Tensor, no_grad
        group.fp32.eval()
        with no_grad():
            logits_fp32 = group.fp32(Tensor(val_x)).data
        logits_int8 = group.int8.predict_logits(val_x)
        return logits_fp32, logits_int8

    def _run_real_epoch(self, config: RunConfig,
                        groups: list[GroupMixedTrainer], epoch: int,
                        rng: np.random.Generator, executor=None) -> None:
        """Cross-group shuffle + lock-step group batches (real math)."""
        n = len(groups)
        order = rng.permutation(len(config.task.x_train))
        shards = np.array_split(order, n)
        # config.batch_size is BS_g: every group steps with a full batch
        # (Table 1 — the paper's "global batch size 64" is per group).
        group_batch = min(config.batch_size, min(len(s) for s in shards))
        steps = max(1, min(len(s) for s in shards) // group_batch)
        if executor is not None and executor.parallel and n > 1:
            # Group-major parallel schedule; bit-identical to the
            # step-major loop below because groups are independent
            # between sync points (see repro.parallel.pool).
            executor.run_epoch(groups, shards, steps, group_batch)
            return
        for step in range(steps):
            for group, shard in zip(groups, shards):
                idx = shard[step * group_batch:(step + 1) * group_batch]
                group.train_batch(config.task.x_train[idx],
                                  config.task.y_train[idx])

    def _charge_epoch(self, config: RunConfig, cost: CostModel,
                      mapping: MappingResult, plan: CommunicationPlan,
                      controller: MixedPrecisionController,
                      scheduler: GlobalScheduler, mixed: bool,
                      epoch: int = 0, layout=None) -> None:
        """Advance the simulated clock for one full-scale epoch.

        ``layout`` is the groups' shared flat parameter layout; with
        bucketed fusion enabled it drives the per-bucket sync timeline
        (each bucket runs the full CG schedule on its payload slice,
        overlapping the backward pass of the step that produced it).
        """
        options = self.options
        telemetry = cost.telemetry
        n = mapping.num_groups
        # SoCs actually hosting groups this epoch (survivors only, when
        # faults shrank the cluster).
        num_active_socs = sum(len(socs) for socs in mapping.groups)
        # BS_g samples per group-step, spread over the group's M/N SoCs.
        per_soc_samples = config.sim_global_batch * n / num_active_socs

        if options.precision == "int8":
            cpu_n, npu_n = 0.0, per_soc_samples
        elif mixed:
            share = controller.cpu_share
            cpu_n = share * per_soc_samples
            npu_n = per_soc_samples - cpu_n
        else:
            cpu_n, npu_n = per_soc_samples, 0.0
        cpu_busy = cpu_n * cost.t_cpu_sample
        npu_busy = npu_n * cost.t_npu_sample
        slowdown = max((scheduler.group_slowdown(socs)
                        for socs in mapping.groups), default=1.0)
        compute_s = max(cpu_busy, npu_busy) * slowdown

        from ..distributed.base import OVERLAP_FRACTION
        payload = cost.grad_bytes

        def branch_sync(nbytes: float, num_tensors: "float | None" = None):
            """(raw, cg_times) of one sync at ``nbytes`` payload."""
            if mapping.num_groups == 1:
                t = cost.fabric.ring_allreduce_time(
                    mapping.groups[0], nbytes, num_tensors=num_tensors)
                return t, [t]
            if options.planning:
                times = plan.planned_sync_seconds(cost.fabric, nbytes,
                                                  num_tensors=num_tensors)
                return sum(times), times
            return plan.unplanned_sync_seconds(
                cost.fabric, nbytes, num_tensors=num_tensors), None

        raw, cg_times = branch_sync(payload)
        if mapping.num_groups > 1 and options.planning:
            # Figure 7: the planned CG schedule interleaves each CG's sync
            # with the other CG's compute, hiding up to a full compute
            # window of synchronisation.
            hidden = min(raw, compute_s)
        else:
            hidden = min(raw, OVERLAP_FRACTION * compute_s)

        bucket_plan = cost.bucket_plan(layout)
        bucket_schedule = None
        if bucket_plan is not None:
            # Bucket granularity: every gradient bucket runs the full CG
            # sequence on its slice of the payload, starting as soon as
            # backward emits it; the overlap timeline then decides how
            # much of the epoch's sync hides under compute.
            bucket_times = [
                branch_sync(b_bytes, num_tensors=b_tensors)[0]
                for b_bytes, b_tensors in zip(
                    bucket_plan.sim_bytes(payload),
                    bucket_plan.sim_tensors(cost.profile.num_tensors))]
            sync_s, hidden, bucket_schedule = cost.overlapped_sync(
                compute_s, bucket_plan, bucket_times, raw, hidden)
            raw = sync_s + hidden
        else:
            sync_s = raw - hidden

        update_s = cost.update_seconds()
        # All N groups step in parallel: one parallel step consumes
        # N * BS_g samples of the epoch.
        steps = max(1, -(-config.sim_samples_per_epoch
                         // (n * config.sim_global_batch)))
        t0 = cost.clock.now
        cost.clock.advance(steps * compute_s, "compute")
        cost.clock.advance(steps * sync_s, "sync")
        cost.clock.attribute(steps * hidden, "sync")
        cost.clock.advance(steps * update_s, "update")
        cost.energy.charge_mixed(steps * cpu_busy, steps * npu_busy,
                                 steps * compute_s, num_active_socs)
        cost.energy.charge_network(steps * sync_s, num_active_socs)
        cost.energy.charge_network(steps * hidden, num_active_socs,
                                   include_idle=False)
        cost.energy.charge_compute(steps * update_s, num_active_socs, 1.0)

        if telemetry.tracer.enabled:
            self._emit_step_spans(telemetry.tracer, mapping, plan, t0, steps,
                                  compute_s, sync_s, hidden, update_s, raw,
                                  cg_times, slowdown, cpu_n, npu_n,
                                  bucket_schedule=bucket_schedule)

        # Epoch tail: one unhidden intra-group sync + the leader ring
        # (delayed aggregation) — "the extra delay of SoCFlow is only one
        # intra-group and inter-group synchronization time".
        tail_t0 = cost.clock.now
        tail = plan.planned_sync_seconds(cost.fabric, payload)
        leaders = [socs[0] for socs in mapping.groups]
        inter = (cost.fabric.ring_allreduce_time(leaders, payload)
                 if len(leaders) > 1 else 0.0)
        cost.charge_epoch_sync(sum(tail) + inter, num_active_socs)

        if telemetry.tracer.enabled:
            self._emit_tail_spans(telemetry.tracer, mapping, plan, tail_t0,
                                  tail, inter, leaders)
        if telemetry.metrics.enabled:
            metrics = telemetry.metrics
            # Exact NIC accounting: `steps` in-epoch intra-group syncs,
            # one tail sync, one leader ring.  Bucketed syncs go through
            # the conservation-checked path: the per-bucket loads must
            # sum to the whole-model loads or the fabric raises.
            if bucket_plan is not None:
                intra = cost.fabric.bucketed_pcb_ring_bytes(
                    mapping.groups, bucket_plan.sim_bytes(payload),
                    total_bytes=payload)
            else:
                intra = cost.fabric.pcb_ring_bytes(mapping.groups, payload)
            for pcb, nbytes in sorted(intra.items()):
                metrics.counter("nic.bytes", pcb=pcb).inc(
                    (steps + 1) * nbytes)
            for pcb, nbytes in sorted(
                    cost.fabric.pcb_ring_bytes([leaders], payload).items()):
                metrics.counter("nic.bytes", pcb=pcb).inc(nbytes)
            metrics.gauge("compute.slowdown").set(slowdown)
            metrics.histogram("sync.hidden_fraction").observe(
                hidden / raw if raw > 0 else 0.0)

    # ------------------------------------------------------------------
    # Telemetry emission (pure observation: no simulation state touched)
    # ------------------------------------------------------------------
    @staticmethod
    def _emit_step_spans(tracer, mapping: MappingResult,
                         plan: CommunicationPlan, t0: float, steps: int,
                         compute_s: float, sync_s: float, hidden: float,
                         update_s: float, raw: float,
                         cg_times: "list[float] | None", slowdown: float,
                         cpu_n: float, npu_n: float,
                         bucket_schedule=None) -> None:
        """Spans for the in-epoch step windows, per SoC with LG/CG tags.

        The epoch's ``steps`` identical step windows are drawn as one
        aggregated compute span and one sync span per SoC; the planned
        CG schedule lays each CG's visible share out sequentially, the
        unplanned fallback draws every ring concurrently.  ``args``
        carry the raw (pre-hiding) and hidden seconds so the trace
        accounts for overlapped communication too.  With bucketed
        fusion, each bucket's collective additionally gets its own span
        (scaled by ``steps``, like the windows it rides in), whose
        ``hidden_s`` arg is the share that ran under backward.
        """
        compute_end = t0 + steps * compute_s
        for lg, socs in enumerate(mapping.groups):
            for soc in socs:
                tracer.span("compute", t0, steps * compute_s, soc=soc,
                            lg=lg, steps=steps, slowdown=slowdown,
                            cpu_samples=cpu_n, npu_samples=npu_n)
        if bucket_schedule:
            for index, (start, end) in enumerate(bucket_schedule):
                tracer.span(
                    "bucket_sync", t0 + steps * start, steps * (end - start),
                    bucket=index, steps=steps,
                    hidden_s=steps * max(0.0, min(end, compute_s) - start))
        visible = steps * sync_s
        if cg_times is not None:
            cursor = compute_end
            for cg_idx, cg in enumerate(plan.cgs):
                if cg_idx >= len(cg_times):
                    break
                share = (cg_times[cg_idx] / raw * visible if raw > 0
                         else 0.0)
                for lg in cg:
                    for soc in mapping.groups[lg]:
                        tracer.span("allreduce", cursor, share, soc=soc,
                                    lg=lg, cg=cg_idx,
                                    raw_s=steps * cg_times[cg_idx],
                                    hidden_s=steps * hidden)
                cursor += share
        else:
            for lg, socs in enumerate(mapping.groups):
                for soc in socs:
                    tracer.span("allreduce", compute_end, visible, soc=soc,
                                lg=lg, raw_s=steps * raw,
                                hidden_s=steps * hidden)
        tracer.span("update", compute_end + visible, steps * update_s,
                    steps=steps)

    @staticmethod
    def _emit_tail_spans(tracer, mapping: MappingResult,
                         plan: CommunicationPlan, tail_t0: float,
                         tail: list[float], inter: float,
                         leaders: list[int]) -> None:
        """The epoch tail: per-CG intra-group syncs, then the leader ring."""
        cursor = tail_t0
        for cg_idx, cg in enumerate(plan.cgs):
            if cg_idx >= len(tail):
                break
            for lg in cg:
                for soc in mapping.groups[lg]:
                    tracer.span("allreduce", cursor, tail[cg_idx],
                                name="allreduce:tail", soc=soc, lg=lg,
                                cg=cg_idx)
            cursor += tail[cg_idx]
        if inter > 0:
            for lg, leader in enumerate(leaders):
                tracer.span("leader_sync", cursor, inter, soc=leader,
                            lg=lg, num_leaders=len(leaders))

    @staticmethod
    def _record_epoch_telemetry(telemetry, cost: CostModel, epoch: int,
                                epoch_t0: float, phases0: dict,
                                accuracy: float, controller, mapping,
                                hidden0: dict | None = None) -> None:
        """Per-epoch report row, epoch span, and epoch-level metrics."""
        phases1 = cost.clock.breakdown()
        delta = {phase: phases1.get(phase, 0.0) - phases0.get(phase, 0.0)
                 for phase in phases1}
        seconds = cost.clock.now - epoch_t0
        alpha = controller.alpha if controller is not None else None
        hidden1 = cost.clock.attributed_breakdown()
        hidden_s = (hidden1.get("sync", 0.0)
                    - (hidden0 or {}).get("sync", 0.0))
        telemetry.record_epoch(
            epoch=epoch, seconds=seconds,
            compute_s=delta.get("compute", 0.0),
            sync_s=delta.get("sync", 0.0),
            hidden_s=hidden_s,
            update_s=delta.get("update", 0.0),
            recovery_s=delta.get("recovery") or None,
            accuracy=accuracy, alpha=alpha,
            retries=cost.fabric.total_retries)
        if telemetry.tracer.enabled:
            telemetry.tracer.span(
                "epoch", epoch_t0, seconds, name=f"epoch {epoch}",
                epoch=epoch, accuracy=accuracy,
                num_groups=mapping.num_groups,
                **({"alpha": alpha} if alpha is not None else {}))
        metrics = telemetry.metrics
        if metrics.enabled:
            metrics.counter("epochs").inc()
            metrics.histogram("epoch.seconds").observe(seconds)
            for phase, value in sorted(delta.items()):
                metrics.counter("phase.seconds", phase=phase).inc(value)
            if alpha is not None:
                metrics.gauge("mixed.alpha").set(alpha)
                metrics.gauge("mixed.beta").set(controller.beta)
                metrics.gauge("mixed.cpu_share").set(controller.cpu_share)

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
                          cost: CostModel, config: RunConfig) -> None:
        from .checkpoint import TrainingCheckpoint
        checkpoint = TrainingCheckpoint(
            model_state=group.state_dict(), epoch=epoch,
            accuracy_history=list(history), alpha=controller.alpha,
            rng_seed=config.seed, meta={"model": config.model_name})
        checkpoint.save(path)
        # writing to UFS happens off the critical path on every SoC,
        # but the leader's write is charged once per epoch
        write_t0 = cost.clock.now
        write_s = checkpoint.write_seconds()
        cost.clock.advance(write_s, "update")
        if cost.telemetry.tracer.enabled:
            cost.telemetry.tracer.span("checkpoint", write_t0, write_s,
                                       name="checkpoint:epoch", epoch=epoch)

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
        groups = reform_groups(
            config, controller, self.options.quant, groups, num_groups,
            rollback_state, int8_only=self.options.precision == "int8")
        recovery_t0 = cost.clock.now
        recovery_s = scheduler.recovery_seconds(cost.grad_bytes, cost.fabric,
                                                survivors)
        # The recovery step is priced on a scratch clock under its own
        # phase and merged in, so the per-epoch report can attribute it
        # separately from ordinary synchronisation.
        recovery_clock = PhaseClock()
        recovery_clock.advance(recovery_s, "recovery")
        cost.clock.merge(recovery_clock)
        cost.energy.charge_network(recovery_s, len(survivors))
        telemetry = cost.telemetry
        if telemetry.tracer.enabled:
            telemetry.tracer.span(
                "recovery", recovery_t0, recovery_s,
                name=f"recovery@{epoch}", dead_socs=sorted(dead),
                survivors=len(survivors), num_groups=mapping.num_groups,
                rolled_back_to=rollback_epoch)
        if telemetry.metrics.enabled:
            telemetry.metrics.counter("recovery.count").inc()
            telemetry.metrics.histogram("recovery.seconds").observe(
                recovery_s)
        recoveries.append({
            "epoch": epoch,
            "dead_socs": sorted(dead),
            "num_groups": mapping.num_groups,
            "rolled_back_to": rollback_epoch,
            "recovery_seconds": recovery_s,
        })
        return mapping, plan, groups

    def _handle_preemption(self, event: PreemptionEvent,
                           groups: list[GroupMixedTrainer], preempted: int,
                           cost: CostModel, model_bytes: float) -> int:
        """Terminate whole logical groups; checkpoint their models."""
        newly = min(event.num_groups, len(groups) - preempted - 1)
        if newly > 0:
            checkpoint_t0 = cost.clock.now
            checkpoint_s = GlobalScheduler.checkpoint_seconds(model_bytes)
            cost.clock.advance(checkpoint_s, "sync")
            telemetry = cost.telemetry
            if telemetry.tracer.enabled:
                telemetry.tracer.event("preemption", checkpoint_t0,
                                       epoch=event.epoch, num_groups=newly)
                telemetry.tracer.span("checkpoint", checkpoint_t0,
                                      checkpoint_s, name="checkpoint:preempt",
                                      model_bytes=model_bytes)
            telemetry.metrics.counter("preemptions.groups").inc(newly)
        return preempted + max(0, newly)


def _int8_only_step(trainer: GroupMixedTrainer):
    """Replace the mixed step with a pure INT8 step (Ours-INT8 mode)."""
    def step(x, y):
        trainer.int8.train_step(x, y)
        state = trainer.int8.model.state_dict()
        trainer.fp32.load_state_dict(state)
    return step


def build_socflow(**kwargs) -> SoCFlow:
    """Convenience constructor: ``build_socflow(planning=False, ...)``."""
    return SoCFlow(SoCFlowOptions(**kwargs))
