"""Shared machinery for all distributed strategies.

The hybrid-fidelity contract (DESIGN.md decision 1): learning dynamics
are executed for real at a reduced scale, while wall-clock time and
energy are charged by :class:`CostModel`, which is calibrated to the
paper's full-scale SoC-Cluster.  ``RunConfig`` therefore carries both a
*real* training configuration (the synthetic task, the reduced model
width) and a *simulated* one (paper-scale dataset size, batch size and
SoC count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cluster.clock import PhaseClock
from ..cluster.energy import EnergyModel, EnergyReport
from ..cluster.faults import FaultSchedule
from ..cluster.network import NetworkFabric
from ..cluster.spec import ModelProfile, model_profile
from ..cluster.topology import ClusterTopology
from ..data.synthetic import SyntheticImageTask
from ..nn.graph import train_step as fp32_train_step
from ..nn.modules import Module
from ..nn.models import build_model
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from ..telemetry import NULL_TELEMETRY, Telemetry
from . import pricing
from .pricing import OVERLAP_FRACTION, EpochCharge

__all__ = ["RunConfig", "CostModel", "StrategyResult", "Strategy",
           "make_model", "make_replica", "evaluate_accuracy",
           "fp32_train_step", "record_epoch_telemetry"]


@dataclass
class RunConfig:
    """Everything one training run needs.

    Real-execution fields drive the numpy training; ``sim_*`` fields
    drive the calibrated clock at paper scale.
    """

    task: SyntheticImageTask
    model_name: str = "vgg11"
    width: float = 0.25
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_epochs: int = 20
    target_accuracy: float | None = None
    seed: int = 0

    topology: ClusterTopology = field(
        default_factory=lambda: ClusterTopology(num_socs=32))
    sim_samples_per_epoch: int = 50_000
    sim_global_batch: int = 64
    #: logical group count for grouped strategies (SoCFlow, 2D, T-FedAvg)
    num_groups: int = 8
    #: host worker processes for the real-math training of independent
    #: logical groups (SoCFlow); 1 = sequential in-process execution.
    #: Results are bit-identical for any value (see repro.parallel).
    workers: int = 1
    #: pre-trained weights for transfer learning (ResNet50-Finetune):
    #: loaded into every freshly built model replica
    init_state: dict | None = None
    #: freeze the backbone after loading ``init_state`` (ResNet-50 only)
    freeze_backbone: bool = False
    #: INT8 path settings are owned by the SoCFlow strategy

    #: telemetry context (tracer + metrics); ``None`` = no instrumentation.
    #: Strategies read it through :class:`CostModel`, which anchors the
    #: tracer to the run's simulated clock.
    telemetry: Telemetry | None = None

    #: unplanned-fault timeline (crashes, NIC flaps, stragglers, storms)
    fault_schedule: FaultSchedule | None = None
    #: how *baselines* react to a dead SoC: "fail-stop" aborts the run,
    #: "continue" keeps training on the survivors.  SoCFlow ignores this
    #: and always recovers (rollback + group re-formation).
    fault_mode: str = "fail-stop"

    #: bucketed gradient fusion (DynaComm-style comm/compute overlap):
    #: close a bucket once it holds this many *simulated-scale* MiB of
    #: gradients…
    fusion_threshold_mb: float | None = None
    #: …or this many fused tensors, whichever comes first.  Both unset
    #: = whole-model sync (the pre-fusion behaviour, bit-for-bit).
    fusion_max_ops: int | None = None

    #: trace-once/replay-many compiled graph executor for the host
    #: training hot path (see :mod:`repro.nn.graph`).  Replayed steps are
    #: bit-identical to the eager interpreter; eager remains the
    #: automatic fallback for a step whose capture is refused.
    graph: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.fault_mode not in ("fail-stop", "continue"):
            raise ValueError("fault_mode must be 'fail-stop' or 'continue'")
        if (self.fusion_threshold_mb is not None
                and self.fusion_threshold_mb <= 0):
            raise ValueError("fusion_threshold_mb must be positive")
        if self.fusion_max_ops is not None and self.fusion_max_ops < 1:
            raise ValueError("fusion_max_ops must be >= 1")
        if self.fault_schedule is not None:
            self.fault_schedule.validate_for(self.topology)

    @property
    def fusion_enabled(self) -> bool:
        return (self.fusion_threshold_mb is not None
                or self.fusion_max_ops is not None)

    def model_kwargs(self, seed_offset: int = 0) -> dict:
        channels, size, _ = (self.task.input_shape[0],
                             self.task.input_shape[1],
                             self.task.input_shape[2])
        return {
            "num_classes": self.task.num_classes,
            "in_channels": channels,
            "image_size": size,
            "width": self.width,
            "seed": self.seed + seed_offset,
        }


def make_model(config: RunConfig, seed_offset: int = 0,
               init_weights: bool = True) -> Module:
    """The run's model.  ``init_weights=False`` is for a replica whose
    caller overwrites every weight before use (see ``build_model``)."""
    model = build_model(config.model_name, init_weights=init_weights,
                        **config.model_kwargs(seed_offset))
    if config.init_state is not None:
        model.load_state_dict(config.init_state)
    if config.freeze_backbone:
        if not hasattr(model, "freeze_backbone"):
            raise ValueError(
                f"{config.model_name} does not support backbone freezing")
        model.freeze_backbone()
    return model


def make_replica(config: RunConfig, *, arena=None, seed_offset: int = 0,
                 init_weights: bool = True) -> "tuple[Module, SGD]":
    """One FP32 training replica of the run: the model on its fused
    storage, its SGD and (``config.graph``) its step executor.

    ``arena`` is the run's :class:`~repro.nn.arena.StepArena` when the
    replica is one of several structurally equal ones that step one
    after another (SoCFlow's groups, SSP's chains): they then share one
    gradient plane, one update scratch and one compiled plan.  Without
    one the replica gets a private arena.
    """
    model = make_model(config, seed_offset, init_weights)
    optimizer = SGD(model.parameters(), lr=config.lr,
                    momentum=config.momentum,
                    weight_decay=config.weight_decay,
                    flat=model.flatten_parameters(arena))
    if config.graph:
        # Trace-once/replay-many step; replays are bit-identical.
        model.enable_graph_executor(arena=arena)
    return model, optimizer


def evaluate_accuracy(model: Module, x: np.ndarray, y: np.ndarray,
                      batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)``."""
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(x), batch_size):
            logits = model(Tensor(x[start:start + batch_size])).data
            pred = logits.argmax(axis=1)
            correct += int((pred == y[start:start + batch_size]).sum())
    return correct / len(x)


def flush_graph_stats(replicas: "list[Module]", cost: "CostModel",
                      extra: dict) -> None:
    """Surface a run's graph-executor counters after training.

    No-op when no replica has an executor.  Otherwise the
    capture/replay counters, summed over the replicas, land in
    ``extra["graph_stats"]``, the metrics registry (``graph.captures``
    / ``graph.replays`` / ``graph.eager_steps`` / ``graph.fallbacks``)
    and a ``graph_replay`` summary span at the current simulated clock.
    Numerics are untouched, so traced and untraced runs stay
    bit-identical.
    """
    snapshots = [model._graph_exec.snapshot() for model in replicas
                 if getattr(model, "_graph_exec", None) is not None]
    if not snapshots:
        return
    stats = extra["graph_stats"] = {
        key: sum(snapshot[key] for snapshot in snapshots)
        for key in snapshots[0]}
    telemetry = cost.telemetry
    if telemetry.metrics.enabled:
        for key, value in stats.items():
            telemetry.metrics.counter(f"graph.{key}").inc(value)
    if telemetry.tracer.enabled:
        telemetry.tracer.span("graph_replay", cost.clock.now, 0.0, **stats)


def record_epoch_telemetry(cost: "CostModel", start: tuple, epoch: int,
                           accuracy: float, controller=None,
                           num_groups: "int | None" = None) -> None:
    """Per-epoch report row, ``epoch`` span, and epoch-level metrics.

    Marks the epoch window the analysis engine
    (:mod:`repro.telemetry.analysis`) segments the timeline by, and
    feeds the CLI per-epoch table.  ``start`` is the epoch's
    :meth:`CostModel.epoch_start` snapshot; SoCFlow adds its
    mixed-precision ``controller`` and the epoch's group count.
    """
    telemetry = cost.telemetry
    if not telemetry.enabled:
        return
    epoch_t0, phases0, hidden0 = start
    phases1 = cost.clock.breakdown()
    delta = {phase: phases1.get(phase, 0.0) - phases0.get(phase, 0.0)
             for phase in phases1}
    seconds = cost.clock.now - epoch_t0
    hidden_s = cost.clock.attributed_breakdown().get("sync", 0.0) - hidden0
    alpha = controller.alpha if controller is not None else None
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
        args = {"epoch": epoch, "accuracy": accuracy}
        if num_groups is not None:
            args["num_groups"] = num_groups
        if alpha is not None:
            args["alpha"] = alpha
        telemetry.tracer.span("epoch", epoch_t0, seconds,
                              name=f"epoch {epoch}", **args)
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


class CostModel:
    """Calibrated per-phase cost calculator at paper scale."""

    def __init__(self, config: RunConfig, telemetry: Telemetry | None = None):
        """``telemetry`` must be passed explicitly by the strategy that
        owns the run's timeline; probe cost models (group sizing, Eq. 1
        planning) leave it unset so their scratch clocks never rebind
        the tracer."""
        self.config = config
        self.topology = config.topology
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.profile: ModelProfile = model_profile(config.model_name)
        self.fabric = NetworkFabric(config.topology,
                                    num_tensors=self.profile.num_tensors,
                                    telemetry=self.telemetry)
        soc = config.topology.soc
        # Measured Fig-4a latencies when available (scaled by the SoC's
        # throughput relative to the SD865 they were measured on);
        # otherwise FLOPs / sustained throughput.
        from .. cluster.spec import SOC_REGISTRY
        sd865 = SOC_REGISTRY["sd865"]
        if self.profile.t_cpu_sample_s is not None:
            self.t_cpu_sample = (self.profile.t_cpu_sample_s
                                 * sd865.cpu.flops / soc.cpu.flops)
        else:
            self.t_cpu_sample = self.profile.flops_per_sample / soc.cpu.flops
        if self.profile.t_npu_sample_s is not None:
            self.t_npu_sample = (self.profile.t_npu_sample_s
                                 * sd865.npu.flops / soc.npu.flops)
        else:
            self.t_npu_sample = self.profile.flops_per_sample / soc.npu.flops
        self.energy = EnergyModel(soc)
        self.clock = PhaseClock()
        #: interned FlatLayout id -> BucketPlan (layouts are interned,
        #: so identity is a stable cache key for the run's lifetime)
        self._bucket_plans: dict[int, "object"] = {}
        if self.telemetry.enabled:
            self.telemetry.attach(clock=self.clock, topology=self.topology)

    # -- sizes ----------------------------------------------------------
    @property
    def steps_per_epoch(self) -> int:
        return max(1, math.ceil(self.config.sim_samples_per_epoch
                                / self.config.sim_global_batch))

    @property
    def grad_bytes(self) -> float:
        return float(self.profile.payload_bytes("fp32"))

    # -- bucketed gradient fusion ---------------------------------------
    def bucket_plan(self, layout) -> "BucketPlan | None":
        """The run's :class:`~repro.comm.buckets.BucketPlan` for a model
        layout, or ``None`` when fusion is off (or there is no layout).

        The MB threshold applies at *simulated* scale: buckets close on
        their share of the paper-scale gradient payload
        (:attr:`grad_bytes`), not the reduced-width real model's bytes,
        so ``--fusion-threshold-mb 25`` means the same thing it would on
        the physical cluster.
        """
        if layout is None or not self.config.fusion_enabled:
            return None
        plan = self._bucket_plans.get(id(layout))
        if plan is None:
            from ..comm.buckets import BucketPlan
            threshold = self.config.fusion_threshold_mb
            plan = BucketPlan.from_layout(
                layout,
                threshold_bytes=(None if threshold is None
                                 else threshold * 1024 * 1024),
                max_ops=self.config.fusion_max_ops,
                total_bytes=self.grad_bytes)
            self._bucket_plans[id(layout)] = plan
        return plan

    # -- per-phase charging ---------------------------------------------
    def epoch_start(self) -> tuple:
        """``(now, phase totals, hidden sync)`` for
        :func:`record_epoch_telemetry` to diff against."""
        clock = self.clock
        return (clock.now, clock.breakdown(),
                clock.attributed_breakdown().get("sync", 0.0))

    def compute_seconds(self, samples_per_soc: float,
                        processor: str = "cpu") -> float:
        per_sample = (self.t_cpu_sample if processor == "cpu"
                      else self.t_npu_sample)
        return samples_per_soc * per_sample

    def update_seconds(self) -> float:
        """Optimizer update: memory-bound (read grad+weight+momentum,
        write weight+momentum -> ~16 bytes/parameter over LPDDR5)."""
        return 16.0 * self.profile.params / self.topology.soc.mem_bps

    def step_charge(self, compute_s: float, sync_s: float, num_socs: int,
                    cpu_fraction: float = 1.0) -> EpochCharge:
        """One flat-cluster training step as a charge.

        ``sync_s`` is reduced by the computing/communication overlap
        optimisation (all strategies get it, §4.1).  The ``steps=1``
        case of the charge SoCFlow and the job scheduler apply per
        epoch (:mod:`.pricing`).
        """
        hidden = min(sync_s, OVERLAP_FRACTION * compute_s)
        return EpochCharge(
            steps=1, compute_s=compute_s, sync_s=sync_s - hidden,
            hidden_s=hidden, update_s=self.update_seconds(),
            cpu_busy_s=compute_s * cpu_fraction,
            npu_busy_s=compute_s * (1.0 - cpu_fraction),
            num_socs=num_socs, cpu_fraction=cpu_fraction)

    def charge_step(self, compute_s: float, sync_s: float,
                    num_socs: int, cpu_fraction: float = 1.0) -> None:
        """Advance the clock by one flat-cluster training step."""
        pricing.apply(self, self.step_charge(compute_s, sync_s, num_socs,
                                             cpu_fraction))

    def charge_epoch_sync(self, sync_s: float, num_socs: int,
                          phase: str = "sync") -> None:
        """Network time with ``num_socs`` NICs busy; a rollback/re-group
        step charges it to ``"recovery"`` so the per-epoch report can
        attribute it separately from ordinary synchronisation."""
        self.clock.advance(sync_s, phase)
        self.energy.charge_network(sync_s, num_socs)

    def charge_checkpoint(self, seconds: float, phase: str) -> None:
        """One model checkpoint written to UFS, charged to ``phase``."""
        self.clock.advance(seconds, phase)


@dataclass
class StrategyResult:
    """Outcome of one strategy's training run."""

    strategy: str
    accuracy_history: list[float]
    sim_time_s: float
    breakdown: dict[str, float]
    energy: EnergyReport
    epochs_run: int
    epochs_to_target: int | None
    converged: bool
    extra: dict = field(default_factory=dict)

    @property
    def final_accuracy(self) -> float:
        return self.accuracy_history[-1] if self.accuracy_history else 0.0

    @property
    def best_accuracy(self) -> float:
        return max(self.accuracy_history) if self.accuracy_history else 0.0

    @property
    def sim_time_hours(self) -> float:
        return self.sim_time_s / 3600.0

    def phase_shares(self) -> dict[str, float]:
        """Phase → share of total *busy* time (Figure 12's breakdown).

        Overlapped sync is busy network time, so the denominator is the
        sum of phase totals, which can exceed the wall clock.
        """
        total = sum(self.breakdown.values())
        if total <= 0:
            return {phase: 0.0 for phase in self.breakdown}
        return {phase: value / total for phase, value in self.breakdown.items()}

    def time_to_target_s(self) -> float | None:
        """Simulated time at which the target accuracy was first reached."""
        if self.epochs_to_target is None or not self.epochs_run:
            return None
        return self.sim_time_s * self.epochs_to_target / self.epochs_run


class Strategy:
    """A distributed training method: real math + simulated clock.

    A strategy is two hooks around the one epoch loop of :meth:`train`.
    ``setup(config, cost)`` builds what the run keeps between epochs
    (replicas, data order, the priced step) and returns it as ``run``:
    ``run.replicas`` lists the models that take steps (their graph
    counters are summed into the result) and ``run.extra``, if set,
    seeds the result's ``extra``.  ``run_epoch(run, cost, epoch, dead)``
    trains one epoch for real on the SoCs not in ``dead``, charges it
    to ``cost`` and returns the model the epoch is scored on.  Fault
    state, scoring, bookkeeping, epoch telemetry and the result are the
    loop's, once.
    """

    name: str = "strategy"

    def cost_model(self, config: RunConfig) -> "CostModel":
        """The run's clock; its ``config`` is what the run trains under."""
        return CostModel(config, telemetry=config.telemetry)

    def setup(self, config: RunConfig, cost: "CostModel"):
        raise NotImplementedError

    def run_epoch(self, run, cost: "CostModel", epoch: int,
                  dead: "set[int]") -> Module:
        raise NotImplementedError

    def train(self, config: RunConfig) -> StrategyResult:
        """Run to ``config.max_epochs`` (or target accuracy) and report."""
        cost = self.cost_model(config)
        config = cost.config
        run = self.setup(config, cost)
        history: list[float] = []
        state: dict = {}
        extra: dict = dict(getattr(run, "extra", ()))
        schedule = config.fault_schedule
        for epoch in range(config.max_epochs):
            epoch_start = cost.epoch_start()
            dead = (set() if schedule is None
                    else schedule.enter_epoch(epoch, cost.fabric))
            if dead and config.fault_mode == "fail-stop":
                # a synchronous collective hangs on the dead member and
                # the job dies with it
                extra.update(aborted=True, abort_epoch=epoch,
                             dead_socs=sorted(dead))
                break
            model = self.run_epoch(run, cost, epoch, dead)
            accuracy = evaluate_accuracy(model, config.task.x_test,
                                         config.task.y_test)
            self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                             history, state)
            record_epoch_telemetry(cost, epoch_start, epoch, accuracy)
        if schedule is not None:
            extra.setdefault("aborted", False)
        flush_graph_stats(run.replicas, cost, extra)
        return self._result(self.name, config, cost, history, state, extra)

    # -- helpers shared by subclasses -----------------------------------
    @staticmethod
    def _epoch_accuracy_bookkeeping(
            accuracy: float, epoch: int, config: RunConfig,
            history: list[float], state: dict) -> bool:
        """Track accuracy history / target; returns True when done early."""
        history.append(accuracy)
        target = config.target_accuracy
        if (target is not None and accuracy >= target
                and state.get("epochs_to_target") is None):
            state["epochs_to_target"] = epoch + 1
        return False

    @staticmethod
    def _result(name: str, config: RunConfig, cost: CostModel,
                history: list[float], state: dict,
                extra: dict | None = None) -> StrategyResult:
        epochs_to_target = state.get("epochs_to_target")
        extra = dict(extra or {})
        # Network observability: retries and surviving degradations are
        # tracked by the fabric for every strategy; surface them in the
        # run summary (and mirror them as metrics when a registry rides
        # along).
        extra.setdefault("network_retries", cost.fabric.total_retries)
        extra.setdefault("degraded_pcbs", cost.fabric.degraded_pcbs)
        # Comm/compute overlap observability: how much of the sync phase
        # was hidden under compute (the Figure 12 breakdown counts it as
        # busy network time, but it never advanced the wall clock).
        extra.setdefault("sync_hidden_s",
                         cost.clock.attributed_breakdown().get("sync", 0.0))
        metrics = cost.telemetry.metrics
        if metrics.enabled:
            for phase, seconds in cost.clock.breakdown().items():
                metrics.gauge("run.phase_seconds", phase=phase).set(seconds)
            metrics.gauge("run.sim_time_s").set(cost.clock.now)
        return StrategyResult(
            strategy=name,
            accuracy_history=history,
            sim_time_s=cost.clock.now,
            breakdown=cost.clock.breakdown(),
            energy=cost.energy.report,
            epochs_run=len(history),
            epochs_to_target=epochs_to_target,
            converged=epochs_to_target is not None,
            extra=extra,
        )
