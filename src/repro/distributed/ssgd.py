"""Synchronous data-parallel SGD core shared by PS / RING / HiPress / 2D.

All four baselines compute mathematically identical updates (Table 3
shows them converging to the same accuracy); they differ in *where the
time goes*, which is what their ``step_sync_seconds`` hooks model.
HiPress additionally transforms the gradients for real (DGC).
"""

from __future__ import annotations

from functools import partial

from ..data.loader import ArrayDataset, DataLoader
from ..nn.optim import SGD
from . import pricing
from .base import (CostModel, RunConfig, Strategy, StrategyResult,
                   evaluate_accuracy, flush_graph_stats, fp32_train_step,
                   make_model, record_epoch_telemetry)

__all__ = ["SsgdStrategy"]


class SsgdStrategy(Strategy):
    """Template: per-batch whole-cluster synchronisation, FP32 on CPUs."""

    name = "ssgd"

    # -- hooks ------------------------------------------------------------
    def step_sync_seconds(self, cost: CostModel, nbytes: float,
                          num_tensors: float | None = None) -> float:
        """Simulated time of the strategy's collective over ``nbytes``.

        Priced once for the whole gradient payload and, under bucketed
        fusion, once per bucket — a slice of the payload and, through
        ``num_tensors``, of the launch cost.
        """
        raise NotImplementedError

    def step_compute_seconds(self, cost: CostModel,
                             num_socs: int | None = None) -> float:
        """Per-step compute; each SoC trains its slice of the batch."""
        num_socs = num_socs or cost.topology.num_socs
        per_soc = cost.config.sim_global_batch / num_socs
        return cost.compute_seconds(per_soc, "cpu")

    #: ``transform_gradients(model)``, for a strategy that rewrites the
    #: gradients between backward and the update (HiPress); it is the
    #: step's ``grad_hook``, eager and replayed alike
    transform_gradients = None

    def on_epoch_begin(self, epoch: int) -> None:
        """Hook for per-epoch schedules (HiPress's DGC warm-up)."""

    def _price_step(self, cost: CostModel, layout,
                    num_socs: int) -> pricing.EpochCharge:
        """One step's charge from the compute/sync hooks above."""
        return pricing.price_epoch(
            cost, layout=layout, num_socs=num_socs,
            compute_s=self.step_compute_seconds(cost, num_socs),
            collective=partial(self.step_sync_seconds, cost))

    # -- main loop ---------------------------------------------------------
    def train(self, config: RunConfig) -> StrategyResult:
        cost = CostModel(config, telemetry=config.telemetry)
        model = make_model(config)
        flat = model.flatten_parameters()
        optimizer = SGD(model.parameters(), lr=config.lr,
                        momentum=config.momentum,
                        weight_decay=config.weight_decay,
                        flat=flat)
        if config.graph:
            model.enable_graph_executor()
        loader = DataLoader(
            ArrayDataset(config.task.x_train, config.task.y_train),
            config.batch_size, shuffle=True, seed=config.seed)

        layout = flat.layout
        charge = self._price_step(cost, layout, cost.topology.num_socs)
        history: list[float] = []
        state: dict = {}
        extra: dict = {}
        for epoch in range(config.max_epochs):
            epoch_start = cost.epoch_start()
            dead, abort = self._epoch_fault_state(config, epoch, cost)
            if abort:
                # fail-stop: the synchronous ring/PS collective hangs on
                # the dead member and the job dies with it.
                extra.update(aborted=True, abort_epoch=epoch,
                             dead_socs=sorted(dead))
                break
            num_socs = cost.topology.num_socs - len(dead)
            if dead or config.fault_schedule is not None:
                # continue-with-survivors: the same global batch spreads
                # over fewer chips and syncs over possibly degraded links.
                charge = self._price_step(cost, layout, num_socs)
            self.on_epoch_begin(epoch)
            for x, y in loader:
                fp32_train_step(model, optimizer, x, y,
                                grad_hook=self.transform_gradients)
            for _ in range(cost.steps_per_epoch):
                pricing.apply(cost, charge)
            accuracy = evaluate_accuracy(model, config.task.x_test,
                                         config.task.y_test)
            self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                             history, state)
            record_epoch_telemetry(cost, epoch_start, epoch, accuracy)
        if config.fault_schedule is not None:
            extra.setdefault("aborted", False)
        flush_graph_stats(model, cost, extra)
        return self._result(self.name, config, cost, history, state, extra)
