"""Synchronous data-parallel SGD core shared by PS / RING / HiPress / 2D.

All four baselines compute mathematically identical updates (Table 3
shows them converging to the same accuracy); they differ in *where the
time goes*, which is what their ``step_sync_seconds`` hooks model.
HiPress additionally transforms the gradients for real (DGC).
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from ..data.loader import ArrayDataset, DataLoader
from . import pricing
from .base import (CostModel, RunConfig, Strategy, fp32_train_step,
                   make_replica)

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

    # -- the strategy's part of the epoch loop ----------------------------
    def setup(self, config: RunConfig, cost: CostModel):
        model, optimizer = make_replica(config)
        loader = DataLoader(
            ArrayDataset(config.task.x_train, config.task.y_train),
            config.batch_size, shuffle=True, seed=config.seed)
        layout = model.flatten_parameters().layout
        return SimpleNamespace(
            replicas=[model], optimizer=optimizer, loader=loader,
            layout=layout,
            charge=self._price_step(cost, layout, cost.topology.num_socs))

    def run_epoch(self, run, cost: CostModel, epoch: int, dead):
        if cost.config.fault_schedule is not None:
            # continue-with-survivors: the same global batch spreads
            # over fewer chips and syncs over possibly degraded links.
            run.charge = self._price_step(
                cost, run.layout, cost.topology.num_socs - len(dead))
        self.on_epoch_begin(epoch)
        model, = run.replicas
        for x, y in run.loader:
            fp32_train_step(model, run.optimizer, x, y,
                            grad_hook=self.transform_gradients)
        for _ in range(cost.steps_per_epoch):
            pricing.apply(cost, run.charge)
        return model
