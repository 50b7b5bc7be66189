"""Single-SoC training — the "Local" reference column of Table 3.

Also the motivation experiment of Figure 4a: one Snapdragon 865
training VGG-11 takes ~29 h on its CPU.
"""

from __future__ import annotations

from dataclasses import replace

from ..cluster.topology import ClusterTopology
from ..data.loader import ArrayDataset, DataLoader
from ..nn.optim import SGD
from .base import (CostModel, RunConfig, Strategy, StrategyResult,
                   evaluate_accuracy, flush_graph_stats, fp32_train_step,
                   make_model)

__all__ = ["LocalSingleSoC"]


class LocalSingleSoC(Strategy):
    """Plain SGD on one SoC's CPU (or NPU via :class:`~repro.core`)."""

    name = "local"

    def __init__(self, processor: str = "cpu"):
        if processor not in ("cpu", "npu"):
            raise ValueError("processor must be 'cpu' or 'npu'")
        self.processor = processor

    def train(self, config: RunConfig) -> StrategyResult:
        single = ClusterTopology(
            num_socs=1, socs_per_pcb=config.topology.socs_per_pcb,
            soc=config.topology.soc)
        # the single-chip reference column never reads the cluster-wide
        # fault schedule, whose SoC ids a one-SoC topology would reject
        local_config = replace(config, topology=single, fault_schedule=None)
        cost = CostModel(local_config, telemetry=config.telemetry)
        model = make_model(config)
        optimizer = SGD(model.parameters(), lr=config.lr,
                        momentum=config.momentum,
                        weight_decay=config.weight_decay,
                        flat=model.flatten_parameters())
        if config.graph:
            model.enable_graph_executor()
        loader = DataLoader(
            ArrayDataset(config.task.x_train, config.task.y_train),
            config.batch_size, shuffle=True, seed=config.seed)

        compute_s = cost.compute_seconds(config.sim_global_batch,
                                         self.processor)
        cpu_fraction = 1.0 if self.processor == "cpu" else 0.0
        history: list[float] = []
        state: dict = {}
        extra: dict = {}
        for epoch in range(config.max_epochs):
            for x, y in loader:
                fp32_train_step(model, optimizer, x, y)
            for _ in range(cost.steps_per_epoch):
                cost.charge_step(compute_s, 0.0, 1, cpu_fraction)
            accuracy = evaluate_accuracy(model, config.task.x_test,
                                         config.task.y_test)
            self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                             history, state)
        flush_graph_stats(model, cost, extra)
        return self._result(self.name, config, cost, history, state, extra)
