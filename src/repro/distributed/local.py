"""Single-SoC training — the "Local" reference column of Table 3.

Also the motivation experiment of Figure 4a: one Snapdragon 865
training VGG-11 takes ~29 h on its CPU.
"""

from __future__ import annotations

from dataclasses import replace

from ..cluster.topology import ClusterTopology
from . import pricing
from .base import CostModel, RunConfig
from .ssgd import SsgdStrategy

__all__ = ["LocalSingleSoC"]


class LocalSingleSoC(SsgdStrategy):
    """Plain SGD on one SoC's CPU (or NPU via :class:`~repro.core`):
    synchronous SGD with nobody to synchronise with."""

    name = "local"

    def __init__(self, processor: str = "cpu"):
        if processor not in ("cpu", "npu"):
            raise ValueError("processor must be 'cpu' or 'npu'")
        self.processor = processor

    def cost_model(self, config: RunConfig) -> CostModel:
        single = ClusterTopology(
            num_socs=1, socs_per_pcb=config.topology.socs_per_pcb,
            soc=config.topology.soc)
        # the single-chip reference column never reads the cluster-wide
        # fault schedule, whose SoC ids a one-SoC topology would reject
        return CostModel(replace(config, topology=single,
                                 fault_schedule=None),
                         telemetry=config.telemetry)

    def _price_epoch(self, cost: CostModel, layout,
                     num_socs: int) -> pricing.EpochCharge:
        return pricing.price_epoch(
            cost, num_socs=num_socs, steps=cost.steps_per_epoch,
            compute_s=cost.compute_seconds(cost.config.sim_global_batch,
                                           self.processor),
            cpu_share=1.0 if self.processor == "cpu" else 0.0)
