"""Ring-AllReduce baseline following Horovod (Sergeev & Del Balso).

One ring over all SoCs, synchronising full FP32 gradients per batch.
Bandwidth-optimal in theory, but on the SoC-Cluster the per-node
startup cost and cross-PCB hops make its latency grow linearly with
the SoC count (Observation #2, Figure 4b).
"""

from __future__ import annotations

from .base import CostModel
from .ssgd import SsgdStrategy

__all__ = ["RingAllReduce"]


class RingAllReduce(SsgdStrategy):
    name = "ring"

    def step_sync_seconds(self, cost: CostModel, nbytes: float,
                          num_tensors: float | None = None) -> float:
        socs = list(range(cost.topology.num_socs))
        return cost.fabric.ring_allreduce_time(socs, nbytes,
                                               num_tensors=num_tensors)
