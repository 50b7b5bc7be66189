"""Parameter-Server baseline (Li et al., NeurIPS'14).

Every step, all SoCs push FP32 gradients to one server SoC and pull the
updated weights back; everything serialises through the server's 1 Gbps
link — the paper measures 20.6 s per step at 32 SoCs on VGG-11, which
is why PS is the slowest baseline in Figure 8.
"""

from __future__ import annotations

from .base import CostModel
from .ssgd import SsgdStrategy

__all__ = ["ParameterServer"]


class ParameterServer(SsgdStrategy):
    name = "ps"

    def step_sync_seconds(self, cost: CostModel, nbytes: float,
                          num_tensors: float | None = None) -> float:
        socs = list(range(cost.topology.num_socs))
        return cost.fabric.parameter_server_time(socs, nbytes,
                                                 num_tensors=num_tensors)
