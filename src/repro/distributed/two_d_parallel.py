"""2D-parallelism baseline (Optimus-CC-style, Song et al., ASPLOS'23).

SoCs are split into groups: *within* a group the model is
pipeline-parallel across the member SoCs (PipeDream-style stages);
*across* groups, the same-stage SoCs run data-parallel Ring-AllReduce
per batch.  The weight math is identical to synchronous SGD; the cost
model captures what actually differs on a SoC-Cluster:

- pipeline bubble: a G-stage pipeline over ``mb`` microbatches costs
  ``(mb + G - 1)/mb`` of the ideal time;
- per-batch cross-group synchronisation runs G rings (one per stage)
  *concurrently* with naive consecutive group placement, so the rings
  contend for the shared PCB NICs — 2D-Paral does no topology mapping
  or communication planning.
"""

from __future__ import annotations

from .base import CostModel
from .ssgd import SsgdStrategy

__all__ = ["TwoDParallel"]

#: microbatches per pipeline flush (PipeDream-style schedule)
_MICROBATCHES = 4


class TwoDParallel(SsgdStrategy):
    name = "2d_paral"

    def _groups(self, cost: CostModel) -> list[list[int]]:
        m = cost.topology.num_socs
        n = max(1, min(cost.config.num_groups, m))
        size = m // n
        return [list(range(g * size, (g + 1) * size)) for g in range(n)]

    def step_compute_seconds(self, cost: CostModel,
                             num_socs: int | None = None) -> float:
        # 2D keeps its full pipeline layout regardless of survivor count
        # (``num_socs`` accepted for the shared fault-path signature).
        groups = self._groups(cost)
        group_size = len(groups[0])
        group_batch = cost.config.sim_global_batch / len(groups)
        ideal = cost.compute_seconds(group_batch, "cpu") / group_size
        bubble = (_MICROBATCHES + group_size - 1) / _MICROBATCHES
        # Inter-stage activation traffic (forward) and activation-gradient
        # traffic (backward) over the SoC links, interleaved with compute.
        boundaries = group_size - 1
        act_bytes = (2.0 * boundaries * group_batch
                     * cost.profile.act_bytes_per_sample)
        act_seconds = 8.0 * act_bytes / cost.topology.soc.nic_bps
        return ideal * bubble + act_seconds

    def step_sync_seconds(self, cost: CostModel, nbytes: float,
                          num_tensors: float | None = None) -> float:
        groups = self._groups(cost)
        group_size = len(groups[0])
        if len(groups) < 2:
            return 0.0
        # Stage s of every group holds 1/G of the weights; the N SoCs
        # owning stage s form one ring.  All G rings run at once.
        rings = [[group[stage] for group in groups]
                 for stage in range(group_size)]
        return cost.fabric.concurrent_ring_allreduce_time(
            rings, nbytes / group_size, num_tensors=num_tensors)
