"""SoCFlow itself — the paper's primary contribution (§3).

- :mod:`grouping` — logical-group count selection: the Eq. 1 epoch-time
  model plus the first-epoch-accuracy heuristic (Figure 6).
- :mod:`mapping` — integrity-greedy logical→physical mapping (§3.1,
  Theorems 1–2).
- :mod:`planning` — communication-group division (bipartite colouring)
  and the pipelined sync schedule (Figure 7).
- :mod:`mixed_precision` — per-group CPU(FP32)+NPU(INT8) execution with
  the alpha/beta-controlled batch split (§3.2).
- :mod:`scheduler` — global scheduler: checkpointing, the per-epoch
  read of the event timeline (preemption by user workloads, DVFS
  underclocks, faults), underclocking-aware rebalancing (§4.1).
- :mod:`socflow` — the end-to-end training strategy with ablation
  switches (Figure 13).
"""

from .grouping import (allocation_group_count, epoch_time_model,
                       select_group_count, survivor_group_count)
from .mapping import (MappingResult, integrity_greedy_mapping, naive_mapping,
                      nic_conflict_count, contention_degree)
from .planning import CommunicationPlan, build_conflict_graph, divide_into_cgs
from .checkpoint import TrainingCheckpoint
from .mixed_precision import GroupMixedTrainer
from .federation import CrossSiteConfig, CrossSiteSoCFlow
from .scheduler import GlobalScheduler
from .socflow import SoCFlow, SoCFlowOptions, reform_groups

__all__ = [
    "select_group_count", "epoch_time_model", "survivor_group_count",
    "allocation_group_count", "reform_groups",
    "MappingResult", "integrity_greedy_mapping", "naive_mapping",
    "nic_conflict_count", "contention_degree",
    "CommunicationPlan", "build_conflict_graph", "divide_into_cgs",
    "TrainingCheckpoint",
    "CrossSiteConfig", "CrossSiteSoCFlow",
    "GroupMixedTrainer", "GlobalScheduler", "SoCFlow", "SoCFlowOptions",
]
