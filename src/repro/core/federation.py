"""Cross-site training: SoCFlow inside each edge site, WAN-delayed
weight averaging across sites (the LAN-WAN extension).

Each site runs the full SoCFlow pipeline on its own data shard (a real
per-site :class:`~repro.core.socflow.SoCFlow` run each round); every
``site_sync_every`` epochs the sites' weights average through the WAN
aggregator.  The geographic hierarchy mirrors SoCFlow's own: frequent
sync where bandwidth is cheap (intra-group), delayed sync where it is
scarce (cross-group, and now cross-site).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..cluster.spec import model_profile
from ..cluster.topology import EdgeSite, WanFabric
from ..comm.primitives import average_states
from ..data.loader import iid_partition
from ..distributed.base import (RunConfig, StrategyResult,
                                evaluate_accuracy, make_model)
from .socflow import SoCFlow, SoCFlowOptions

__all__ = ["CrossSiteConfig", "CrossSiteSoCFlow"]


@dataclass(frozen=True)
class CrossSiteConfig:
    """Federation settings on top of one per-site RunConfig."""

    sites: tuple[EdgeSite, ...]
    #: WAN weight averaging happens every this many epochs
    site_sync_every: int = 2
    socflow: SoCFlowOptions = field(default_factory=SoCFlowOptions)

    def __post_init__(self):
        if not self.sites:
            raise ValueError("need at least one site")
        if self.site_sync_every < 1:
            raise ValueError("site_sync_every must be >= 1")


class CrossSiteSoCFlow:
    """Train one model across several SoC-Cluster servers."""

    def __init__(self, config: CrossSiteConfig):
        self.config = config
        self.fabric = WanFabric(list(config.sites))

    def train(self, run_config: RunConfig) -> StrategyResult:
        sites = self.config.sites
        shards = iid_partition(run_config.task.x_train,
                               run_config.task.y_train, len(sites),
                               seed=run_config.seed)
        # the shared initial model, and the one every round is scored on
        model = make_model(run_config)
        shared_state = model.state_dict()
        payload = model_profile(run_config.model_name).payload_bytes()

        site_states = [dict(shared_state) for _ in sites]
        history: list[float] = []
        total_time = 0.0
        energy = None
        rounds = run_config.max_epochs // self.config.site_sync_every
        for round_index in range(max(1, rounds)):
            round_states = []
            round_time = 0.0
            for site, shard, state in zip(sites, shards, site_states):
                site_task = replace(run_config.task, x_train=shard.x,
                                    y_train=shard.y)
                site_config = replace(
                    run_config, task=site_task,
                    topology=site.topology,
                    max_epochs=self.config.site_sync_every,
                    init_state=state,
                    seed=run_config.seed + round_index)
                result = SoCFlow(self.config.socflow).train(site_config)
                round_states.append(result.extra["final_state"])
                round_time = max(round_time, result.sim_time_s)
                energy = (result.energy if energy is None
                          else energy + result.energy)
            merged = average_states(round_states)
            site_states = [dict(merged) for _ in sites]
            total_time += round_time + self.fabric.sync_time(payload)
            model.load_state_dict(merged)
            history.append(evaluate_accuracy(
                model, run_config.task.x_test, run_config.task.y_test))

        return StrategyResult(
            strategy="cross_site_socflow",
            accuracy_history=history,
            sim_time_s=total_time,
            breakdown={"total": total_time},
            energy=energy,
            epochs_run=len(history) * self.config.site_sync_every,
            epochs_to_target=None,
            converged=False,
            extra={"num_sites": len(sites)},
        )
