"""Stale-Synchronous Parallel (SSP) baseline (Ho et al., NIPS'13).

The paper's related work (§6) discusses SSP as the classic middle
ground between fully synchronous SGD and federated averaging: workers
read parameters from a local cache and only synchronise when their
clock drifts more than ``staleness`` steps from the slowest worker.

Execution model here: worker groups run locally for ``staleness``
batches between parameter-server synchronisations, so both the real
math (periodic averaging every ``staleness`` steps) and the cost model
(PS sync every ``staleness`` steps instead of every step) interpolate
between PS (staleness=1) and FedAvg (staleness=steps-per-epoch).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..comm.primitives import average_states
from ..data.loader import iid_partition
from ..nn.arena import StepArena
from .base import (CostModel, RunConfig, Strategy, fp32_train_step,
                   make_replica)

__all__ = ["StaleSynchronous"]

#: simulated worker groups executing divergent local chains
_NUM_CHAINS = 4


class StaleSynchronous(Strategy):
    name = "ssp"

    def __init__(self, staleness: int = 8):
        if staleness < 1:
            raise ValueError("staleness must be >= 1")
        self.staleness = staleness

    def setup(self, config: RunConfig, cost: CostModel):
        # The chains are structurally equal replicas that step one
        # after another: one arena, one gradient plane, one plan.
        arena = StepArena()
        chains, optimizers = zip(*(
            make_replica(config, arena=arena, init_weights=not index)
            for index in range(_NUM_CHAINS)))
        shared = chains[0].state_dict()
        for chain in chains[1:]:
            chain.load_state_dict(shared)
        return SimpleNamespace(
            replicas=list(chains), optimizers=optimizers,
            shards=iid_partition(config.task.x_train, config.task.y_train,
                                 _NUM_CHAINS, seed=config.seed),
            rng=np.random.default_rng(config.seed), step=None,
            extra={"staleness": self.staleness})

    def run_epoch(self, run, cost: CostModel, epoch: int, dead):
        config = cost.config
        socs = [s for s in range(config.topology.num_socs) if s not in dead]
        if run.step is None or config.fault_schedule is not None:
            # (compute, PS sync) seconds of one step: every SoC computes
            # its slice of the global batch.  Under a fault schedule
            # every epoch is re-priced over the survivors and the
            # fabric's current degradations.
            run.step = (
                cost.compute_seconds(config.sim_global_batch / len(socs),
                                     "cpu"),
                cost.fabric.parameter_server_time(socs, cost.grad_bytes))
        chains = run.replicas

        def merge():
            merged = average_states([c.state_dict() for c in chains])
            for chain in chains:
                chain.load_state_dict(merged)

        orders = [run.rng.permutation(len(shard)) for shard in run.shards]
        steps = min(len(o) for o in orders) // config.batch_size
        since_sync = 0
        for step in range(steps):
            for chain, optimizer, shard, order in zip(
                    chains, run.optimizers, run.shards, orders):
                idx = order[step * config.batch_size:
                            (step + 1) * config.batch_size]
                fp32_train_step(chain, optimizer, shard.x[idx], shard.y[idx])
            since_sync += 1
            if since_sync >= self.staleness:
                merge()
                since_sync = 0
        # Simulated cost at paper scale: one PS sync every `staleness`
        # steps.
        compute_s, sync_s = run.step
        sim_steps = cost.steps_per_epoch
        for _ in range(sim_steps):
            cost.charge_step(compute_s, 0.0, len(socs))
        cost.charge_epoch_sync(sim_steps // self.staleness * sync_s,
                               len(socs))
        merge()
        return chains[0]
