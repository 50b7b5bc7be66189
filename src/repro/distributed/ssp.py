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

import numpy as np

from ..comm.primitives import average_states
from ..data.loader import iid_partition
from ..nn.optim import SGD
from .base import (CostModel, RunConfig, Strategy, StrategyResult,
                   evaluate_accuracy, fp32_train_step, make_model,
                   record_epoch_telemetry)

__all__ = ["StaleSynchronous"]

#: simulated worker groups executing divergent local chains
_NUM_CHAINS = 4


class StaleSynchronous(Strategy):
    name = "ssp"

    def __init__(self, staleness: int = 8):
        if staleness < 1:
            raise ValueError("staleness must be >= 1")
        self.staleness = staleness

    def train(self, config: RunConfig) -> StrategyResult:
        cost = CostModel(config, telemetry=config.telemetry)
        chains = [make_model(config) for _ in range(_NUM_CHAINS)]
        shared = chains[0].state_dict()
        for chain in chains:
            chain.load_state_dict(shared)
        optimizers = [SGD(chain.parameters(), lr=config.lr,
                          momentum=config.momentum,
                          weight_decay=config.weight_decay,
                          flat=chain.flatten_parameters())
                      for chain in chains]
        if config.graph:
            for chain in chains:
                chain.enable_graph_executor()
        shards = iid_partition(config.task.x_train, config.task.y_train,
                               _NUM_CHAINS, seed=config.seed)

        # Simulated cost: every SoC computes its slice per step; one PS
        # sync every `staleness` steps.
        per_soc = config.sim_global_batch / config.topology.num_socs
        compute_s = cost.compute_seconds(per_soc, "cpu")
        sync_s = cost.fabric.parameter_server_time(
            list(range(config.topology.num_socs)), cost.grad_bytes)

        rng = np.random.default_rng(config.seed)
        history: list[float] = []
        state: dict = {}
        for epoch in range(config.max_epochs):
            epoch_start = cost.epoch_start()
            orders = [rng.permutation(len(shard)) for shard in shards]
            steps = min(len(o) for o in orders) // config.batch_size
            since_sync = 0
            for step in range(steps):
                for chain, optimizer, shard, order in zip(
                        chains, optimizers, shards, orders):
                    idx = order[step * config.batch_size:
                                (step + 1) * config.batch_size]
                    fp32_train_step(chain, optimizer, shard.x[idx],
                                    shard.y[idx])
                since_sync += 1
                if since_sync >= self.staleness:
                    merged = average_states([c.state_dict()
                                             for c in chains])
                    for chain in chains:
                        chain.load_state_dict(merged)
                    since_sync = 0
            # cost model at paper scale
            sim_steps = cost.steps_per_epoch
            sim_syncs = sim_steps // self.staleness
            for _ in range(sim_steps):
                cost.charge_step(compute_s, 0.0, config.topology.num_socs)
            cost.charge_epoch_sync(sim_syncs * sync_s,
                                   config.topology.num_socs)

            merged = average_states([c.state_dict() for c in chains])
            chains[0].load_state_dict(merged)
            accuracy = evaluate_accuracy(chains[0], config.task.x_test,
                                         config.task.y_test)
            for chain in chains[1:]:
                chain.load_state_dict(merged)
            self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                             history, state)
            record_epoch_telemetry(cost, epoch_start, epoch, accuracy)
        return self._result(self.name, config, cost, history, state,
                            extra={"staleness": self.staleness})
