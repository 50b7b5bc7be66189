"""FedAvg baseline (McMahan et al., AISTATS'17), IID setting.

Every SoC is a client holding an IID shard; each round (= epoch) the
clients train locally for one pass over their shard, then the server
(the control board) averages the weights.  No per-batch network
traffic, but the delayed aggregation costs convergence: more rounds to
reach the same accuracy and a 1.9–5.6% final-accuracy gap on the
from-scratch tasks (Table 3) — both effects emerge from the real local
training below, not from hard-coding.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from ..comm.primitives import average_states
from ..data.loader import DataLoader, iid_partition
from . import pricing
from .base import (CostModel, RunConfig, Strategy, fp32_train_step,
                   make_model, make_replica)

__all__ = ["FedAvg"]


class FedAvg(Strategy):
    name = "fedavg"

    #: clients run this many local passes over their shard per round
    local_epochs = 1

    def __init__(self, partition_alpha: float | None = None):
        """``partition_alpha=None`` gives the paper's IID setting; a
        float enables Dirichlet label skew (non-IID extension)."""
        self.partition_alpha = partition_alpha

    def num_clients(self, config: RunConfig) -> int:
        return config.topology.num_socs

    def _partition(self, config: RunConfig, num_clients: int):
        if self.partition_alpha is None:
            return iid_partition(config.task.x_train, config.task.y_train,
                                 num_clients, seed=config.seed)
        from ..data.partition import dirichlet_partition
        return dirichlet_partition(config.task.x_train,
                                   config.task.y_train, num_clients,
                                   alpha=self.partition_alpha,
                                   seed=config.seed)

    def round_sync_seconds(self, cost: CostModel) -> float:
        """Weight upload + download through a SoC-hosted server."""
        socs = list(range(cost.topology.num_socs))
        return cost.fabric.parameter_server_time(socs, cost.grad_bytes)

    def _price_round(self, cost: CostModel,
                     num_clients: int) -> pricing.EpochCharge:
        """One round: every client trains its paper-scale shard (all in
        parallel, one update per global batch, no collective), then the
        aggregation is the round's tail."""
        config = cost.config
        sim_shard = config.sim_samples_per_epoch / num_clients
        steps = math.ceil(sim_shard / config.sim_global_batch)
        compute_s = cost.compute_seconds(sim_shard, "cpu") * self.local_epochs
        return pricing.price_epoch(
            cost, num_socs=num_clients, steps=steps,
            compute_s=compute_s / steps,
            tail_s=self.round_sync_seconds(cost))

    def _local_batch(self, config: RunConfig, shard_size: int) -> int:
        """Local batch small enough for several local steps per round."""
        return max(4, min(config.batch_size, shard_size // 4 or 1))

    def setup(self, config: RunConfig, cost: CostModel):
        global_model = make_model(config)
        shards = self._partition(config, self.num_clients(config))
        # One replica is the buffer every client's local run reuses
        # (and one executor serves every round: load_state_dict writes
        # weights in place, so captured programs stay valid).
        client_model, optimizer = make_replica(config)
        return SimpleNamespace(
            replicas=[client_model], global_model=global_model,
            shards=shards, optimizer=optimizer,
            # each client starts its round without momentum
            fresh_optimizer=optimizer.state_dict(), charge=None)

    def run_epoch(self, run, cost: CostModel, epoch: int, dead):
        config = cost.config
        if run.charge is None or config.fault_schedule is not None:
            # under a fault schedule every round is re-priced on the
            # fabric's current degradations
            run.charge = self._price_round(cost, len(run.shards))
        global_model, (client_model,) = run.global_model, run.replicas
        global_state = global_model.state_dict()
        client_states = []
        for index, shard in enumerate(run.shards):
            if index in dead:
                continue        # the client's SoC is down this round
            client_model.load_state_dict(global_state)
            run.optimizer.load_state_dict(run.fresh_optimizer)
            loader = DataLoader(
                shard, self._local_batch(config, len(shard)),
                seed=config.seed * 1000 + epoch * 64 + index)
            for _ in range(self.local_epochs):
                for x, y in loader:
                    fp32_train_step(client_model, run.optimizer, x, y)
            client_states.append(client_model.state_dict())
        if client_states:
            global_model.load_state_dict(average_states(
                client_states, metrics=cost.telemetry.metrics))
        pricing.apply(cost, run.charge)
        return global_model
