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

from ..comm.primitives import average_states
from ..data.loader import DataLoader, iid_partition
from ..nn.optim import SGD
from .base import (CostModel, RunConfig, Strategy, StrategyResult,
                   evaluate_accuracy, fp32_train_step, make_model,
                   record_epoch_telemetry)

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

    def _local_batch(self, config: RunConfig, shard_size: int) -> int:
        """Local batch small enough for several local steps per round."""
        return max(4, min(config.batch_size, shard_size // 4 or 1))

    def train(self, config: RunConfig) -> StrategyResult:
        cost = CostModel(config, telemetry=config.telemetry)
        num_clients = self.num_clients(config)
        global_model = make_model(config)
        shards = self._partition(config, num_clients)
        client_model = make_model(config)  # reused buffer for local runs
        # Fused data plane: flattening both replicas makes every local
        # SGD step, the round average and the state loads whole-model
        # array ops (bit-identical to the per-key paths).
        global_model.flatten_parameters()
        client_flat = client_model.flatten_parameters()
        if config.graph:
            # One executor serves every client round: load_state_dict
            # writes weights in place, so the flat storage stays intact
            # and captured programs remain valid across rounds.
            client_model.enable_graph_executor()

        # Simulated per-round cost: every client trains its full-scale
        # shard locally (all clients in parallel), then one aggregation.
        sim_shard = cost.config.sim_samples_per_epoch / num_clients
        compute_s = cost.compute_seconds(sim_shard, "cpu") * self.local_epochs
        sync_s = self.round_sync_seconds(cost)

        telemetry = cost.telemetry
        history: list[float] = []
        state: dict = {}
        extra: dict = {}
        for epoch in range(config.max_epochs):
            epoch_start = cost.epoch_start()
            epoch_t0 = epoch_start[0]
            dead, abort = self._epoch_fault_state(config, epoch, cost)
            if abort:
                extra.update(aborted=True, abort_epoch=epoch,
                             dead_socs=sorted(dead))
                break
            global_state = global_model.state_dict()
            client_states = []
            for index, shard in enumerate(shards):
                if index in dead:
                    continue        # the client's SoC is down this round
                client_model.load_state_dict(global_state)
                optimizer = SGD(client_model.parameters(), lr=config.lr,
                                momentum=config.momentum,
                                weight_decay=config.weight_decay,
                                flat=client_flat)
                loader = DataLoader(
                    shard, self._local_batch(config, len(shard)),
                    shuffle=True, seed=config.seed * 1000 + epoch * 64 + index)
                for _ in range(self.local_epochs):
                    for x, y in loader:
                        fp32_train_step(client_model, optimizer, x, y)
                client_states.append(client_model.state_dict())
            if client_states:
                global_model.load_state_dict(average_states(
                    client_states, metrics=cost.telemetry.metrics))

            update_s = cost.update_seconds() * math.ceil(
                sim_shard / config.sim_global_batch)
            if telemetry.tracer.enabled:
                # one round = local passes in lock-step, then the
                # weight exchange through the server
                telemetry.tracer.span("compute", epoch_t0, compute_s,
                                      num_socs=num_clients)
                telemetry.tracer.span("update", epoch_t0 + compute_s,
                                      update_s)
                telemetry.tracer.span("sync",
                                      epoch_t0 + compute_s + update_s,
                                      sync_s, num_socs=num_clients)
            cost.clock.advance(compute_s, "compute")
            cost.energy.charge_compute(compute_s, num_clients, 1.0)
            cost.clock.advance(update_s, "update")
            cost.energy.charge_compute(update_s, num_clients, 1.0)
            cost.charge_epoch_sync(sync_s, num_clients)

            accuracy = evaluate_accuracy(global_model, config.task.x_test,
                                         config.task.y_test)
            self._epoch_accuracy_bookkeeping(accuracy, epoch, config,
                                             history, state)
            record_epoch_telemetry(cost, epoch_start, epoch, accuracy)
        if config.fault_schedule is not None:
            extra.setdefault("aborted", False)
        return self._result(self.name, config, cost, history, state, extra)
