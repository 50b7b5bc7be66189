"""Baseline strategies: learning behaviour and cost orderings."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.distributed import (STRATEGY_REGISTRY, FedAvg, HiPress,
                               LocalSingleSoC, ParameterServer,
                               RingAllReduce, TreeFedAvg, TwoDParallel,
                               build_strategy)


@pytest.fixture(scope="module")
def results(tiny_task):
    """Train every baseline once on the shared quick config."""
    from repro.cluster import ClusterTopology
    from repro.distributed import RunConfig
    config = RunConfig(
        task=tiny_task, model_name="vgg11", width=0.15, batch_size=16,
        lr=0.05, momentum=0.9, max_epochs=3, seed=0,
        topology=ClusterTopology(num_socs=32),
        sim_samples_per_epoch=50_000, sim_global_batch=64, num_groups=8)
    return {name: build_strategy(name).train(config)
            for name in STRATEGY_REGISTRY}


class TestRegistry:
    def test_all_six_baselines_plus_local_and_ssp(self):
        assert set(STRATEGY_REGISTRY) == {"local", "ps", "ring", "hipress",
                                          "2d_paral", "ssp", "fedavg",
                                          "t_fedavg"}

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            build_strategy("allreduce9000")


class TestLearning:
    def test_every_strategy_learns_above_chance(self, results, tiny_task):
        chance = 1.0 / tiny_task.num_classes
        for name, result in results.items():
            assert result.best_accuracy > chance, name

    def test_ssgd_strategies_agree_on_accuracy(self, results):
        """PS / RING / 2D compute identical updates (Table 3 agreement)."""
        assert results["ps"].accuracy_history == \
            results["ring"].accuracy_history == \
            results["2d_paral"].accuracy_history

    def test_fedavg_variants_agree(self, results):
        assert results["fedavg"].accuracy_history == \
            results["t_fedavg"].accuracy_history

    def test_all_report_requested_epochs(self, results):
        assert all(r.epochs_run == 3 for r in results.values())


class TestCostOrderings:
    def test_ps_is_slowest_dml(self, results):
        """Observation #2 / Figure 8: PS incast is the worst."""
        assert results["ps"].sim_time_s > results["ring"].sim_time_s
        assert results["ps"].sim_time_s > results["hipress"].sim_time_s
        assert results["ps"].sim_time_s > results["2d_paral"].sim_time_s

    def test_compression_beats_plain_ring(self, results):
        assert results["hipress"].sim_time_s < results["ring"].sim_time_s

    def test_fl_rounds_cheap_per_epoch(self, results):
        """FedAvg syncs once per epoch -> far less wall time per epoch."""
        assert results["fedavg"].sim_time_s < results["ring"].sim_time_s

    def test_tree_aggregation_no_slower_than_flat_fedavg(self, results):
        assert (results["t_fedavg"].sim_time_s
                <= results["fedavg"].sim_time_s * 1.001)

    def test_sync_dominates_ring(self, results):
        """Figure 12: RING spends ~80% of busy time in sync."""
        assert results["ring"].phase_shares()["sync"] > 0.6

    def test_fedavg_compute_dominated(self, results):
        assert results["fedavg"].phase_shares()["compute"] > 0.6

    def test_energy_positive_and_ps_worst(self, results):
        dml = ["ps", "ring", "hipress", "2d_paral"]
        assert all(results[n].energy.total_j > 0 for n in dml)
        assert results["ps"].energy.total_j == max(
            results[n].energy.total_j for n in dml)


class TestLocal:
    def test_local_runs_on_one_soc(self, results):
        # energy must be charged for a single SoC, not the fleet
        assert results["local"].energy.total_j < \
            results["ring"].energy.total_j

    def test_npu_local_faster_than_cpu_local(self, tiny_task, quick_config):
        config = replace(quick_config, max_epochs=1)
        cpu = LocalSingleSoC(processor="cpu").train(config)
        npu = LocalSingleSoC(processor="npu").train(config)
        assert npu.sim_time_s < cpu.sim_time_s

    def test_invalid_processor_raises(self):
        with pytest.raises(ValueError):
            LocalSingleSoC(processor="tpu")


class TestTargetTracking:
    def test_epochs_to_target_recorded(self, tiny_task, quick_config):
        config = replace(quick_config, max_epochs=4, target_accuracy=0.05)
        result = RingAllReduce().train(config)
        assert result.converged
        assert result.epochs_to_target == 1
        assert result.time_to_target_s() == pytest.approx(
            result.sim_time_s / 4)

    def test_unreachable_target(self, quick_config):
        config = replace(quick_config, max_epochs=1, target_accuracy=1.01)
        result = RingAllReduce().train(config)
        assert not result.converged
        assert result.time_to_target_s() is None


class TestHiPressInternals:
    def test_warmup_schedule(self):
        strategy = HiPress(compression_ratio=0.01)
        strategy.on_epoch_begin(0)
        assert strategy.compressor.ratio == 0.25
        strategy.on_epoch_begin(5)
        assert strategy.compressor.ratio == 0.01

    def test_gradients_actually_sparsified(self, quick_config):
        strategy = HiPress(compression_ratio=0.01)
        strategy.on_epoch_begin(10)
        result = strategy.train(replace(quick_config, max_epochs=1))
        assert result.epochs_run == 1


class TestTwoDInternals:
    def test_groups_partition(self, quick_config):
        from repro.distributed.base import CostModel
        strategy = TwoDParallel()
        cost = CostModel(quick_config)
        groups = strategy._groups(cost)
        assert len(groups) == quick_config.num_groups
        flat = [s for g in groups for s in g]
        assert len(flat) == len(set(flat))

    def test_pipeline_bubble_shrinks_compute(self, quick_config):
        from repro.distributed.base import CostModel
        from repro.distributed.ring_allreduce import RingAllReduce
        cost = CostModel(quick_config)
        two_d = TwoDParallel().step_compute_seconds(cost)
        flat = RingAllReduce().step_compute_seconds(cost)
        # pipeline splits the model across 4 SoCs; even with the bubble
        # and activation traffic it beats one SoC doing the whole model
        assert two_d < flat * 4


FAULTS = "crash:epoch=1,soc=3;flap:epoch=1,pcb=0,mult=0.2,until=2"


class TestFedAvgUnderFaults:
    @pytest.mark.parametrize("method", ["fedavg", "t_fedavg"])
    def test_a_flapping_nic_costs_the_round_sync(self, quick_config, method):
        """The round is re-priced on the epoch's fabric, not once before
        any degradation exists."""
        from repro.cluster.faults import parse_fault_spec
        config = replace(quick_config, max_epochs=3)
        clean = build_strategy(method).train(config)
        result = build_strategy(method).train(replace(
            config, fault_mode="continue",
            fault_schedule=parse_fault_spec(FAULTS, config.topology)))
        assert result.epochs_run == 3
        assert result.extra["network_retries"] > 0
        assert result.sim_time_s > clean.sim_time_s
        assert result.breakdown["compute"] == clean.breakdown["compute"]


class TestLoopTelemetry:
    """What the one loop reports, it reports for every strategy."""

    @staticmethod
    def traced(config, method):
        from repro.telemetry import Telemetry
        config = replace(config, max_epochs=2, telemetry=Telemetry.active())
        return build_strategy(method).train(config), config.telemetry

    @pytest.mark.parametrize("method", sorted(STRATEGY_REGISTRY))
    def test_epoch_rows_and_spans(self, quick_config, method):
        _, telemetry = self.traced(quick_config, method)
        assert [row["epoch"] for row in telemetry.epoch_rows] == [0, 1]
        spans = [r for r in telemetry.tracer.records
                 if r.kind == "epoch"]
        assert len(spans) == 2

    @pytest.mark.parametrize("method", sorted(STRATEGY_REGISTRY))
    def test_graph_counters_published(self, quick_config, method):
        result, telemetry = self.traced(replace(quick_config, graph=True),
                                        method)
        stats = result.extra["graph_stats"]
        assert stats["replays"] > 0 and stats["fallbacks"] == 0
        series = {r["name"]: r["value"]
                  for r in telemetry.metrics.collect()
                  if r["name"].startswith("graph.")}
        assert series == {f"graph.{key}": value
                          for key, value in stats.items()}
        replay = [r for r in telemetry.tracer.records
                  if r.kind == "graph_replay"]
        assert len(replay) == 1


# ----------------------------------------------------------------------
# Structure: one epoch loop, one replica builder
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).parent


def files_where(found) -> "set[str]":
    """Source files (relative to ``src/repro``) with a node ``found``
    accepts."""
    return {path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if any(found(node)
                   for node in ast.walk(ast.parse(path.read_text())))}


def calls(name: str):
    return lambda node: (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == name)


def is_epoch_loop(node) -> bool:
    """``for … in range(…config.max_epochs)``."""
    return (isinstance(node, ast.For) and calls("range")(node.iter)
            and any(isinstance(arg, ast.Attribute)
                    and arg.attr == "max_epochs"
                    for arg in node.iter.args))


def test_one_epoch_loop_beside_socflows():
    assert files_where(is_epoch_loop) == {"distributed/base.py",
                                          "core/socflow.py"}
    loops = [node for node in ast.walk(ast.parse(
        (SRC / "distributed/base.py").read_text())) if is_epoch_loop(node)]
    assert len(loops) == 1


def test_train_is_defined_in_three_places():
    defines_train = lambda node: (isinstance(node, ast.FunctionDef)
                                  and node.name == "train")
    assert files_where(defines_train) == {
        "distributed/base.py",      # the loop
        "core/socflow.py",          # recovery instead of abort
        "core/federation.py",       # drives SoCFlow per site
        "nn/modules.py",            # Module.train(mode): not a run
    }


def test_one_replica_builder():
    assert files_where(calls("SGD")) == {
        "distributed/base.py",      # make_replica
        "quant/trainer.py",         # the INT8 step's own
        "harness/experiments.py",   # transfer pretraining's own
    }
    assert files_where(calls("enable_graph_executor")) == {
        "distributed/base.py",      # make_replica
        "core/mixed_precision.py",  # the INT8 twin
    }
