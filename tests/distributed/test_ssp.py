"""Stale-synchronous parallel extension baseline."""

from dataclasses import replace

import pytest

from repro.distributed import StaleSynchronous, build_strategy


class TestConstruction:
    def test_registry_entry(self):
        strategy = build_strategy("ssp")
        assert isinstance(strategy, StaleSynchronous)

    def test_invalid_staleness(self):
        with pytest.raises(ValueError):
            StaleSynchronous(staleness=0)


class TestTraining:
    def test_learns_above_chance(self, quick_config):
        config = replace(quick_config, max_epochs=3)
        result = StaleSynchronous(staleness=4).train(config)
        assert result.best_accuracy > 1.0 / quick_config.task.num_classes
        assert result.extra["staleness"] == 4

    def test_more_staleness_less_sync_time(self, quick_config):
        config = replace(quick_config, max_epochs=1)
        tight = StaleSynchronous(staleness=1).train(config)
        loose = StaleSynchronous(staleness=16).train(config)
        assert loose.breakdown["sync"] < tight.breakdown["sync"]
        assert loose.sim_time_s < tight.sim_time_s

    def test_interpolates_between_ps_and_fedavg(self, quick_config):
        """staleness=1 syncs like PS every step; large staleness
        approaches FedAvg's per-epoch communication volume."""
        config = replace(quick_config, max_epochs=1)
        ps = build_strategy("ps").train(config)
        fed = build_strategy("fedavg").train(config)
        mid = StaleSynchronous(staleness=8).train(config)
        assert fed.breakdown["sync"] < mid.breakdown["sync"] < \
            ps.breakdown["sync"]

    def test_deterministic(self, quick_config):
        config = replace(quick_config, max_epochs=2)
        a = StaleSynchronous(staleness=4).train(config)
        b = StaleSynchronous(staleness=4).train(config)
        assert a.accuracy_history == b.accuracy_history


FAULTS = "crash:epoch=1,soc=3;flap:epoch=1,pcb=0,mult=0.2,until=2"


def faulted(config, fault_mode, spec=FAULTS):
    from repro.cluster.faults import parse_fault_spec
    return replace(config, max_epochs=3, fault_mode=fault_mode,
                   fault_schedule=parse_fault_spec(spec, config.topology))


class TestFaults:
    """SSP reads the fault schedule like the synchronous family."""

    def test_fail_stop_aborts_where_ring_does(self, quick_config):
        config = faulted(quick_config, "fail-stop")
        ssp = build_strategy("ssp").train(config)
        ring = build_strategy("ring").train(config)
        assert ssp.extra["aborted"] is True
        assert ssp.extra["abort_epoch"] == ring.extra["abort_epoch"] == 1
        assert ssp.extra["dead_socs"] == ring.extra["dead_socs"] == [3]
        assert ssp.epochs_run == ring.epochs_run == 1

    def test_continue_pays_for_the_flap_and_the_lost_soc(self, quick_config):
        clean = build_strategy("ssp").train(replace(quick_config,
                                                    max_epochs=3))
        result = build_strategy("ssp").train(faulted(quick_config,
                                                     "continue"))
        assert result.extra["aborted"] is False
        assert result.epochs_run == 3
        assert result.extra["network_retries"] > 0
        assert result.sim_time_s > clean.sim_time_s
        # the same global batch over fewer chips: more compute per SoC
        assert result.breakdown["compute"] > clean.breakdown["compute"]

    def test_uneventful_schedule_prices_like_none(self, quick_config):
        """Re-pricing every epoch on a healthy fabric moves nothing."""
        clean = build_strategy("ssp").train(replace(quick_config,
                                                    max_epochs=3))
        quiet = build_strategy("ssp").train(faulted(
            quick_config, "continue", "crash:epoch=9,soc=3"))
        assert quiet.sim_time_s == clean.sim_time_s
        assert quiet.breakdown == clean.breakdown
        assert quiet.energy == clean.energy
        assert quiet.accuracy_history == clean.accuracy_history


class TestSharedArena:
    def test_chains_compile_one_plan_in_one_workspace(self, quick_config):
        from repro.distributed.base import CostModel
        config = replace(quick_config, max_epochs=1, graph=True)
        strategy = StaleSynchronous(staleness=4)
        cost = CostModel(config)
        run = strategy.setup(config, cost)
        strategy.run_epoch(run, cost, 0, set())
        arenas = {id(chain.flatten_parameters().arena)
                  for chain in run.replicas}
        assert len(run.replicas) == 4 and len(arenas) == 1
        plans = run.replicas[0].flatten_parameters().arena.snapshot()
        assert plans["fp32"]["plans"] == 1
        assert plans["fp32"]["unshared_plans"] == 0
        assert plans["fp32"]["binds"] == 4
        result = strategy.train(config)
        assert result.extra["graph_stats"]["fp32"]["captures"] == 1
        assert result.extra["graph_stats"]["fp32"]["fallbacks"] == 0
