"""SoCFlow end-to-end: training, ablation switches, events."""

import numpy as np
import pytest

from repro.core import (PreemptionEvent, SoCFlow, SoCFlowOptions,
                        UnderclockEvent, build_socflow)


def run(config, **options):
    return SoCFlow(SoCFlowOptions(**options)).train(config)


class TestEndToEnd:
    def test_produces_complete_result(self, quick_config):
        result = run(quick_config)
        assert result.strategy == "socflow"
        assert result.epochs_run == quick_config.max_epochs
        assert result.sim_time_s > 0
        assert set(result.breakdown) == {"compute", "sync", "update"}
        assert result.energy.total_j > 0
        assert result.extra["num_groups"] == quick_config.num_groups

    def test_deterministic_given_seed(self, quick_config):
        a = run(quick_config)
        b = run(quick_config)
        assert a.accuracy_history == b.accuracy_history
        assert a.sim_time_s == b.sim_time_s

    def test_accuracy_above_chance_after_training(self, tiny_task,
                                                  quick_config):
        from dataclasses import replace
        config = replace(quick_config, max_epochs=6, num_groups=4)
        result = run(config)
        assert result.best_accuracy > 1.5 / tiny_task.num_classes

    def test_alpha_history_recorded(self, quick_config):
        result = run(quick_config)
        assert len(result.extra["alpha_history"]) == quick_config.max_epochs


class TestAblationSwitches:
    def test_grouping_off_single_ring(self, quick_config):
        result = run(quick_config, grouping=False)
        assert result.extra["num_groups"] == 1

    def test_planning_off_is_slower_or_equal(self, quick_config):
        planned = run(quick_config)
        unplanned = run(quick_config, planning=False)
        assert planned.sim_time_s <= unplanned.sim_time_s * 1.001

    def test_naive_mapping_no_faster_than_integrity(self, quick_config):
        integrity = run(quick_config, planning=False)
        naive = run(quick_config, planning=False, mapping="naive")
        assert integrity.sim_time_s <= naive.sim_time_s * 1.001

    def test_mixed_faster_than_fp32(self, quick_config):
        mixed = run(quick_config)
        fp32 = run(quick_config, precision="fp32")
        assert mixed.sim_time_s < fp32.sim_time_s

    def test_int8_fastest(self, quick_config):
        int8 = run(quick_config, precision="int8")
        mixed = run(quick_config)
        assert int8.sim_time_s <= mixed.sim_time_s * 1.001

    def test_int8_cheapest_energy(self, quick_config):
        int8 = run(quick_config, precision="int8")
        fp32 = run(quick_config, precision="fp32")
        assert int8.energy.total_j < fp32.energy.total_j

    def test_fixed_alpha_pins_controller(self, quick_config):
        result = run(quick_config, fixed_alpha=0.7)
        assert result.extra["alpha_history"] == []

    def test_invalid_options_raise(self):
        with pytest.raises(ValueError):
            SoCFlowOptions(mapping="random")
        with pytest.raises(ValueError):
            SoCFlowOptions(precision="fp64")

    def test_build_socflow_kwargs(self):
        strategy = build_socflow(planning=False)
        assert strategy.options.planning is False


class TestEvents:
    def test_preemption_drops_groups(self, quick_config):
        result = run(quick_config,
                     events=(PreemptionEvent(epoch=1, num_groups=2),))
        assert result.extra["groups_preempted"] == 2
        assert result.epochs_run == quick_config.max_epochs

    def test_preemption_never_kills_last_group(self, quick_config):
        result = run(quick_config,
                     events=(PreemptionEvent(epoch=0, num_groups=99),))
        assert result.extra["groups_preempted"] < quick_config.num_groups

    def test_underclock_slows_training(self, quick_config):
        slow = run(quick_config, rebalance=False,
                   events=(UnderclockEvent(epoch=0, soc=0, factor=0.4),))
        normal = run(quick_config)
        assert slow.sim_time_s > normal.sim_time_s

    def test_rebalancing_mitigates_underclock(self, quick_config):
        events = (UnderclockEvent(epoch=0, soc=0, factor=0.4),)
        rebalanced = run(quick_config, rebalance=True, events=events)
        straggler = run(quick_config, rebalance=False, events=events)
        assert rebalanced.sim_time_s < straggler.sim_time_s


class TestAutoGroupSize:
    def test_profile_recorded_and_applied(self, quick_config):
        from dataclasses import replace
        config = replace(quick_config, max_epochs=1,
                         topology=quick_config.topology.restricted(16))
        result = run(config, auto_group_size=True)
        profile = result.extra["group_size_profile"]
        assert set(profile) == {1, 2, 4, 8}
        assert result.extra["num_groups"] in profile

    def test_disabled_when_grouping_off(self, quick_config):
        from dataclasses import replace
        config = replace(quick_config, max_epochs=1)
        result = run(config, auto_group_size=True, grouping=False)
        assert "group_size_profile" not in result.extra
        assert result.extra["num_groups"] == 1


class TestBreakdown:
    def test_sync_share_between_dml_and_fl(self, quick_config):
        """Figure 12: SoCFlow's sync share sits between RING's (~80%)
        and FedAvg's (~15%)."""
        result = run(quick_config)
        share = result.phase_shares()["sync"]
        assert 0.10 < share < 0.80
