"""Extension ablations: the §4.1 optimisations without their own figure.

(1) Underclocking-aware workload rebalancing: a DVFS event slows one
    SoC; rebalancing moves batch shares to its group peers instead of
    letting it straggle.
(2) Checkpoint-based preemption: terminating logical groups mid-run
    costs accuracy gracefully instead of killing the job.
"""

from conftest import print_block

from repro.cluster import FaultSchedule, PreemptionStorm, StragglerFault
from repro.core import SoCFlow, SoCFlowOptions
from repro.harness import format_table


def test_underclocking_rebalancing(benchmark, suite):
    def compute():
        config = suite.config("vgg11", num_socs=32, max_epochs=3)
        underclocked = suite.config(
            "vgg11", num_socs=32, max_epochs=3,
            fault_schedule=FaultSchedule(tuple(
                StragglerFault(epoch=0, soc=s, factor=0.5) for s in (0, 9))))
        baseline = SoCFlow(SoCFlowOptions()).train(config)
        straggler = SoCFlow(SoCFlowOptions(
            rebalance=False)).train(underclocked)
        rebalanced = SoCFlow(SoCFlowOptions(
            rebalance=True)).train(underclocked)
        return baseline, straggler, rebalanced

    baseline, straggler, rebalanced = benchmark.pedantic(compute, rounds=1,
                                                         iterations=1)
    rows = [["no underclock", round(baseline.sim_time_hours, 4)],
            ["underclocked, no rebalance",
             round(straggler.sim_time_hours, 4)],
            ["underclocked, rebalanced",
             round(rebalanced.sim_time_hours, 4)]]
    print_block("§4.1 optimisation 2: underclocking-aware rebalancing",
                format_table(["configuration", "hours"], rows))

    assert baseline.sim_time_s < rebalanced.sim_time_s < \
        straggler.sim_time_s
    # rebalancing recovers most of the straggler penalty
    penalty_raw = straggler.sim_time_s - baseline.sim_time_s
    penalty_rebalanced = rebalanced.sim_time_s - baseline.sim_time_s
    assert penalty_rebalanced < 0.5 * penalty_raw


def test_preemption_graceful_degradation(benchmark, suite):
    def compute():
        config = suite.config("vgg11", num_socs=32, max_epochs=4)
        normal = SoCFlow(SoCFlowOptions()).train(config)
        preempted = SoCFlow(SoCFlowOptions()).train(suite.config(
            "vgg11", num_socs=32, max_epochs=4, fault_schedule=FaultSchedule(
                (PreemptionStorm(epoch=2, num_groups=4),))))
        return normal, preempted

    normal, preempted = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_block("Preemption: losing half the groups at epoch 2",
                format_table(
                    ["run", "final_acc_pct", "hours", "groups_lost"],
                    [["uninterrupted",
                      round(100 * normal.final_accuracy, 1),
                      round(normal.sim_time_hours, 4), 0],
                     ["preempted",
                      round(100 * preempted.final_accuracy, 1),
                      round(preempted.sim_time_hours, 4),
                      preempted.extra["groups_preempted"]]]))

    # training survives the preemption and still produces a model
    assert preempted.epochs_run == normal.epochs_run
    assert preempted.extra["groups_preempted"] == 4
    assert preempted.final_accuracy > 0.0
