"""Figure 6: accuracy vs logical-group count.

Convergence accuracy degrades as the group count grows (delayed
aggregation across more groups = larger effective batch + staleness),
and the *first-epoch* accuracy mirrors the trend — the observation the
group-size heuristic (§3.1) is built on.
"""

from conftest import print_block

from repro.core import SoCFlow, SoCFlowOptions, select_group_count
from repro.harness import format_table

GROUP_COUNTS = [1, 2, 4, 8, 16]


def test_fig06_accuracy_vs_group_count(benchmark, suite):
    def compute():
        rows = {}
        for n in GROUP_COUNTS:
            config = suite.config("vgg11", num_socs=32, max_epochs=6,
                                  preset="bench")
            from dataclasses import replace
            config = replace(config, num_groups=n)
            result = SoCFlow(SoCFlowOptions(precision="fp32")).train(config)
            rows[n] = (result.extra["first_epoch_group_accuracy"],
                       result.best_accuracy)
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_block(
        "Figure 6: accuracy vs group count (VGG-11)",
        format_table(
            ["groups", "first_epoch_acc_pct", "final_acc_pct"],
            [[n, round(100 * first, 1), round(100 * final, 1)]
             for n, (first, final) in rows.items()]))

    first_epoch = {n: first for n, (first, _) in rows.items()}
    final = {n: f for n, (_, f) in rows.items()}
    # small group counts converge well; 16 groups degrade notably
    assert final[1] > final[16]
    assert first_epoch[1] > first_epoch[16]

    # the heuristic picks a moderate group count from the profile
    chosen = select_group_count(first_epoch)
    print_block("Heuristic choice", format_table(
        ["selected group count"], [[chosen]]))
    assert 1 <= chosen <= 8
