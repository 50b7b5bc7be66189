"""Figure 13: ablation of SoCFlow's techniques, one at a time.

RING -> +Group -> +Mapping -> +Plan -> +Mixed.  Each step must not slow
training down, and the cumulative speedup must be substantial (the
paper's Figure 13 shows ~4h -> ~0.5h for VGG-11).
"""

from conftest import print_block

from repro.core import SoCFlow, SoCFlowOptions
from repro.harness import format_table

STEPS = [
    ("RING", None),
    ("+Group", SoCFlowOptions(mapping="naive", planning=False,
                              precision="fp32")),
    ("+Mapping", SoCFlowOptions(mapping="integrity", planning=False,
                                precision="fp32")),
    ("+Plan", SoCFlowOptions(mapping="integrity", planning=True,
                             precision="fp32")),
    ("+Mixed", SoCFlowOptions(mapping="integrity", planning=True,
                              precision="mixed")),
]


def test_fig13_technique_ablation(benchmark, suite):
    def compute():
        table = {}
        for model in ("vgg11", "resnet18"):
            config = suite.config(model, num_socs=32, max_epochs=3)
            times = {}
            for label, options in STEPS:
                if options is None:
                    times[label] = suite.run(model, "ring").sim_time_hours
                else:
                    times[label] = SoCFlow(options).train(
                        config).sim_time_hours
            table[model] = times
        return table

    table = benchmark.pedantic(compute, rounds=1, iterations=1)

    for model, times in table.items():
        rows = [[label, round(hours, 3)] for label, hours in times.items()]
        print_block(f"Figure 13: ablation (hours), {model}",
                    format_table(["configuration", "hours"], rows))

    for model, times in table.items():
        ordered = [times[label] for label, _ in STEPS]
        # each added technique never hurts
        for before, after in zip(ordered, ordered[1:]):
            assert after <= before * 1.02, (model, before, after)
        # grouping alone is a big win over one flat ring
        assert times["+Group"] < times["RING"], model
        # mixed precision is a further real win
        assert times["+Mixed"] < times["+Plan"], model
        # cumulative speedup is large (paper: ~10x for VGG-11)
        assert times["RING"] / times["+Mixed"] > 4, model
