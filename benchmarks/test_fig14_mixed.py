"""Figure 14: accuracy-vs-time curves of the mixed-precision algorithm.

Four modes: Ours-FP32 (CPU only), Ours-INT8 (NPU only), Ours-Half
(fixed alpha = 0.7) and Ours-Mixed (dynamic alpha/beta).  The paper's
reading: Mixed combines INT8's speed with FP32's accuracy; the fixed
split misses both.
"""

from conftest import print_block

from repro.harness import format_table

MODES = {
    "Ours-FP32": dict(precision="fp32"),
    "Ours-Mixed": dict(),
    "Ours-Half": dict(fixed_alpha=0.7),
    "Ours-INT8": dict(precision="int8"),
}
EPOCHS = 6


def test_fig14_precision_mode_curves(benchmark, suite):
    def compute():
        return {label: suite.run("vgg11", "socflow", max_epochs=EPOCHS,
                                 preset="bench", **options)
                for label, options in MODES.items()}

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for label, result in results.items():
        per_epoch_h = result.sim_time_hours / result.epochs_run
        curve = " ".join(
            f"({(i + 1) * per_epoch_h:.3f}h,{100 * acc:.0f}%)"
            for i, acc in enumerate(result.accuracy_history))
        rows.append([label, round(result.sim_time_hours, 3),
                     round(100 * result.best_accuracy, 1), curve])
    print_block("Figure 14: accuracy-vs-time (VGG-11, first epochs)",
                format_table(["mode", "hours", "best_acc_pct",
                              "curve (time, acc)"], rows))

    time = {label: r.sim_time_hours for label, r in results.items()}
    acc = {label: r.best_accuracy for label, r in results.items()}

    # the speed ordering of the paper's x-axis
    assert time["Ours-INT8"] <= time["Ours-Mixed"] * 1.001
    assert time["Ours-Mixed"] < time["Ours-Half"] < time["Ours-FP32"]
    # Mixed reaches a usable accuracy while being much faster than FP32
    assert time["Ours-FP32"] / time["Ours-Mixed"] > 1.5
    assert acc["Ours-Mixed"] > 0.5 * acc["Ours-FP32"]
