"""Extension: bucketed gradient fusion with comm/compute overlap.

A Fig.-8-style epoch-time comparison with the fusion knobs off vs on
(``--fusion-threshold-mb 4``).  The overlap timeline starts each
gradient bucket's collective as soon as backward has produced it, so
strategies whose sync is long relative to the §4.1 baseline hiding
(PS incast above all) finish the epoch strictly earlier; SoCFlow's
CG-planned pipeline already hides its sync under the full compute
window, which no bucket plan can beat, so whole-model sync is charged
and fusion leaves its clock exactly unchanged — the breakdown still
attributes the hidden share.

Writes the epoch-breakdown report to ``$BENCH_OVERLAP_OUT`` when set
(CI uploads it as a workflow artifact).
"""

import json
import os

from conftest import print_block

from repro.core import SoCFlow, SoCFlowOptions
from repro.distributed import build_strategy
from repro.harness import format_table
from repro.telemetry import Telemetry, Tracer, MetricsRegistry
from repro.telemetry.export import render_epoch_table

REPORT_ENV = "BENCH_OVERLAP_OUT"
THRESHOLD_MB = 4.0
#: Fig. 8 rows exercised here: the compute-heavy ResNet-18 panel is
#: where overlap has room to win; VGG11 pins the "never slower"
#: guarantee (a losing bucket plan is not charged) on a sync-dominated
#: workload.
WORKLOADS = ["resnet18", "vgg11"]
METHODS = ["ps", "ring", "socflow"]
EPOCHS = 2


def run(suite, workload, method, fused, telemetry=None):
    config = suite.config(workload, num_socs=16, max_epochs=EPOCHS,
                          **(dict(fusion_threshold_mb=THRESHOLD_MB)
                             if fused else {}))
    if telemetry is not None:
        import dataclasses
        config = dataclasses.replace(config, telemetry=telemetry)
    if method == "socflow":
        return SoCFlow(SoCFlowOptions()).train(config)
    return build_strategy(method).train(config)


def hidden_fraction(result):
    hidden = result.extra.get("sync_hidden_s", 0.0)
    visible = result.breakdown.get("sync", 0.0)
    busy = hidden + visible
    return hidden / busy if busy > 0 else 0.0


def test_overlap_epoch_time(benchmark, suite):
    def compute():
        out = {}
        for workload in WORKLOADS:
            for method in METHODS:
                out[workload, method] = (
                    run(suite, workload, method, fused=False),
                    run(suite, workload, method, fused=True))
        return out

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows, report = [], {"threshold_mb": THRESHOLD_MB, "epochs": EPOCHS,
                        "rows": []}
    for (workload, method), (ref, fused) in sorted(results.items()):
        epoch_ref = ref.sim_time_s / ref.epochs_run
        epoch_fused = fused.sim_time_s / fused.epochs_run
        frac = hidden_fraction(fused)
        rows.append([workload, method, round(epoch_ref, 2),
                     round(epoch_fused, 2),
                     round(100 * (1 - epoch_fused / epoch_ref), 2),
                     round(100 * frac, 1)])
        report["rows"].append({
            "workload": workload, "method": method,
            "epoch_s_unfused": epoch_ref, "epoch_s_fused": epoch_fused,
            "comm_hidden_fraction": frac,
            "sync_hidden_s": fused.extra.get("sync_hidden_s", 0.0),
            "sync_visible_s": fused.breakdown.get("sync", 0.0)})
    print_block(
        f"ext-6: epoch time, fusion off vs on ({THRESHOLD_MB} MB buckets)",
        format_table(["workload", "method", "epoch_s", "epoch_s_fused",
                      "saved_pct", "hidden_pct"], rows))

    # per-epoch breakdown (with the hidden column) for the artifact
    telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
    traced = run(suite, "resnet18", "socflow", fused=True,
                 telemetry=telemetry)
    epoch_table = render_epoch_table(telemetry.epoch_rows)
    print_block("ext-6: fused SoCFlow resnet18 epoch breakdown", epoch_table)
    report["epoch_breakdown"] = telemetry.epoch_rows
    assert any(row.get("hidden_s") for row in telemetry.epoch_rows)
    assert traced.accuracy_history == \
        results["resnet18", "socflow"][1].accuracy_history

    out = os.environ.get(REPORT_ENV)
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for (workload, method), (ref, fused) in results.items():
        # fusion never changes what is learned, and never loses time
        assert fused.accuracy_history == ref.accuracy_history, \
            (workload, method)
        assert fused.sim_time_s <= ref.sim_time_s, (workload, method)
        assert hidden_fraction(fused) > 0.0, (workload, method)
    # the headline claim: overlap strictly shortens the epoch on the
    # compute-heavy Fig. 8 panel for the incast-bound baseline
    ref, fused = results["resnet18", "ps"]
    assert fused.sim_time_s < ref.sim_time_s
    # SoCFlow's planned pipeline already overlapped: no bucket plan
    # beats it, so whole-model sync is charged and the clock ties
    ref, fused = results["resnet18", "socflow"]
    assert fused.sim_time_s == ref.sim_time_s
