"""Figure 4: the motivation measurements (§2.3).

(a) end-to-end single-SoC training time, CPU-FP32 vs NPU-INT8;
(b) communication latency of Ring-AllReduce / Parameter-Server as the
    SoC count grows;
(c) convergence accuracy of FP32 vs INT8 training at 32 SoCs.
"""

import pytest
from conftest import print_block

from repro.cluster import ClusterTopology, NetworkFabric
from repro.cluster.spec import model_profile
from repro.harness import format_series, format_table

#: Figure-4a convergence budget backing the spec calibration (epochs x
#: CIFAR-10 samples).
EPOCH_BUDGET = 15
SAMPLES = 50_000


def test_fig04a_single_soc_training_time(benchmark):
    def compute():
        rows = []
        for model in ("vgg11", "resnet18"):
            profile = model_profile(model)
            cpu_h = EPOCH_BUDGET * SAMPLES * profile.t_cpu_sample_s / 3600
            npu_h = EPOCH_BUDGET * SAMPLES * profile.t_npu_sample_s / 3600
            rows.append([model, round(cpu_h, 1), round(npu_h, 1)])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_block("Figure 4a: single-SoC training time (hours)",
                format_table(["model", "CPU-FP32", "NPU-INT8"], rows))

    vgg_cpu, vgg_npu = rows[0][1], rows[0][2]
    r18_cpu, r18_npu = rows[1][1], rows[1][2]
    # paper: 29.1 h / ~7.5 h (VGG-11), 233 h / ~36 h (ResNet-18)
    assert 20 <= vgg_cpu <= 40
    assert 5 <= vgg_npu <= 12
    assert 180 <= r18_cpu <= 280
    assert 25 <= r18_npu <= 50


def test_fig04b_communication_latency(benchmark):
    def compute():
        series = {}
        for model in ("vgg11", "resnet18"):
            payload = model_profile(model).payload_bytes()
            ring, ps = [], []
            socs_axis = [4, 8, 12, 16, 20, 24, 28, 32]
            for n in socs_axis:
                fabric = NetworkFabric(ClusterTopology(num_socs=n))
                members = list(range(n))
                ring.append(1e3 * fabric.ring_allreduce_time(members,
                                                             payload))
                ps.append(1e3 * fabric.parameter_server_time(members,
                                                             payload))
            series[model] = (socs_axis, ring, ps)
        return series

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    for model, (socs, ring, ps) in series.items():
        print_block(
            f"Figure 4b: sync latency (ms), {model}",
            format_table(["socs", "ring_ms", "ps_ms"],
                         [[n, round(r), round(p)]
                          for n, r, p in zip(socs, ring, ps)]))

    socs, ring, ps = series["vgg11"]
    # paper: intra-PCB ring 540 ms, 32-SoC PS 20593 ms for VGG-11
    assert 350 <= ring[0] <= 950
    assert 14_000 <= ps[-1] <= 26_000
    # both grow with the SoC count; PS much steeper
    assert ring[-1] > ring[0] and ps[-1] > ps[0]
    assert ps[-1] / ring[-1] > 5


def test_fig04c_int8_accuracy_degradation(benchmark, suite):
    def compute():
        fp32 = suite.run("vgg11", "socflow", max_epochs=5,
                         precision="fp32")
        int8 = suite.run("vgg11", "socflow", max_epochs=5,
                         precision="int8")
        return fp32, int8

    fp32, int8 = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_block("Figure 4c: convergence accuracy (%), 32 SoCs",
                format_table(
                    ["model", "CPU-FP32", "NPU-INT8", "degradation"],
                    [["vgg11", round(100 * fp32.best_accuracy, 1),
                      round(100 * int8.best_accuracy, 1),
                      round(100 * (fp32.best_accuracy
                                   - int8.best_accuracy), 1)]]))
    # INT8 must not beat FP32 by a meaningful margin (paper: it loses
    # 5.9-8.3%; our milder fake-quant shows a smaller but >= 0-ish gap)
    assert int8.best_accuracy <= fp32.best_accuracy + 0.05
