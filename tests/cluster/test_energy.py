"""Energy model accounting."""

import pytest

from repro.cluster import EnergyModel, EnergyReport
from repro.cluster.spec import GPU_REGISTRY, SOC_REGISTRY
from repro.harness.gpu import gpu_energy_kj


def model():
    return EnergyModel(SOC_REGISTRY["sd865"])


class TestCharges:
    def test_compute_charges_cpu_watts(self):
        m = model()
        m.charge_compute(10.0, num_socs=2, cpu_fraction=1.0)
        soc = SOC_REGISTRY["sd865"]
        assert m.report.cpu_j == pytest.approx(20 * soc.cpu.busy_watts)
        assert m.report.npu_j == 0.0
        assert m.report.idle_j == pytest.approx(20 * soc.idle_watts)

    def test_compute_split_between_processors(self):
        m = model()
        m.charge_compute(10.0, num_socs=1, cpu_fraction=0.4)
        soc = SOC_REGISTRY["sd865"]
        assert m.report.cpu_j == pytest.approx(4 * soc.cpu.busy_watts)
        assert m.report.npu_j == pytest.approx(6 * soc.npu.busy_watts)

    def test_charge_mixed_busy_times(self):
        m = model()
        m.charge_mixed(cpu_busy_s=3.0, npu_busy_s=1.0, wall_s=3.0, num_socs=2)
        soc = SOC_REGISTRY["sd865"]
        assert m.report.cpu_j == pytest.approx(6 * soc.cpu.busy_watts)
        assert m.report.npu_j == pytest.approx(2 * soc.npu.busy_watts)
        assert m.report.idle_j == pytest.approx(6 * soc.idle_watts)

    def test_network_idle_toggle(self):
        m = model()
        m.charge_network(5.0, num_socs=1, include_idle=False)
        assert m.report.idle_j == 0.0
        assert m.report.network_j > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            model().charge_compute(-1.0, 1)
        with pytest.raises(ValueError):
            model().charge_network(-1.0, 1)

    def test_npu_cheaper_than_cpu(self):
        """The core energy claim: INT8 on NPU burns less than FP32 on CPU."""
        cpu = model()
        cpu.charge_compute(10.0, 1, cpu_fraction=1.0)
        npu = model()
        npu.charge_compute(10.0, 1, cpu_fraction=0.0)
        assert npu.report.total_j < cpu.report.total_j


class TestReport:
    def test_total_sums_components(self):
        r = EnergyReport(cpu_j=1, npu_j=2, network_j=3, idle_j=4)
        assert r.total_j == 10
        assert r.total_kj == pytest.approx(0.01)

    def test_add(self):
        a = EnergyReport(cpu_j=1)
        b = EnergyReport(npu_j=2)
        assert (a + b).total_j == 3


class TestGpu:
    def test_gpu_energy(self):
        assert gpu_energy_kj("v100", 10.0) == pytest.approx(3.0)

    def test_v100_draws_more_than_60_socs_idle(self):
        soc = SOC_REGISTRY["sd865"]
        assert GPU_REGISTRY["v100"].busy_watts > 60 * soc.idle_watts
