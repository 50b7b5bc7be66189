"""Service-time calibration and replica batching state."""

import pytest

from repro.cluster.spec import SOC_REGISTRY, model_profile
from repro.serving import Replica, ServiceModel
from repro.serving.replica import INFERENCE_TRAIN_RATIO


class TestServiceModel:
    def test_measured_model_uses_figure_4a_latency(self):
        svc = ServiceModel.for_model("vgg11")
        profile = model_profile("vgg11")
        assert svc.per_request_s == pytest.approx(
            profile.t_npu_sample_s * INFERENCE_TRAIN_RATIO)

    def test_scales_with_npu_throughput(self):
        """Same rule as CostModel: measured SD865 latency rescaled by
        the hosting SoC's NPU FLOPs."""
        sd865 = SOC_REGISTRY["sd865"]
        for name, soc in sorted(SOC_REGISTRY.items()):
            svc = ServiceModel.for_model("vgg11", soc=soc)
            ref = ServiceModel.for_model("vgg11", soc=sd865)
            assert svc.per_request_s == pytest.approx(
                ref.per_request_s * sd865.npu.flops / soc.npu.flops)

    def test_unmeasured_model_extrapolates_from_flops(self):
        svc = ServiceModel.for_model("mobilenet_v1")
        profile = model_profile("mobilenet_v1")
        soc = SOC_REGISTRY["sd865"]
        assert svc.per_request_s == pytest.approx(
            profile.flops_per_sample / soc.npu.flops
            * INFERENCE_TRAIN_RATIO)

    def test_batch_seconds_amortises_overhead(self):
        svc = ServiceModel.for_model("vgg11", max_batch=8)
        per_request_full = svc.batch_seconds(8) / 8
        per_request_single = svc.batch_seconds(1)
        assert per_request_full < per_request_single

    def test_batch_bounds_enforced(self):
        svc = ServiceModel.for_model("vgg11", max_batch=4)
        with pytest.raises(ValueError):
            svc.batch_seconds(0)
        with pytest.raises(ValueError):
            svc.batch_seconds(5)

    def test_peak_rps(self):
        svc = ServiceModel.for_model("vgg11", max_batch=8)
        assert svc.peak_rps == pytest.approx(8 / svc.batch_seconds(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceModel("m", per_request_s=0.0, batch_overhead_s=0.0,
                         max_batch=1)
        with pytest.raises(ValueError):
            ServiceModel("m", per_request_s=0.01, batch_overhead_s=-1.0,
                         max_batch=1)
        with pytest.raises(ValueError):
            ServiceModel("m", per_request_s=0.01, batch_overhead_s=0.0,
                         max_batch=0)


class TestReplica:
    def test_starts_free_at_ready_hour(self):
        svc = ServiceModel("m", per_request_s=0.1, batch_overhead_s=0.1,
                           max_batch=4)
        replica = Replica(soc=3, service=svc, ready_hour=1.0)
        assert replica.free_hour == 1.0
        assert replica.busy_s == 0.0

    def test_busy_s_derived_from_counters(self):
        """Busy time is a function of the two counters, not a running
        sum: any order of the same batches gives the same value."""
        svc = ServiceModel("m", per_request_s=0.1, batch_overhead_s=0.1,
                           max_batch=4)
        replica = Replica(soc=0, service=svc)
        replica.batches, replica.requests_served = 3, 7
        assert replica.busy_s == pytest.approx(
            svc.batch_seconds(4) + svc.batch_seconds(2)
            + svc.batch_seconds(1))
