"""Per-SoC serving replicas: service-time model and batching queues.

A replica is one SoC running one model's inference server.  Its
service time comes from the same Figure-4a calibration the training
:class:`~repro.distributed.base.CostModel` uses: the measured per-sample
NPU *training* latency (forward + backward + update) is scaled to the
hosting SoC's NPU throughput, then divided by
``INFERENCE_TRAIN_RATIO`` for the forward-only pass.  Batching
amortises a fixed launch overhead across the batch, which is why
replicas queue requests instead of serving them one by one — and why
latency has a load-dependent tail the SLO must police.

The queue itself lives in :class:`~repro.serving.plane.ServingPlane`
(it is shared, so a scale-up can drain a backlog); a replica only
records when its NPU frees up and how much work it has done.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.spec import SOC_REGISTRY, SoCSpec, model_profile

__all__ = ["ServiceModel", "Replica"]

#: forward-only inference cost as a share of the measured
#: forward+backward+update training step (the backward pass is ~2x the
#: forward at these depths, so serving one sample costs about a third
#: of training on it).
INFERENCE_TRAIN_RATIO = 1.0 / 3.0


@dataclass(frozen=True)
class ServiceModel:
    """Calibrated inference timing for one model on one SoC type.

    ``per_request_s`` is the marginal cost of one more request in a
    batch; ``batch_overhead_s`` is the fixed cost of launching a batch
    (graph dispatch, DMA setup).  ``batch_seconds(n)`` is the service
    time of an ``n``-request batch.
    """

    model_name: str
    per_request_s: float
    batch_overhead_s: float
    max_batch: int

    def __post_init__(self):
        if self.per_request_s <= 0:
            raise ValueError("per_request_s must be positive")
        if self.batch_overhead_s < 0:
            raise ValueError("batch_overhead_s must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    @classmethod
    def for_model(cls, model_name: str, *, soc: SoCSpec | None = None,
                  max_batch: int = 8,
                  batch_overhead_s: float = 0.015) -> "ServiceModel":
        """Derive from the shared calibration (same rule as CostModel).

        Measured SD865 NPU latencies are rescaled to ``soc``'s NPU;
        models without a measurement fall back to FLOPs over sustained
        NPU throughput.  Either way the training-step time is scaled by
        :data:`INFERENCE_TRAIN_RATIO` for the forward-only pass.
        """
        soc = soc or SOC_REGISTRY["sd865"]
        profile = model_profile(model_name)
        sd865 = SOC_REGISTRY["sd865"]
        if profile.t_npu_sample_s is not None:
            train_s = profile.t_npu_sample_s * sd865.npu.flops / soc.npu.flops
        else:
            train_s = profile.flops_per_sample / soc.npu.flops
        return cls(model_name=model_name,
                   per_request_s=train_s * INFERENCE_TRAIN_RATIO,
                   batch_overhead_s=batch_overhead_s,
                   max_batch=max_batch)

    def batch_seconds(self, n: int) -> float:
        """Service time of an ``n``-request batch."""
        if not 1 <= n <= self.max_batch:
            raise ValueError(f"batch size {n} not in [1, {self.max_batch}]")
        return self.batch_overhead_s + n * self.per_request_s

    @property
    def peak_rps(self) -> float:
        """Best-case throughput: full batches back to back."""
        return self.max_batch / self.batch_seconds(self.max_batch)


class Replica:
    """One SoC's serving state: busy-until time and work counters,
    written back by the plane's event core once per check window."""

    def __init__(self, soc: int, service: ServiceModel, *,
                 ready_hour: float = 0.0):
        self.soc = soc
        self.service = service
        #: the NPU is occupied until this hour (from ``ready_hour``: model
        #: load / warm-up on spin-up)
        self.free_hour = ready_hour
        self.requests_served = 0
        self.batches = 0

    @property
    def busy_s(self) -> float:
        """NPU-busy seconds, derived from the two work counters."""
        return (self.batches * self.service.batch_overhead_s
                + self.requests_served * self.service.per_request_s)
