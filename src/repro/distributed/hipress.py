"""HiPress baseline (Bai et al., SOSP'21): compression-aware sync.

HiPress plugs DGC sparsification into data-parallel gradient
synchronisation.  Here the DGC top-k with residual accumulation is
applied to the real gradients every step (so its accuracy effect is
measured), and the wire payload shrinks by the compression ratio plus a
per-step compression compute overhead.
"""

from __future__ import annotations

from ..comm.compression import DgcCompressor
from .base import CostModel
from .ssgd import SsgdStrategy

__all__ = ["HiPress"]

#: CPU-side compression/decompression cost per gradient element, seconds.
#: Top-k selection is a few passes over the gradient on the mobile CPU.
_COMPRESS_SECONDS_PER_ELEMENT = 6e-9


#: DGC warm-up: sparsity ramps up over the first epochs (Lin et al. §3.3)
_WARMUP_RATIOS = (0.25, 0.0625, 0.015625)


class HiPress(SsgdStrategy):
    name = "hipress"

    def __init__(self, compression_ratio: float = 0.01):
        self.final_ratio = compression_ratio
        self.compressor = DgcCompressor(ratio=_WARMUP_RATIOS[0])

    def on_epoch_begin(self, epoch: int) -> None:
        if epoch < len(_WARMUP_RATIOS):
            ratio = max(_WARMUP_RATIOS[epoch], self.final_ratio)
        else:
            ratio = self.final_ratio
        self.compressor.ratio = ratio

    def step_sync_seconds(self, cost: CostModel, nbytes: float,
                          num_tensors: float | None = None) -> float:
        socs = list(range(cost.topology.num_socs))
        # Steady-state wire size (warm-up epochs transfer more but are few).
        wire_bytes = nbytes * 2.0 * self.final_ratio
        transfer = cost.fabric.ring_allreduce_time(socs, wire_bytes,
                                                   num_tensors=num_tensors)
        # Top-k compression walks only the bucket's share of the elements.
        scale = nbytes / cost.grad_bytes
        compress = _COMPRESS_SECONDS_PER_ELEMENT * cost.profile.params * scale
        return transfer + compress

    def transform_gradients(self, model) -> None:
        for name, param in model.named_parameters():
            if param.grad is not None:
                sparse = self.compressor.compress(name, param.grad)
                param.grad = sparse.densify()
