"""Deep Gradient Compression (Lin et al., ICLR'18) — HiPress's sparsifier.

Per parameter tensor, only the top ``ratio`` fraction of gradient
entries by magnitude is transmitted; the rest accumulates locally in a
residual and is folded into later rounds.  This is the algorithm the
HiPress baseline (Bai et al., SOSP'21) plugs into its synchronisation
pipeline, and it is applied *for real* here so its accuracy effect is
measured, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseGradient", "DgcCompressor"]


@dataclass(frozen=True)
class SparseGradient:
    """A compressed gradient tensor: values at flat indices."""

    indices: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def densify(self) -> np.ndarray:
        dense = np.zeros(int(np.prod(self.shape)), dtype=np.float32)
        dense[self.indices] = self.values
        return dense.reshape(self.shape)


class DgcCompressor:
    """Top-k sparsification with local residual accumulation.

    Parameters
    ----------
    ratio:
        Fraction of entries kept per tensor (DGC's headline setting is
        0.001–0.01; HiPress evaluates at 0.01).
    min_keep:
        Lower bound on kept entries so tiny tensors still synchronise.
    """

    def __init__(self, ratio: float = 0.01, min_keep: int = 1):
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.min_keep = min_keep
        self._residuals: dict[str, np.ndarray] = {}

    def compress(self, name: str, grad: np.ndarray) -> SparseGradient:
        """Sparsify ``grad``; dropped mass is remembered for next time."""
        residual = self._residuals.get(name)
        if residual is None:
            residual = np.zeros_like(grad)
        accumulated = grad + residual
        flat = accumulated.ravel()
        keep = max(self.min_keep, int(round(self.ratio * flat.size)))
        keep = min(keep, flat.size)
        if keep == flat.size:
            top = np.arange(flat.size)
        else:
            top = np.argpartition(np.abs(flat), -keep)[-keep:]
        values = flat[top].astype(np.float32)
        new_residual = accumulated.copy()
        new_residual.ravel()[top] = 0.0
        self._residuals[name] = new_residual
        return SparseGradient(top.astype(np.int64), values, grad.shape)
