"""Batching, shuffling and cross-worker sharding utilities.

SoCFlow is data-parallel: the global scheduler dispatches a partial
dataset to each SoC (§3, "each SoC loads only a partial dataset").
:func:`shard` and :func:`iid_partition` implement the IID splits the
paper's experiments use, and cross-group shuffling (§3.1) is one call
to :meth:`DataLoader.reshuffle`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["ArrayDataset", "DataLoader", "shard", "iid_partition"]


class ArrayDataset:
    """A (features, labels) pair with length checking."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if len(x) != len(y):
            raise ValueError(f"length mismatch: {len(x)} features vs "
                             f"{len(y)} labels")
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index) -> tuple[np.ndarray, np.ndarray]:
        return self.x[index], self.y[index]


class DataLoader:
    """Iterate mini-batches in a fresh shuffled order each epoch; the
    last batch keeps the remainder."""

    def __init__(self, dataset: ArrayDataset, batch_size: int,
                 seed: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        self._rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self.dataset.x[idx], self.dataset.y[idx]

    def reshuffle(self, seed: int) -> None:
        """Re-seed the shuffle order (used for cross-group reshuffling)."""
        self._rng = np.random.default_rng(seed)


def shard(x: np.ndarray, y: np.ndarray, num_shards: int,
          shard_index: int) -> ArrayDataset:
    """Strided shard ``shard_index`` of ``num_shards`` (IID by position)."""
    if not 0 <= shard_index < num_shards:
        raise ValueError(f"shard_index {shard_index} out of range "
                         f"[0, {num_shards})")
    return ArrayDataset(x[shard_index::num_shards], y[shard_index::num_shards])


def iid_partition(x: np.ndarray, y: np.ndarray, num_parts: int,
                  seed: int = 0) -> list[ArrayDataset]:
    """Random equal-size IID partition into ``num_parts`` datasets."""
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    parts = np.array_split(order, num_parts)
    return [ArrayDataset(x[idx], y[idx]) for idx in parts]
