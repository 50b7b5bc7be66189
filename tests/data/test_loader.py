"""DataLoader, sharding and IID partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import ArrayDataset, DataLoader, iid_partition, shard


def dataset(n=100):
    x = np.arange(n, dtype=np.float32).reshape(n, 1)
    y = np.arange(n, dtype=np.int64)
    return ArrayDataset(x, y)


class TestArrayDataset:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1)), np.zeros(4))

    def test_indexing(self):
        ds = dataset(10)
        x, y = ds[3]
        assert y == 3


class TestDataLoader:
    def test_batch_count_without_drop(self):
        loader = DataLoader(dataset(10), batch_size=3)
        assert len(loader) == 4
        batches = list(loader)
        assert len(batches[-1][0]) == 1

    def test_covers_every_sample_once(self):
        loader = DataLoader(dataset(50), batch_size=7, seed=3)
        seen = np.concatenate([y for _, y in loader])
        assert sorted(seen.tolist()) == list(range(50))

    def test_shuffle_changes_order_across_epochs(self):
        loader = DataLoader(dataset(50), batch_size=50, seed=3)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_reshuffle_resets_stream(self):
        loader = DataLoader(dataset(20), batch_size=20, seed=5)
        a = next(iter(loader))[1].copy()
        loader.reshuffle(5)
        b = next(iter(loader))[1].copy()
        np.testing.assert_array_equal(a, b)

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            DataLoader(dataset(), batch_size=0)


class TestSharding:
    def test_strided_shards_disjoint_and_complete(self):
        ds = dataset(10)
        shards = [shard(ds.x, ds.y, 3, i) for i in range(3)]
        labels = np.concatenate([s.y for s in shards])
        assert sorted(labels.tolist()) == list(range(10))

    def test_shard_index_validation(self):
        ds = dataset(10)
        with pytest.raises(ValueError):
            shard(ds.x, ds.y, 3, 3)

    @given(st.integers(1, 16), st.integers(16, 200))
    @settings(max_examples=30, deadline=None)
    def test_iid_partition_complete_and_balanced(self, parts, n):
        x = np.arange(n, dtype=np.float32).reshape(n, 1)
        y = np.arange(n, dtype=np.int64)
        partition = iid_partition(x, y, parts, seed=0)
        assert len(partition) == parts
        all_labels = np.concatenate([p.y for p in partition])
        assert sorted(all_labels.tolist()) == list(range(n))
        sizes = [len(p) for p in partition]
        assert max(sizes) - min(sizes) <= 1

    def test_iid_partition_validation(self):
        with pytest.raises(ValueError):
            iid_partition(np.zeros((4, 1)), np.zeros(4), 0)
