"""Dataset registry: shapes mirror the real datasets they stand in for."""

import pytest

from repro.data import DATASET_REGISTRY, load_dataset


class TestRegistry:
    def test_all_paper_datasets_present(self):
        assert set(DATASET_REGISTRY) == {"cifar10", "emnist", "fmnist",
                                         "celeba", "cinic10"}

    def test_cifar10_spec_matches_real(self):
        spec = DATASET_REGISTRY["cifar10"]
        assert (spec.num_classes, spec.channels, spec.image_size) == (10, 3, 32)
        assert spec.train_size == 50_000

    def test_emnist_is_47_class_grayscale(self):
        spec = DATASET_REGISTRY["emnist"]
        assert spec.num_classes == 47
        assert spec.channels == 1
        assert spec.image_size == 28

    def test_celeba_binary(self):
        assert DATASET_REGISTRY["celeba"].num_classes == 2


class TestLoad:
    def test_scale_shrinks_counts(self):
        task = load_dataset("cifar10", scale=0.01, seed=0)
        assert len(task.x_train) == 500
        assert len(task.x_test) == 100

    def test_image_size_override(self):
        task = load_dataset("fmnist", scale=0.01, image_size=14, seed=0)
        assert task.x_train.shape[-1] == 14

    def test_minimum_sample_floor(self):
        task = load_dataset("emnist", scale=1e-6, seed=0)
        assert len(task.x_train) >= 47 * 4

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("imagenet")

    def test_nonpositive_scale_raises(self):
        with pytest.raises(ValueError):
            load_dataset("cifar10", scale=0.0)

    def test_name_recorded(self):
        assert load_dataset("celeba", scale=0.001).name == "celeba"


class TestSharedTasks:
    """Equal arguments share one task while anyone holds it."""

    def test_equal_arguments_return_the_same_task(self):
        task = load_dataset("cifar10", scale=0.002, image_size=8, seed=3)
        assert load_dataset("cifar10", scale=0.002, image_size=8,
                            seed=3) is task
        assert load_dataset("cifar10", scale=0.002, image_size=8,
                            seed=4) is not task

    def test_released_task_is_dropped(self):
        import gc
        import weakref
        ref = weakref.ref(load_dataset("fmnist", scale=0.002, seed=5))
        gc.collect()
        assert ref() is None

    def test_shared_arrays_are_read_only(self):
        task = load_dataset("fmnist", scale=0.002, seed=6)
        for array in (task.x_train, task.y_train, task.x_test, task.y_test):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
