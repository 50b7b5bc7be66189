"""Shared fixtures: a tiny synthetic task and quick run configs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterTopology
from repro.data import make_classification_images
from repro.distributed import RunConfig


def make_tiny_task():
    """A 600-sample 6-class task that trains in a couple of seconds."""
    return make_classification_images(
        num_classes=6, train_size=600, test_size=240, channels=3,
        image_size=12, difficulty=0.4, seed=0)


@pytest.fixture(scope="session")
def tiny_task():
    return make_tiny_task()


@pytest.fixture(scope="session")
def mnist_like_task():
    """Single-channel 28x28-style task (LeNet input shape)."""
    return make_classification_images(
        num_classes=10, train_size=400, test_size=160, channels=1,
        image_size=20, difficulty=0.35, seed=1)


@pytest.fixture()
def quick_config(tiny_task):
    """A RunConfig small enough for per-test training runs."""
    return RunConfig(
        task=tiny_task, model_name="vgg11", width=0.15, batch_size=16,
        lr=0.05, momentum=0.9, max_epochs=2, seed=0,
        topology=ClusterTopology(num_socs=32),
        sim_samples_per_epoch=50_000, sim_global_batch=64, num_groups=8)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
