"""Named dataset specs mirroring the paper's Table 2 workloads.

Every entry generates a synthetic task whose *shape* (channels, image
size, class count, default sizes) matches the real dataset it stands in
for.  ``scale`` shrinks sample counts proportionally so the harness can
run quick or full configurations.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .synthetic import SyntheticImageTask, make_classification_images

__all__ = ["DatasetSpec", "DATASET_REGISTRY", "load_dataset"]

#: the tasks :func:`load_dataset` handed out that someone still holds,
#: by (name, train size, test size, image size, seed)
_HELD_TASKS: "weakref.WeakValueDictionary[tuple, SyntheticImageTask]" = \
    weakref.WeakValueDictionary()


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one stand-in dataset."""

    name: str
    num_classes: int
    channels: int
    image_size: int
    train_size: int
    test_size: int
    difficulty: float
    stands_in_for: str


DATASET_REGISTRY: dict[str, DatasetSpec] = {
    spec.name: spec for spec in [
        DatasetSpec("cifar10", 10, 3, 32, 50_000, 10_000, 0.55,
                    "CIFAR-10 (Krizhevsky)"),
        DatasetSpec("emnist", 47, 1, 28, 112_800, 18_800, 0.30,
                    "EMNIST balanced (Cohen et al.)"),
        DatasetSpec("fmnist", 10, 1, 28, 60_000, 10_000, 0.40,
                    "Fashion-MNIST (Xiao et al.)"),
        DatasetSpec("celeba", 2, 3, 32, 162_770, 19_962, 0.30,
                    "CelebA binary attribute (Liu et al.)"),
        DatasetSpec("cinic10", 10, 3, 32, 90_000, 90_000, 0.60,
                    "CINIC-10 (Darlow et al.)"),
    ]
}


def load_dataset(name: str, scale: float = 1.0, image_size: int | None = None,
                 seed: int = 0) -> SyntheticImageTask:
    """Build the named synthetic dataset.

    Parameters
    ----------
    scale:
        Fraction of the real dataset's sample count to generate; the
        harness uses small scales so pure-numpy training runs complete
        in seconds.
    image_size:
        Override the spec's image side (the reduced harness uses 16).

    Equal arguments return one shared task for as long as anyone holds
    it (concurrent tenants of one dataset, say), so its arrays are
    read-only.
    """
    try:
        spec = DATASET_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(DATASET_REGISTRY))
        raise ValueError(f"unknown dataset {name!r}; known: {known}") from None
    if scale <= 0:
        raise ValueError("scale must be positive")
    train_size = max(spec.num_classes * 4, int(spec.train_size * scale))
    test_size = max(spec.num_classes * 4, int(spec.test_size * scale))
    image_size = image_size or spec.image_size
    key = (name, train_size, test_size, image_size, seed)
    task = _HELD_TASKS.get(key)
    if task is None:
        task = make_classification_images(
            num_classes=spec.num_classes,
            train_size=train_size,
            test_size=test_size,
            channels=spec.channels,
            image_size=image_size,
            difficulty=spec.difficulty,
            seed=seed,
            name=name,
        )
        for array in (task.x_train, task.y_train, task.x_test, task.y_test):
            array.flags.writeable = False
        _HELD_TASKS[key] = task
    return task
