"""Deterministic class-conditional synthetic image generation.

Each class is a mixture of spatially-smooth prototype images; samples
are prototypes plus jitter (shift, noise, per-sample gain).  The
``difficulty`` knob moves class prototypes closer together and raises
noise, which controls how hard the task is to learn — important because
the paper's effects (INT8 degradation, large-group degradation) only
show on tasks that are neither trivial nor impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SyntheticImageTask", "make_classification_images"]

#: bytes of one float64 temporary a block of generated samples fills
_BLOCK_BYTES = 1 << 19


def _gaussian_smooth(raw: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian over the two image axes of a ``(C, H, W)``
    float64 array, byte-identical to
    ``scipy.ndimage.gaussian_filter(raw, sigma=(0, sigma, sigma))``
    (pinned by test): scipy's kernel (truncate 4.0), its ``reflect``
    boundary and its symmetric-kernel accumulation order — centre tap
    first, then the tap pairs from the outermost inwards.  Importing
    ``scipy.ndimage`` for this one call cost every process ~0.3 s and
    ~30 MB.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    out = raw
    for axis in (1, 2):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        # numpy calls scipy's "reflect" (d c b a | a b c d | d c b a)
        # "symmetric"
        line = np.moveaxis(np.pad(out, pad, mode="symmetric"), axis, -1)
        n = out.shape[axis]
        acc = line[..., radius:radius + n] * weights[radius]
        for j in range(radius, 0, -1):
            acc += (line[..., radius - j:radius - j + n]
                    + line[..., radius + j:radius + j + n]) * weights[radius - j]
        out = np.moveaxis(acc, -1, axis)
    return out


def _smooth_prototype(rng: np.random.Generator, channels: int, size: int,
                      sigma: float) -> np.ndarray:
    raw = rng.standard_normal((channels, size, size))
    smooth = _gaussian_smooth(raw, sigma)
    peak = np.abs(smooth).max()
    return (smooth / peak).astype(np.float32)


@dataclass
class SyntheticImageTask:
    """A generated classification task with train/test splits."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    name: str = "synthetic"
    meta: dict = field(default_factory=dict)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return tuple(self.x_train.shape[1:])

    def subset(self, n_train: int, n_test: int | None = None
               ) -> "SyntheticImageTask":
        """First-n subset, preserving the shuffled class balance."""
        n_test = n_test or len(self.x_test)
        return SyntheticImageTask(
            self.x_train[:n_train], self.y_train[:n_train],
            self.x_test[:n_test], self.y_test[:n_test],
            self.num_classes, self.name, dict(self.meta))


def make_classification_images(
        num_classes: int, train_size: int, test_size: int,
        channels: int = 3, image_size: int = 16,
        difficulty: float = 0.5, prototypes_per_class: int = 2,
        seed: int = 0, name: str = "synthetic") -> SyntheticImageTask:
    """Generate a deterministic image-classification task.

    Parameters
    ----------
    difficulty:
        0 → trivially separable, 1 → heavily overlapping classes.  The
        knob scales both the inter-class prototype separation and the
        per-sample noise level.
    """
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError("difficulty must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    signal = 1.0 - 0.6 * difficulty
    noise_level = 0.25 + 0.9 * difficulty
    sigma = max(1.0, image_size / 8)

    shared = _smooth_prototype(rng, channels, image_size, sigma)
    prototypes = np.stack([
        np.stack([
            signal * _smooth_prototype(rng, channels, image_size, sigma)
            + (1.0 - signal) * shared
            for _ in range(prototypes_per_class)
        ]) for _ in range(num_classes)
    ])  # (classes, protos, C, H, W)

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, num_classes, size=count)
        proto_idx = rng.integers(0, prototypes_per_class, size=count)
        shifts = rng.integers(-2, 3, size=(count, 2))
        gains = rng.uniform(0.85, 1.15, size=(count, 1, 1, 1))
        images = np.empty((count, *prototypes.shape[2:]), np.float32)
        # the float64 images and noise a block of rows at a time: the
        # noise is the last draw, and drawn block after block it is the
        # stream one whole draw makes
        rows = max(1, _BLOCK_BYTES // (8 * prototypes[0, 0].size))
        for lo in range(0, count, rows):
            hi = min(lo + rows, count)
            block = prototypes[labels[lo:hi], proto_idx[lo:hi]]
            for i, (dy, dx) in enumerate(shifts[lo:hi]):
                block[i] = np.roll(block[i], (int(dy), int(dx)), axis=(1, 2))
            wide = np.multiply(block, gains[lo:hi])
            noise = rng.standard_normal(wide.shape)
            np.multiply(noise, noise_level, out=noise)
            np.add(wide, noise, out=wide)
            np.copyto(images[lo:hi], wide)
        return images, labels.astype(np.int64)

    x_train, y_train = sample(train_size)
    x_test, y_test = sample(test_size)
    return SyntheticImageTask(
        x_train, y_train, x_test, y_test, num_classes, name=name,
        meta={"difficulty": difficulty, "seed": seed,
              "channels": channels, "image_size": image_size})
