"""Weight initialisers (Kaiming / Xavier), all seeded explicitly."""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = ["kaiming_uniform", "kaiming_normal", "xavier_uniform", "zeros",
           "ones", "skip_draws"]

_SKIP_DRAWS = False


@contextlib.contextmanager
def skip_draws():
    """Inside the block the random initialisers return uninitialised
    storage and leave ``rng`` untouched (like ``no_grad``, a process-
    wide switch) — for building a model whose weights are loaded from
    another right after, where the draws are most of the build time.
    Only sound when nothing keeps ``rng`` and draws from it later;
    ``build_model`` checks."""
    global _SKIP_DRAWS
    previous = _SKIP_DRAWS
    _SKIP_DRAWS = True
    try:
        yield
    finally:
        _SKIP_DRAWS = previous


def _bare(shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape, dtype=np.float32)


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:                       # (out, in) linear weight
        return shape[1], shape[0]
    if len(shape) == 4:                       # (out, in, k, k) conv weight
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                    gain: float = math.sqrt(2.0)) -> np.ndarray:
    if _SKIP_DRAWS:
        return _bare(shape)
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator,
                   gain: float = math.sqrt(2.0)) -> np.ndarray:
    if _SKIP_DRAWS:
        return _bare(shape)
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    if _SKIP_DRAWS:
        return _bare(shape)
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
