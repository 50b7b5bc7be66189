"""Reference twins of the fused state paths, kept for the tests only.

The product holds model state in one representation — a
:class:`~repro.nn.flat.FlatState` over a module's
:class:`~repro.nn.flat.FlatParamBuffer` — and updates, averages and
merges it whole.  What it used to run beside those paths, one
parameter or one key at a time, lives here, so the tests can still pin
the fused paths bit for bit against the arithmetic they replaced:

- :func:`per_key_state`: ``Module.state_dict`` as a per-key copy;
- :class:`LoopSgd`: SGD's per-parameter update loop;
- :func:`per_key_average`: the per-key weighted average;
- :func:`per_key_merge`: the per-key Eq. 5 merge.

:func:`flat_state` builds a ``FlatState`` from named arrays.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.comm.primitives import _average_arrays_f32
from repro.nn.flat import FlatLayout, FlatState
from repro.quant.mixed import merge_weights_inplace


def flat_state(**arrays) -> FlatState:
    """A ``FlatState`` holding ``arrays`` (all parameters), in order."""
    values = [np.asarray(v, dtype=np.float32) for v in arrays.values()]
    layout = FlatLayout.from_entries(
        [(key, v.shape) for key, v in zip(arrays, values)], len(values))
    return FlatState(layout, np.concatenate([v.reshape(-1) for v in values]))


def per_key_state(module) -> "OrderedDict[str, np.ndarray]":
    """Every parameter, then every buffer, copied key by key."""
    state = OrderedDict((name, param.data.copy())
                        for name, param in module.named_parameters())
    state.update((name, np.array(buf, copy=True))
                 for name, buf in module.named_buffers())
    return state


class LoopSgd:
    """SGD one parameter at a time: the update ``repro.nn.SGD`` runs
    over the fused storage, spelled as a loop over plain arrays."""

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.lr, self.momentum = lr, momentum
        self.weight_decay = weight_decay
        self.velocity = [None] * len(self.params)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Every parameter with a gradient, in place; ``velocity`` holds
        one momentum array (or ``None``) per parameter."""
        momentum = self.momentum
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if momentum:
                if self.velocity[i] is None:
                    self.velocity[i] = np.zeros_like(param.data)
                v = self.velocity[i]
                v *= momentum
                v += grad
                grad = v
            param.data -= self.lr * grad


def per_key_average(states, weights=None) -> "OrderedDict[str, np.ndarray]":
    """The weighted average of ``states`` key by key (uniform without
    ``weights``)."""
    weights = [1.0] * len(states) if weights is None else list(weights)
    total = float(sum(weights))
    if total <= 0 or not math.isfinite(total):
        raise ValueError("weights must sum to a positive finite value")
    scales = [np.float32(w / total) for w in weights]
    return OrderedDict(
        (key, _average_arrays_f32([np.asarray(s[key]) for s in states],
                                  scales))
        for key in states[0])


def per_key_merge(w_fp32, w_int8, alpha) -> "OrderedDict[str, np.ndarray]":
    """Eq. 5 key by key, on copies."""
    merged = OrderedDict()
    for key, value in w_fp32.items():
        merged[key] = np.array(value, dtype=np.float32)
        merge_weights_inplace(merged[key],
                              np.array(w_int8[key], dtype=np.float32), alpha)
    return merged
