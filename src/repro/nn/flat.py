"""Fused flat-buffer storage for module parameters and gradients.

Real training stacks (Horovod, DDP, DynaComm) fuse many small tensors
into one contiguous exchange buffer so optimiser updates and allreduce
reductions become a single vectorised operation instead of a Python
loop over an ``OrderedDict``.  This module brings the same data plane
to the numpy engine:

:class:`FlatLayout`
    The (key, shape, offset) table describing how a module's parameters
    and buffers pack into one 1-D float32 array.  Layouts are interned,
    so two models of the same architecture share one layout object and
    layout equality is an ``is`` check.

:class:`FlatState`
    An ``OrderedDict[str, np.ndarray]`` state dict whose values are
    zero-copy views into a single contiguous ``.flat`` array.  It is a
    drop-in replacement for the dicts ``Module.state_dict`` returns;
    aggregation primitives detect it and reduce the fused array in one
    operation.

:class:`FlatParamBuffer`
    Owns one contiguous array — ``data`` (parameters + buffers) — and
    rebinds a module's tensors to views of it; parameter gradients
    land in ``grads``, the gradient plane of the module's
    :class:`~repro.nn.arena.StepArena` (private to a module flattened
    on its own, shared by the replicas of a run).  All fused fast paths
    are bit-identical to the per-key loops they replace: they run the
    same elementwise operations in the same dtype over the
    concatenation of the same segments.

:class:`PlaneParameter`
    What a parameter becomes once its gradient lives in a plane: a
    non-``None`` ``.grad`` is readable and writable only while the
    parameter's replica holds the plane.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from .arena import GradLease, StepArena
from .tensor import Tensor

__all__ = ["FlatLayout", "FlatState", "FlatParamBuffer", "PlaneParameter"]

#: interned layouts keyed by their spec tuple
_LAYOUT_CACHE: dict[tuple, "FlatLayout"] = {}


def _intern_layout(spec: tuple) -> "FlatLayout":
    layout = _LAYOUT_CACHE.get(spec)
    if layout is None:
        layout = FlatLayout(spec)
        _LAYOUT_CACHE[spec] = layout
    return layout


class FlatLayout:
    """Packing table: key order, shapes and offsets into the flat array.

    Keys are ordered parameters-first then buffers, which is exactly the
    order ``Module.state_dict`` emits, so a flat snapshot and a per-key
    snapshot enumerate identically.
    """

    __slots__ = ("spec", "keys", "shapes", "sizes", "offsets", "total",
                 "num_params", "param_total")

    def __init__(self, spec: tuple):
        # spec = ((key, shape), ...), num_params
        entries, num_params = spec
        self.spec = spec
        self.keys = tuple(key for key, _ in entries)
        self.shapes = tuple(shape for _, shape in entries)
        self.sizes = tuple(int(np.prod(shape, dtype=np.int64)) if shape
                           else 1 for shape in self.shapes)
        offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.offsets = tuple(int(o) for o in offsets)
        self.total = self.offsets[-1]
        self.num_params = num_params
        self.param_total = self.offsets[num_params]

    @staticmethod
    def from_entries(entries: Sequence[tuple[str, tuple[int, ...]]],
                     num_params: int) -> "FlatLayout":
        spec = (tuple((key, tuple(shape)) for key, shape in entries),
                int(num_params))
        return _intern_layout(spec)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Zero-copy per-key views of a contiguous ``flat`` array."""
        return [flat[a:b].reshape(shape) for a, b, shape in
                zip(self.offsets[:-1], self.offsets[1:], self.shapes)]

    def param_slice(self) -> slice:
        return slice(0, self.param_total)

    def param_views(self, arr: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a ``(param_total,)`` array (e.g. a
        fused gradient or velocity buffer)."""
        n = self.num_params
        return [arr[a:b].reshape(shape) for a, b, shape in
                zip(self.offsets[:n], self.offsets[1:n + 1],
                    self.shapes[:n])]

    def __len__(self) -> int:
        return len(self.keys)

    def __reduce__(self):
        return (_intern_layout, (self.spec,))


def _rebuild_flat_state(layout: FlatLayout, flat: np.ndarray) -> "FlatState":
    return FlatState(layout, flat)


class FlatState(OrderedDict):
    """State dict backed by one contiguous array.

    Behaves exactly like the plain ``OrderedDict[str, np.ndarray]``
    state dicts used everywhere (iteration order, keys, values are
    real ndarrays), but also exposes ``.flat`` and ``.layout`` so the
    fused aggregation/merge paths can operate on the whole model at
    once.
    """

    def __init__(self, layout: FlatLayout, flat: np.ndarray):
        if flat.size != layout.total:
            raise ValueError(
                f"flat array has {flat.size} elements, layout needs "
                f"{layout.total}")
        flat = np.ascontiguousarray(flat, dtype=np.float32)
        if flat.ndim != 1:
            flat = flat.reshape(-1)
        super().__init__(zip(layout.keys, layout.views(flat)))
        self.layout = layout
        self.flat = flat
        # numpy collapses view chains, so a view of a view of X reports
        # ``.base is X`` — intactness must compare against the storage
        # owner, not against ``flat`` (itself possibly a view).
        owner = flat
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        self._owner = owner

    def is_intact(self) -> bool:
        """True while every value is still a view of ``.flat``.

        Key reassignment (``state[k] = other_array``) desynchronises the
        dict from the fused array; fused consumers check this and fall
        back to the per-key path when it fails.
        """
        if len(self) != len(self.layout):
            return False
        for value in self.values():
            if getattr(value, "base", None) is not self._owner:
                return False
        return True

    def copy(self) -> "FlatState":
        return FlatState(self.layout, self.flat.copy())

    def __reduce__(self):
        return (_rebuild_flat_state, (self.layout, self.flat))


def common_flat_layout(states: Iterable[dict]) -> FlatLayout | None:
    """The shared layout if every state is an intact FlatState, else None."""
    layout = None
    for state in states:
        if not isinstance(state, FlatState):
            return None
        if layout is None:
            layout = state.layout
        elif state.layout is not layout:
            return None
        if not state.is_intact():
            return None
    return layout


_GRAD_SLOT = Tensor.__dict__["grad"]


class PlaneParameter(Tensor):
    """A parameter whose gradient lives in a :class:`GradPlane`.

    Replicas of one run share the plane, so a gradient is only
    meaningful while its replica holds it (``GradLease``): touching a
    non-``None`` ``.grad`` outside that window raises instead of
    handing out — or accumulating into — another replica's gradient.
    ``None`` (no gradient) needs no claim.  Same slots as
    :class:`Tensor`; ``FlatParamBuffer`` retypes its parameters in
    place.
    """

    __slots__ = ()

    @property
    def grad(self):
        value = _GRAD_SLOT.__get__(self)
        if value is not None:
            self._grad_lease.check()
        return value

    @grad.setter
    def grad(self, value) -> None:
        if value is not None:
            self._grad_lease.check()
        _GRAD_SLOT.__set__(self, value)


class FlatParamBuffer:
    """Contiguous parameter/gradient storage bound to a live module.

    After ``FlatParamBuffer(module)``:

    - every parameter's ``.data`` is a view into :attr:`data`,
    - every registered buffer is a view into :attr:`data` (after the
      parameter region), and
    - every parameter's gradient, once produced by ``backward``, lands
      in a view of :attr:`grads` (via ``Tensor._grad_buf``).

    ``state_dict`` then costs one ``memcpy`` and SGD/aggregation can
    update the whole model with a handful of vectorised array ops.

    :attr:`grads` is the gradient plane of ``arena`` for this layout.
    Without an ``arena`` the buffer makes a private one and holds the
    plane for good; replicas handed one arena share the plane and take
    turns: :meth:`claim_grads` (every ``zero_grad`` calls it) starts a
    replica's turn, :attr:`owns_grads` says whether it still lasts.
    """

    def __init__(self, module, arena: "StepArena | None" = None):
        named_params = list(module.named_parameters())
        named_buffers = list(module.named_buffers())
        entries = [(name, tuple(p.data.shape)) for name, p in named_params]
        entries += [(name, tuple(np.asarray(b).shape))
                    for name, b in named_buffers]
        for _, param in named_params:
            if param.data.dtype != np.float32:
                raise TypeError("flat buffers require float32 parameters")
        for _, buf in named_buffers:
            if np.asarray(buf).dtype != np.float32:
                raise TypeError("flat buffers require float32 buffers")
        self.layout = FlatLayout.from_entries(entries, len(named_params))
        self.arena = arena if arena is not None else StepArena()

        self.data = np.empty(self.layout.total, dtype=np.float32)
        plane = self.arena.grad_plane(self.layout)
        self._lease = GradLease(plane)
        if plane.owner is None:
            self._lease.claim()
        self.grads = plane.array

        views = self.layout.views(self.data)
        self.param_tensors: list[Tensor] = [p for _, p in named_params]
        self.param_views: list[np.ndarray] = views[:len(named_params)]
        self.buffer_views: list[np.ndarray] = views[len(named_params):]
        self.grad_views: list[np.ndarray] = plane.views

        # Move the live values into the fused storage and rebind.
        for param, view, gview in zip(self.param_tensors, self.param_views,
                                      self.grad_views):
            view[...] = param.data
            param.data = view
            param._grad_buf = gview
            param._grad_lease = self._lease
            param.__class__ = PlaneParameter
        self._rebind_buffers(module, named_buffers)
        self._trainable: tuple = (None, ())     # (flags, runs)

    @property
    def params(self) -> np.ndarray:
        """The parameter region of :attr:`data` (1-D float32 view)."""
        return self.data[:self.layout.param_total]

    def _rebind_buffers(self, module, named_buffers) -> None:
        """Point every registered buffer (and any attribute aliasing it)
        at its view of the fused array."""
        replacements = {}
        for (_, buf), view in zip(named_buffers, self.buffer_views):
            view[...] = buf
            replacements[id(buf)] = view
        for sub in module.modules():
            for name, buf in list(sub._buffers.items()):
                if id(buf) in replacements:
                    sub._buffers[name] = replacements[id(buf)]
            for name, value in list(sub.__dict__.items()):
                if isinstance(value, np.ndarray) and id(value) in replacements:
                    object.__setattr__(sub, name, replacements[id(value)])

    # -- integrity ------------------------------------------------------
    def is_intact(self) -> bool:
        """True while every parameter's ``.data`` is still its view.

        Code that rebinds ``param.data`` (rather than writing through
        it) silently detaches the tensor from the fused storage; callers
        check this before taking a fused fast path.
        """
        for param, view in zip(self.param_tensors, self.param_views):
            if param.data is not view:
                return False
        return True

    # -- gradient plane -------------------------------------------------
    def claim_grads(self) -> None:
        """Start this replica's turn on the gradient plane: whatever
        another replica left there is void from here on."""
        self._lease.claim()

    @property
    def owns_grads(self) -> bool:
        """True while no other replica has claimed the plane since."""
        return self._lease.held

    def grads_ready(self) -> bool:
        """True when this replica holds the plane and the gradient of
        every parameter that trains *is* its flat view, i.e. over
        :meth:`trainable_runs` :attr:`grads` currently holds this
        replica's complete fused gradient."""
        if not self._lease.held:
            return False
        for param, gview in zip(self.param_tensors, self.grad_views):
            if param.requires_grad and _GRAD_SLOT.__get__(param) is not gview:
                return False
        return True

    def trainable_runs(self) -> tuple:
        """The ``(start, stop)`` ranges of :attr:`params` /
        :attr:`grads` held by parameters with ``requires_grad``,
        neighbours merged: one whole-plane run unless part of the
        model is frozen (a fine-tuned backbone).  Whatever a step does
        to gradients, it does over these."""
        flags = tuple(p.requires_grad for p in self.param_tensors)
        if flags != self._trainable[0]:
            runs: list[tuple[int, int]] = []
            bounds = zip(self.layout.offsets, self.layout.offsets[1:])
            for trains, (start, stop) in zip(flags, bounds):
                if trains and runs and runs[-1][1] == start:
                    runs[-1] = (runs[-1][0], stop)
                elif trains:
                    runs.append((start, stop))
            self._trainable = (flags, tuple(runs))
        return self._trainable[1]

    # -- state ----------------------------------------------------------
    def state_dict(self) -> FlatState:
        """Snapshot the full (param + buffer) state as a FlatState.

        One contiguous copy; per-key values are views into the copy so
        the result is independent of future training steps, exactly like
        the per-key ``Module.state_dict``.
        """
        return FlatState(self.layout, self.data.copy())

    def live_state(self) -> FlatState:
        """The same state over the live storage, no copy: for a reader
        that is done before the next step writes it (an epoch's
        aggregation).  Anything kept is a :meth:`state_dict`."""
        return FlatState(self.layout, self.data)

    def load_flat(self, state: FlatState) -> None:
        self.data[...] = state.flat

    def __reduce__(self):
        raise TypeError("FlatParamBuffer is bound to live tensors and "
                        "cannot be pickled; ship FlatState snapshots")
