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
    The one representation of model state: an ``OrderedDict[str,
    np.ndarray]`` whose values are zero-copy views into a single
    contiguous ``.flat`` array.  ``Module.state_dict`` returns one and
    every aggregation, merge and transport reduces the fused array in
    one operation.  A mapping from outside (a checkpoint file, an
    initial state) becomes one in :meth:`FlatState.from_mapping`, which
    checks its keys and shapes.

:class:`FlatParamBuffer`
    Owns one contiguous array — ``data`` (parameters + buffers) — and
    rebinds a module's tensors to views of it; parameter gradients
    land in ``grads``, the gradient plane of the module's
    :class:`~repro.nn.arena.StepArena` (private to a module flattened
    on its own, shared by the replicas of a run).  With
    ``shared_weights`` ``data`` is the arena's weight plane too (the
    INT8 twins of a run's groups).

:class:`PlaneParameter`
    What a parameter becomes once its storage lives in a buffer: its
    ``.data`` cannot leave the buffer, and a non-``None`` ``.grad`` is
    readable and writable only while the parameter's replica holds the
    gradient plane.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from .arena import GradLease, StepArena, WeightLease
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

    Keys are ordered parameters-first then buffers, the order of
    ``Module.named_parameters`` followed by ``Module.named_buffers``.
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

    Behaves like the ``OrderedDict[str, np.ndarray]`` state dicts used
    everywhere (iteration order, keys, values are real ndarrays), but
    also exposes ``.flat`` and ``.layout`` so aggregation and merges
    operate on the whole model at once.  The keys are the layout's and
    every value stays a view of ``.flat``: assigning to a key writes
    through (same shape only), and removing one is refused.
    """

    def __init__(self, layout: FlatLayout, flat: np.ndarray):
        if flat.size != layout.total:
            raise ValueError(
                f"flat array has {flat.size} elements, layout needs "
                f"{layout.total}")
        flat = np.ascontiguousarray(flat, dtype=np.float32)
        if flat.ndim != 1:
            flat = flat.reshape(-1)
        for key, view in zip(layout.keys, layout.views(flat)):
            OrderedDict.__setitem__(self, key, view)
        self.layout = layout
        self.flat = flat

    @classmethod
    def from_mapping(cls, layout: FlatLayout, state) -> "FlatState":
        """``state`` on ``layout``: the one place a mapping from outside
        (a checkpoint file, ``RunConfig.init_state``) becomes model
        state.  Its keys must be the layout's and every value must have
        exactly its key's shape; anything else raises ``ValueError``
        naming the keys or the key and both shapes.  A ``FlatState`` on
        ``layout`` already is one and comes back as is."""
        if isinstance(state, FlatState) and state.layout is layout:
            return state
        missing = [key for key in layout.keys if key not in state]
        known = set(layout.keys)
        unexpected = [key for key in state if key not in known]
        if missing or unexpected:
            raise ValueError(
                f"state dict does not match the model: missing keys "
                f"{missing}, unexpected keys {unexpected}")
        out = cls(layout, np.empty(layout.total, dtype=np.float32))
        for key, shape in zip(layout.keys, layout.shapes):
            value = np.asarray(state[key])
            if value.shape != shape:
                raise ValueError(
                    f"state dict key {key!r} has shape {value.shape}, "
                    f"the model's is {shape}")
            out[key][...] = value
        return out

    def __setitem__(self, key, value) -> None:
        view = self[key]
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(f"{key!r} has shape {view.shape}, got "
                             f"{value.shape}")
        view[...] = value

    def _refuse(self, *args, **kwargs):
        raise TypeError("a FlatState's keys are its layout's")

    __delitem__ = pop = popitem = clear = setdefault = _refuse

    def copy(self) -> "FlatState":
        return FlatState(self.layout, self.flat.copy())

    def __reduce__(self):
        return (_rebuild_flat_state, (self.layout, self.flat))


def common_flat_layout(states: Iterable[dict]) -> FlatLayout:
    """The one layout every state is a :class:`FlatState` of; anything
    else is an error naming the first state that differs."""
    layout = None
    for index, state in enumerate(states):
        if not isinstance(state, FlatState):
            raise TypeError(f"state {index} is a {type(state).__name__}, "
                            "not a FlatState")
        if layout is None:
            layout = state.layout
        elif state.layout is not layout:
            raise ValueError(
                f"state {index} has another layout than state 0 "
                f"({len(state.layout)} keys, {state.layout.total} "
                f"elements vs {len(layout)} keys, {layout.total} elements)")
    if layout is None:
        raise ValueError("need at least one state")
    return layout


_GRAD_SLOT = Tensor.__dict__["grad"]
_DATA_SLOT = Tensor.__dict__["data"]


class PlaneParameter(Tensor):
    """A parameter whose storage lives in a :class:`FlatParamBuffer`.

    ``.data`` is its view of the buffer for good: assigning to it
    writes through (same shape only), so the buffer always holds the
    parameter.  Replicas of one run share the gradient plane, so a
    gradient is only meaningful while its replica holds it
    (``GradLease``): touching a non-``None`` ``.grad`` outside that
    window raises instead of handing out — or accumulating into —
    another replica's gradient.  ``None`` (no gradient) needs no
    claim.  Same slots as :class:`Tensor`; ``FlatParamBuffer`` retypes
    its parameters in place.
    """

    __slots__ = ()

    @property
    def data(self):
        return _DATA_SLOT.__get__(self)

    @data.setter
    def data(self, value) -> None:
        view = _DATA_SLOT.__get__(self)
        if value is view:
            return
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(f"parameter {self.name!r} has shape "
                             f"{view.shape}, got {value.shape}")
        view[...] = value

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

    - every parameter's ``.data`` is a view into :attr:`data`, for good
      (a parameter belongs to at most one buffer),
    - every registered buffer is a view into :attr:`data` (after the
      parameter region), and
    - every parameter's gradient, once produced by ``backward``, lands
      in a view of :attr:`grads` (via ``Tensor._grad_buf``).

    ``state_dict`` then costs one ``memcpy`` and SGD/aggregation update
    the whole model with a handful of vectorised array ops.

    :attr:`grads` is the gradient plane of ``arena`` for this layout.
    Without an ``arena`` the buffer makes a private one and holds the
    plane for good; replicas handed one arena share the plane and take
    turns: :meth:`claim_grads` (every ``zero_grad`` calls it) starts a
    replica's turn, :attr:`owns_grads` says whether it still lasts.

    ``shared_weights=True`` puts :attr:`data` on the arena's weight
    plane as well, for replicas whose weights are a copy of someone
    else's at every step boundary: each :meth:`load_data` starts the
    replica's turn on it, and a snapshot or an INT8 step outside that
    turn raises (:meth:`check_data`) instead of reading another
    replica's weights.
    """

    def __init__(self, module, arena: "StepArena | None" = None,
                 shared_weights: bool = False):
        named_params = list(module.named_parameters())
        named_buffers = list(module.named_buffers())
        entries = [(name, tuple(p.data.shape)) for name, p in named_params]
        entries += [(name, tuple(np.asarray(b).shape))
                    for name, b in named_buffers]
        for name, param in named_params:
            if isinstance(param, PlaneParameter):
                raise ValueError(f"parameter {name!r} already belongs to "
                                 "a flat buffer")
            if param.data.dtype != np.float32:
                raise TypeError("flat buffers require float32 parameters")
        for _, buf in named_buffers:
            if np.asarray(buf).dtype != np.float32:
                raise TypeError("flat buffers require float32 buffers")
        self.layout = FlatLayout.from_entries(entries, len(named_params))
        self.arena = arena if arena is not None else StepArena()

        self._data_lease = None
        if shared_weights:
            weights = self.arena.weight_plane(self.layout)
            self._data_lease = WeightLease(weights)
            self._data_lease.claim()    # the values moved in below
            self.data = weights.array
        else:
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

        # Move the live values into the fused storage and rebind.  A
        # parameter names its buffer weakly (for ``SGD`` to find it), so
        # a dropped model is freed by reference counting.
        owner = weakref.ref(self)
        for param, view, gview in zip(self.param_tensors, self.param_views,
                                      self.grad_views):
            view[...] = param.data
            param.data = view
            param._grad_buf = gview
            param._grad_lease = self._lease
            param._flat = owner
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
        return self._lease.held and not self.missing_grads()

    def missing_grads(self) -> list[str]:
        """Keys of the parameters that train but whose gradient is not
        their plane view: none arrived, or it was rebound."""
        return [key for key, param, gview in zip(
                    self.layout.keys, self.param_tensors, self.grad_views)
                if param.requires_grad
                and _GRAD_SLOT.__get__(param) is not gview]

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

    # -- weight plane -----------------------------------------------------
    def check_data(self) -> None:
        """Raise unless :attr:`data` holds this replica's weights:
        always true of private storage; on shared weights, from the
        replica's last load until another replica's or
        :meth:`release_data`."""
        if self._data_lease is not None:
            self._data_lease.check()

    def release_data(self) -> None:
        """This replica's weights on the shared plane are spent (the
        Eq. 5 merge consumed them): nothing may read them until its
        next load."""
        if self._data_lease is not None:
            self._data_lease.release()

    # -- state ----------------------------------------------------------
    def state_dict(self) -> FlatState:
        """Snapshot the full (param + buffer) state as a FlatState.

        One contiguous copy; per-key values are views into the copy so
        the result is independent of future training steps.
        """
        self.check_data()
        return FlatState(self.layout, self.data.copy())

    def live_state(self) -> FlatState:
        """The same state over the live storage, no copy: for a reader
        that is done before the next step writes it (an epoch's
        aggregation).  Anything kept is a :meth:`state_dict`."""
        self.check_data()
        return FlatState(self.layout, self.data)

    def load_flat(self, state: FlatState) -> None:
        self.load_data(state.flat)

    def load_data(self, flat: np.ndarray) -> None:
        """Copy a fused ``(total,)`` array of this layout in; on shared
        weights this replica's turn on the plane starts."""
        if self._data_lease is not None:
            self._data_lease.claim()
        self.data[...] = flat

    def __reduce__(self):
        raise TypeError("FlatParamBuffer is bound to live tensors and "
                        "cannot be pickled; ship FlatState snapshots")
