"""Trace-once/replay-many compiled graph executor for the training step.

The eager engine (:mod:`repro.nn.tensor`) rebuilds the autograd tape,
re-runs a Python DFS for the topological order, and reallocates every
intermediate and gradient array on *every* step — pure interpreter
overhead, since the SoCFlow training step is completely static.  This
module removes that overhead without implementing a single op: every
op is spelled with the array kernels of :mod:`repro.nn.kernels`, and a
compiled step is the recorded stream of those kernel calls replayed
with ``out=`` buffers.

``train_step``
    the training step, spelled once: ``train() → zero_grad →
    [stages.before] → forward → cross_entropy → backward →
    [stages.after] → [grad_hook] → optimizer.step()``.  FP32 replicas
    pass no stages, ``Int8Trainer`` passes its quantisation stages,
    HiPress its DGC hook; with an executor attached the same call
    dispatches to it.

``GraphCapture``
    the recorder of one ``train_step``: for the forward → loss →
    backward stretch it is :data:`repro.nn.kernels.trace`, and every
    kernel call lands in it as ``(kernel, arguments, result)``.  Each
    array is classified on the spot by whose memory it is — the step's
    input batch, the replica's fused storage or module state (a
    ``_Leaf``), a temporary some recorded call produced (a ``_Buf``),
    or a constant — and kept as ``(owner, byte offset, shape,
    strides)``, so any view replays as the same view.  Capture is
    observational: the recorded step runs the normal eager code path
    and is bit-identical to an uninstrumented step.  A value neither
    a kernel, the batch nor the replica accounts for refuses the
    capture (:class:`GraphUnsupported`), and the shape trains eagerly.

``compile_program``
    turns a capture into a ``_Plan``: one bound closure per recorded
    call over one preallocated workspace.  Lifetimes come straight
    from the recorded stream; a planner packs all temporaries into a
    single arena buffer (first-fit over [first-def, last-use]
    intervals).  Three passes keyed on kernel properties keep the plan
    small: a ``constant`` kernel's buffer that nothing accumulates
    into is computed once per plan (zeroed pad borders), an
    ``elementwise`` kernel computes in place in an argument that dies
    at the call, and a copy of a dying value is no copy at all — which
    makes the first gradient written to a parameter land directly in
    its fused slot.  Everything a replica owns (parameters, gradients,
    BN running statistics, layer generators, range observers) enters
    the plan as a ``_Leaf`` named by *where it lives*, so the plan
    itself is replica-independent.

``_Plan.bind``
    resolves the leaves against one replica and returns a
    ``_Program``: a flat tuple of closures over the plan's workspace
    plus that replica's own storage.  Structurally identical replicas
    (the logical groups of one SoCFlow run) bind the same plan out of
    the run's :class:`~repro.nn.arena.StepArena`; they step strictly
    one after another and nothing in the workspace outlives a step
    except replica-independent constants, so one workspace serves them
    all.

``GraphExecutor``
    owns per-input-shape bindings for one model and dispatches
    ``step()`` to ``replay`` (zero tape construction in the hot loop)
    or falls back to the eager interpreter on ``max_programs`` overflow
    or a refused capture.  Swapped activation observers only drop the
    bindings; the next step binds the cached plan again.  A replay
    runs the step's *same* bound stage callables around the compiled
    closures and the same ``grad_hook`` ahead of ``optimizer.step()``,
    which stays outside the plan — precision is data on the one
    executor, not a second one.

Replay is bit-identical to eager by construction — it *is* the eager
call stream, each array rebuilt with the recorded strides (numpy's
pairwise summation order depends on them) — as long as every kernel
honours the table's convention: the same bits with ``out=`` as
without.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import heapq
import weakref

import numpy as np

from . import functional as F
from . import kernels as K
from .arena import MISSING as _MISSING
from .arena import StepArena, TransientPages, trim_heap
from .tensor import Tensor

__all__ = [
    "GraphCapture", "GraphExecutor", "GraphUnsupported",
    "attach_graph_executor", "compile_program",
    "train_step",
]


class GraphUnsupported(Exception):
    """The captured step cannot be compiled; the executor stays eager."""


# ---------------------------------------------------------------------------
# Value model: whose memory an array is, and where in it
# ---------------------------------------------------------------------------

class _Buf:
    """The storage of one recorded temporary: ``nbytes`` live over the
    instructions ``[start, end]``, read at ``reads`` and written at
    ``writes``.

    It ends up in one of three places: at ``offset`` of the arena
    (``block``), in a ``block`` of its own (the batch buffers and what
    is computed once per plan), or — ``home`` — at a byte offset of
    other storage a pass found it can share.
    """

    __slots__ = ("nbytes", "start", "end", "reads", "writes", "offset",
                 "block", "home", "persistent")
    leafy = property(lambda self: self.home is not None
                     and self.home[0].leafy)

    def __init__(self, nbytes: int, start: int, block=None):
        self.nbytes = nbytes
        self.start = self.end = start
        self.reads: list[int] = []
        self.writes: list[int] = []
        self.offset = 0
        self.block: np.ndarray | None = block
        self.home: tuple | None = None      # (_Buf | _Leaf, byte offset)
        self.persistent = False

    def storage(self, replica) -> tuple[np.ndarray, int]:
        if self.home is None:
            return self.block, self.offset
        block, offset = self.home[0].storage(replica)
        return block, offset + self.home[1]


class _Leaf:
    """A value one replica owns — its fused parameter or gradient
    storage, a module's array, a layer's generator, a range observer —
    named by where it lives (``path``, see :class:`_Replica`) so every
    binding resolves its own.

    ``path is None`` pins the compile-time object itself: the replica
    holds it somewhere a path cannot name, and the plan cannot be
    shared.
    """

    __slots__ = ("path", "kind", "shape", "pinned")
    leafy = True

    def __init__(self, path, obj):
        self.path = path
        self.kind = type(obj)
        self.shape = getattr(obj, "shape", None)
        self.pinned = obj if path is None else None

    def fetch(self, replica: "_Replica"):
        if self.path is None:
            return self.pinned
        obj = replica.fetch(self.path)
        if (type(obj) is not self.kind
                or getattr(obj, "shape", None) != self.shape):
            raise GraphUnsupported(
                f"replica holds a different value at {self.path}")
        return obj

    def storage(self, replica) -> tuple[np.ndarray, int]:
        return self.fetch(replica), 0


class _Ref:
    """An array as the capture saw it: a view of ``owner``'s memory,
    rebuilt at bind time from byte offset, shape and strides."""

    __slots__ = ("owner", "offset", "shape", "strides", "dtype", "view")
    leafy = property(lambda self: self.owner.leafy)

    def __init__(self, owner, offset: int, array: np.ndarray):
        self.owner = owner
        self.offset = offset
        self.shape = array.shape
        self.strides = array.strides
        self.dtype = array.dtype
        self.view: np.ndarray | None = None     # once built, if no leaf's

    def same_layout(self, other: "_Ref") -> bool:
        return (self.shape == other.shape and self.strides == other.strides
                and self.dtype == other.dtype)

    @property
    def whole(self) -> bool:
        """Covers all of a temporary, densely."""
        nbytes = self.dtype.itemsize
        for n in self.shape:
            nbytes *= n
        return (isinstance(self.owner, _Buf) and self.offset == 0
                and nbytes == self.owner.nbytes)

    def span(self) -> tuple:
        """``(root storage, lo, hi)``: the bytes this view can touch."""
        owner, start = self.owner, self.offset
        while isinstance(owner, _Buf) and owner.home is not None:
            owner, start = owner.home[0], start + owner.home[1]
        return owner, *_extent(start, self.dtype.itemsize, self.shape,
                               self.strides)

    def resolve(self, replica=None) -> np.ndarray:
        """The view itself; over the plan's workspace it is the same
        array in every binding."""
        if self.view is not None:
            return self.view
        block, offset = self.owner.storage(replica)
        try:
            view = np.ndarray(self.shape, self.dtype, block,
                              offset + self.offset, self.strides)
        except (TypeError, ValueError) as exc:
            raise GraphUnsupported(
                f"cannot rebuild a recorded layout: {exc}") from None
        if not self.leafy:
            self.view = view
        return view


def _leafy(value) -> bool:
    if isinstance(value, tuple):
        return any(map(_leafy, value))
    return isinstance(value, (_Ref, _Leaf)) and value.leafy


def _resolve(value, replica=None):
    """The runtime array (or state object) behind a recorded value."""
    if isinstance(value, _Ref):
        return value.resolve(replica)
    if isinstance(value, _Leaf):
        return value.fetch(replica)
    if isinstance(value, tuple):
        return tuple(_resolve(item, replica) for item in value)
    return value


def _values(instr) -> tuple:
    """Every value ``[kernel, args, kwargs, out]`` touches."""
    return (*instr[1], *instr[2].values(), instr[3])


def _refs(values):
    """Every :class:`_Ref` among ``values``, tuples included."""
    for value in values:
        if isinstance(value, _Ref):
            yield value
        elif isinstance(value, tuple):
            yield from _refs(value)


def _extent(start: int, itemsize: int, shape, strides) -> tuple[int, int]:
    """``(lo, hi)``: the byte range a strided view starting at
    ``start`` can touch."""
    lo, hi = start, start + itemsize
    for n, stride in zip(shape, strides):
        if stride > 0:
            hi += (n - 1) * stride
        else:
            lo += (n - 1) * stride
    return lo, hi


def _bounds(array: np.ndarray) -> tuple[int, int, int]:
    """``(address, lo, hi)``: where ``array`` starts and the byte range
    it can touch."""
    address = array.__array_interface__["data"][0]
    return address, *_extent(address, array.itemsize, array.shape,
                             array.strides)


def _root(array: np.ndarray) -> np.ndarray:
    """The array whose allocation ``array`` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


_SCALARS = (bool, int, float, str, type(None))

#: argument types a plan keeps as they are: configuration, not state
_CONSTANTS = _SCALARS + (np.generic, np.dtype, type, slice, type(Ellipsis))


def _public_config(obj, depth: int = 2) -> tuple:
    """The public scalar configuration of a module or hook object:
    what a plan bakes into its instructions (BN momentum, an
    activation quantiser's ``QuantConfig``) rather than
    reading through a leaf.  Private attributes are state, not
    configuration, and are skipped."""
    items = []
    for name, value in vars(obj).items():
        if name.startswith("_") or name == "training":
            continue
        if isinstance(value, _SCALARS) or (
                isinstance(value, tuple)
                and all(isinstance(item, _SCALARS) for item in value)):
            items.append((name, value))
        elif dataclasses.is_dataclass(value) and value.__hash__ is not None:
            items.append((name, value))
        elif (depth and hasattr(value, "__dict__")
              and not hasattr(value, "modules")):       # children are listed
            items.append((name, type(value), _public_config(value, depth - 1)))
    return tuple(items)


class _Replica:
    """One model's replica-owned state, addressable by position.

    Fused storage is ``("data",)`` / ``("grads",)`` — the
    ``FlatParamBuffer`` arrays, every parameter, buffer and gradient a
    view at a byte offset — and module state ``("attr", module index,
    attribute[, attribute])`` over ``model.modules()`` order.  Two
    replicas with equal :attr:`structure` resolve every path to their
    own copy of the same thing.
    """

    def __init__(self, model, flat, stages=None):
        self.model = model
        self.flat = flat
        self.stages = stages        # the step's stages (see train_step)
        self.modules = list(model.modules())
        self._index: dict[int, tuple] | None = None
        self._structure: tuple | None = None

    @property
    def structure(self) -> tuple:
        """Hashable signature of everything a plan bakes in: the
        interned layout (names and shapes of every parameter and
        buffer), which parameters train, and every module's type and
        public configuration, in traversal order."""
        if self._structure is None:
            self._structure = (
                self.flat.layout,
                tuple(p.requires_grad for p in self.flat.param_tensors),
                tuple((type(m), _public_config(m)) for m in self.modules))
        return self._structure

    def locate(self, obj) -> tuple | None:
        """The path of module state ``obj`` in this replica, or None."""
        if self._index is None:
            self._index = index = {}
            for i, module in enumerate(self.modules):
                for name, value in vars(module).items():
                    if isinstance(value, _SCALARS + (dict,)):
                        continue
                    index.setdefault(id(value), ("attr", i, name))
                    if isinstance(value, Tensor):
                        index.setdefault(id(value.data), ("attr", i, name))
                    elif hasattr(value, "__dict__"):
                        for sub, inner in vars(value).items():
                            if not isinstance(inner, _SCALARS):
                                index.setdefault(id(inner),
                                                 ("attr", i, name, sub))
        return self._index.get(id(obj))

    def fetch(self, path: tuple):
        if path[0] != "attr":
            return getattr(self.flat, path[0])
        value = self.modules[path[1]]
        for name in path[2:]:
            value = getattr(value, name)
        return value.data if isinstance(value, Tensor) else value


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

class GraphCapture:
    """The recorder of one :func:`train_step` of ``replica``.

    The step installs it as :data:`repro.nn.kernels.trace` from the
    forward pass to the end of backward (:meth:`begin` … :meth:`end`).
    :meth:`record` turns each kernel call into an instruction
    ``[kernel, args, kwargs, out]`` whose arrays are :class:`_Ref`\\ s;
    :meth:`check` is the rule that keeps a replay honest — every
    forward value and every gradient (``Tensor._make`` /
    ``Tensor._accumulate`` call it) must be memory the capture can
    account for.  The first thing it cannot account for sets
    :attr:`refused`; the step itself carries on untouched.

    Memory is known by address for as long as the array owning it
    lives (a weak reference forgets it the moment it dies, so a later
    allocation at the same address is a new temporary): the capture
    keeps no array of the step alive, and a plan holds layouts only.
    """

    def __init__(self, replica: _Replica):
        self.replica = replica
        self.instrs: list[list | None] = []
        self.bufs: list[_Buf] = []
        self.refused: str | None = None
        self.shared = True          # no leaf is pinned to this replica
        self.loss: _Ref | None = None
        self.grad_params: tuple[int, ...] = ()
        self.x_buf = self.y_buf = None
        self._starts: list[int] = []            # sorted extent starts
        self._extents: dict[int, list] = {}     # start -> [end, owner]
        self._leaves: dict[int, _Leaf] = {}     # by id of the live object
        self._found: dict[int, tuple] = {}      # by id of the live array
        for name in ("data", "grads"):
            storage = getattr(replica.flat, name)
            self._register(storage, _Leaf((name,), storage))

    # -- the step's side -------------------------------------------------
    def begin(self, x: np.ndarray, y: np.ndarray) -> "GraphCapture":
        """``x``, ``y``: the arrays the step feeds the model and the
        loss — the two per-replay inputs of the plan."""
        for name, batch in (("x_buf", x), ("y_buf", y)):
            if not batch.flags.c_contiguous:
                self.refused = "the batch is not C-contiguous"
            buf = _Buf(batch.nbytes, 0, np.empty(batch.shape, batch.dtype))
            setattr(self, name, buf)
            self._register(batch, buf)
        return self

    def end(self, loss: np.ndarray) -> None:
        """Backward is done: ``loss`` is what the step returns, and the
        parameters holding a gradient are the ones a replay publishes."""
        if self.refused is not None:
            return
        found = self._owner(loss)
        if found is None or loss.size != 1:
            self.refused = "the loss is not a scalar the step computed"
            return
        self.loss = self._ref(loss, found, len(self.instrs), read=True)
        flat, grads = self.replica.flat, []
        for i, (param, view) in enumerate(zip(flat.param_tensors,
                                              flat.grad_views)):
            if param.grad is view:
                grads.append(i)
            elif param.grad is not None:
                self.refused = "a parameter gradient left its fused view"
        self.grad_params = tuple(grads)

    def check(self, array) -> None:
        if (self.refused is None and (type(array) is not np.ndarray
                                      or (array.size
                                          and self._owner(array) is None))):
            self.refused = ("an op produced a value outside the kernel "
                            "table (raw numpy on step data)")

    def record(self, kernel, args, kwargs, out, result):
        if type(result) is not np.ndarray:
            result = np.asarray(result)     # 0-d results come as scalars
        if self.refused is None:
            try:
                self._record(kernel, args, kwargs, out is not None, result)
            except GraphUnsupported as exc:
                self.refused = str(exc)
        return result

    # -- classification ----------------------------------------------------
    def _register(self, array: np.ndarray, owner, bounds=None) -> list:
        _, lo, hi = bounds or _bounds(array)
        bisect.insort(self._starts, lo)
        extent = self._extents[lo] = [
            hi, owner, weakref.ref(array, lambda _: self._forget(lo))]
        return extent

    def _forget(self, lo: int) -> None:
        del self._extents[lo]
        del self._starts[bisect.bisect_left(self._starts, lo)]

    def _extent_at(self, lo: int, hi: int):
        """``(start, extent)`` of the registered memory holding
        ``[lo, hi)``, or None."""
        at = bisect.bisect_right(self._starts, lo) - 1
        if at >= 0:
            start = self._starts[at]
            if hi <= self._extents[start][0]:
                return start, self._extents[start]
        return None

    def _owner(self, array: np.ndarray, bounds=None):
        """``(address, (lo, hi), extent start, extent, weakref)`` of the
        known memory ``array`` lies in, or None.  Remembered per array
        object while it lives: most arrays pass through here several
        times."""
        found = self._found.get(id(array))
        if found is not None and found[-1]() is array:
            return found
        address, lo, hi = bounds or _bounds(array)
        held = self._extent_at(lo, hi)
        if held is None:
            root = _root(array)         # module state outside fused storage?
            path = self.replica.locate(root)
            if path is None:
                return None
            self._register(root, self._leaf(root, path))
            held = self._extent_at(lo, hi)
            if held is None:
                return None
        found = self._found[id(array)] = (address, (lo, hi), *held,
                                          weakref.ref(array))
        return found

    def _leaf(self, obj, path) -> _Leaf:
        leaf = self._leaves.get(id(obj))
        if leaf is None:
            if path is None:
                self.shared = False
            leaf = self._leaves[id(obj)] = _Leaf(path, obj)
        return leaf

    def _ref(self, array, found, at: int, read: bool) -> _Ref:
        address, _, start, extent, _ = found
        owner = extent[1]
        if isinstance(owner, _Buf):
            owner.end = at
            (owner.reads if read else owner.writes).append(at)
        return _Ref(owner, address - start, array)

    def _arg(self, value, at: int):
        if isinstance(value, np.ndarray):
            found = self._owner(value) if value.size else None
            if found is not None:
                return self._ref(value, found, at, read=True)
            if value.dtype.kind == "f" and value.size > 1:
                raise GraphUnsupported(
                    "a kernel read a float array neither a kernel, the "
                    "batch nor the replica accounts for")
            return value            # an index or scalar constant
        if isinstance(value, tuple):
            return tuple(self._arg(item, at) for item in value)
        if isinstance(value, _CONSTANTS):
            return value
        return self._leaf(value, self.replica.locate(value))

    def _record(self, kernel, args, kwargs, out_given, result) -> None:
        at = len(self.instrs)
        args = [self._arg(value, at) for value in args]
        kwargs = {name: self._arg(value, at)
                  for name, value in kwargs.items()}
        bounds = _bounds(result)
        found = self._owner(result, bounds) if result.size else None
        if found is None:
            # fresh storage (the result may view a hidden allocation)
            root = _root(result)
            buf = _Buf(0, at)
            extent = self._register(root, buf,
                                    bounds if root is result else None)
            found = self._owner(result, bounds)
            buf.nbytes = extent[0] - found[2]
            self.bufs.append(buf)
            if kernel is K.empty:
                return              # storage, nothing to compute
        elif not out_given:
            return                  # a view of known memory: no work
        else:
            _, span, start, extent, _ = found
            buf = extent[1]
            if (isinstance(buf, _Buf) and (buf.reads or buf.writes)
                    and span == (start, extent[0])
                    and not any(ref.owner is buf
                                for ref in _refs((*args, *kwargs.values())))):
                # all of a used buffer overwritten without being read:
                # a new value, with a lifetime of its own
                extent[1] = _Buf(buf.nbytes, at)
                self.bufs.append(extent[1])
        out = self._ref(result, found, at, read=False)
        self.instrs.append([kernel, args, kwargs, out])


# ---------------------------------------------------------------------------
# Compilation: three passes over the recorded stream, then the arena
# ---------------------------------------------------------------------------

def _hoist_constants(instrs) -> None:
    """Compute once per plan what is the same in every step.

    The result of a ``constant`` kernel depends on no array.  When
    every later write into its buffer lands before the first read (a
    zero-padded image: zeros, interior copy, then readers — never an
    accumulation), each step leaves the buffer as it found it outside
    the regions it overwrites anyway, so the kernel runs once, into a
    persistent buffer of the plan's own.
    """
    for at, instr in enumerate(instrs):
        kernel, args, kwargs, out = instr
        buf = out.owner
        if (kernel.constant and out.whole and buf.writes[0] == at
                and (not buf.reads or buf.writes[-1] < buf.reads[0])):
            buf.block = kernel.raw(*args, **kwargs)
            buf.persistent = True
            instrs[at] = None


def _share_storage(instrs) -> int:
    """Let a value be born in the storage of one that dies at the same
    call; returns how many elementwise kernels now compute in place.

    Where an ``elementwise`` kernel's result is a whole new buffer and
    one of its arguments is a whole buffer of the same layout that
    nothing reads afterwards, the result takes that buffer over
    (ufuncs with ``out=`` aliasing a same-layout operand are exact),
    collapsing an elementwise chain's intermediates into one buffer.
    For :func:`repro.nn.kernels.copy` that leaves nothing to do and
    the call is dropped; and a copy *into replica storage* — the first
    gradient a parameter receives — is dropped the other way round,
    by moving the dying temporary (and with it whatever kernel
    produced it) into the slot.
    """
    fused = 0
    hosts: set[int] = set()
    for at, instr in enumerate(instrs):
        if instr is None or not instr[0].elementwise:
            continue
        kernel, args, _, out = instr
        new = out.owner
        dying = [ref for ref in args if isinstance(ref, _Ref) and ref.whole
                 and ref.owner.end == at and ref.owner.block is None
                 and ref.owner is not new and ref.same_layout(out)]
        if (isinstance(new, _Buf) and out.whole and new.writes[0] == at
                and new.block is None):
            for ref in dying:
                if not ref.owner.leafy:
                    new.home = (ref.owner, 0)
                    hosts.add(id(ref.owner))
                    if kernel is K.copy:
                        instrs[at] = None
                    else:
                        fused += 1
                    break
        elif kernel is K.copy and isinstance(new, _Leaf) and dying:
            old = dying[0].owner
            _, lo, hi = out.span()
            if (old.home is None and id(old) not in hosts
                    and not any(
                        owner is new and low < hi and lo < high
                        for other in instrs[old.start:at] if other
                        for owner, low, high in (
                            ref.span() for ref in _refs(_values(other))))):
                old.home = (new, out.offset)
                instrs[at] = None
    return fused


_ALIGN = 64


def _pack_arena(bufs: list[_Buf]) -> int:
    """First-fit interval packing; sets ``buf.offset``, returns total bytes."""
    free: list[tuple[int, int]] = []        # (offset, size), offset-sorted
    active: list[tuple[int, int, int]] = []  # heap of (end, offset, size)
    high_water = 0

    def release(off, size):
        lo = bisect.bisect_left(free, (off,))
        free.insert(lo, (off, size))
        if lo + 1 < len(free) and free[lo][0] + free[lo][1] == free[lo + 1][0]:
            off2, size2 = free.pop(lo + 1)
            free[lo] = (free[lo][0], free[lo][1] + size2)
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            off2, size2 = free.pop(lo)
            free[lo - 1] = (free[lo - 1][0], free[lo - 1][1] + size2)

    for buf in sorted(bufs, key=lambda b: (b.start, b.end)):
        while active and active[0][0] < buf.start:
            _, off, size = heapq.heappop(active)
            release(off, size)
        need = -(-buf.nbytes // _ALIGN) * _ALIGN
        offset = None
        for i, (off, size) in enumerate(free):
            if size >= need:
                offset = off
                if size == need:
                    free.pop(i)
                else:
                    free[i] = (off + need, size - need)
                break
        if offset is None:
            offset = high_water
        buf.offset = offset
        high_water = max(high_water, offset + need)
        heapq.heappush(active, (buf.end, offset, need))
    return high_water


def _bind(instr, replica=None):
    """The replayable closure of one instruction."""
    kernel, args, kwargs, out = instr
    return functools.partial(
        kernel.raw, *[_resolve(value, replica) for value in args],
        out=out.resolve(replica),
        **{name: _resolve(value, replica) for name, value in kwargs.items()})


def compile_program(capture: GraphCapture, replica: _Replica) -> "_Plan":
    """Compile a :class:`GraphCapture` of ``replica``'s step into a
    :class:`_Plan` any structurally equal replica can bind.

    Raises :class:`GraphUnsupported` when the step cannot be replayed
    bit-identically.
    """
    if capture.refused is not None:
        raise GraphUnsupported(capture.refused)
    x_buf, y_buf, loss = capture.x_buf, capture.y_buf, capture.loss
    if loss is None or loss.leafy or not (x_buf.reads and y_buf.reads):
        raise GraphUnsupported("the capture is not a step on its batch: "
                               "from x and y to a loss")
    instrs = capture.instrs
    calls = len(instrs)
    _hoist_constants(instrs)
    fused = _share_storage(instrs)

    # a buffer hosting others lives as long as they do
    for buf in capture.bufs:
        host = buf
        while host.home is not None and isinstance(host.home[0], _Buf):
            host = host.home[0]
            host.start = min(host.start, buf.start)
            host.end = max(host.end, buf.end)
    packed = [buf for buf in capture.bufs
              if buf.home is None and buf.block is None]
    arena_bytes = _pack_arena(packed)
    pages = TransientPages(arena_bytes)
    arena = pages.array
    for buf in packed:
        buf.block = arena
    own = [(x_buf.block, False), (y_buf.block, False)] + [
        (buf.block, True) for buf in capture.bufs if buf.persistent]

    # An instruction that touches no leaf is the same closure in every
    # binding: make it once, here.
    template = tuple(
        instr if _leafy(_values(instr)) else _bind(instr)
        for instr in instrs if instr is not None)
    plan = _Plan(
        template=template, x_buf=x_buf.block, y_buf=y_buf.block,
        loss=loss.resolve(), grad_params=capture.grad_params,
        workspace=[(arena, False)] + own, pages=pages,
        shared=capture.shared, stats={
            "calls": calls,
            "instrs": len(template),
            "arena_bytes": arena_bytes,
            "naive_bytes": sum(-(-b.nbytes // _ALIGN) * _ALIGN
                               for b in packed),
            "dedicated_bytes": sum(block.nbytes for block, _ in own),
            "fused_elementwise": fused,
        })
    if replica.stages is not None:
        plan.stage(replica.stages.bind(replica.flat)[2])
    return plan


# ---------------------------------------------------------------------------
# Plan and binding (plans are cached in the run's StepArena)
# ---------------------------------------------------------------------------

class _Plan:
    """A compiled training step, independent of any one replica.

    Owns the instruction ``template`` (ready closures for instructions
    over the workspace alone, recorded ``[kernel, args, kwargs, out]``
    entries for those touching a leaf), the buffers every binding
    computes in — the packed arena on its :class:`TransientPages`
    ``pages``, which the run drops between epochs — and the
    re-entrancy flag that keeps the
    sequential-replay invariant honest: bindings of one plan must
    never run inside one another.

    The plan of a staged step (``train_step(stages=...)``) also names
    what its stages compute in: ``scratch``, the arena's pooled stage
    scratch — shared with every other plan of that run, hence one
    ``guard`` for all of them — and ``stage_bufs``, the per-batch-shape
    part this plan owns.
    """

    __slots__ = ("template", "x_buf", "y_buf", "loss", "grad_params",
                 "own", "pages", "shared", "stats", "guard", "scratch",
                 "stage_bufs")

    def __init__(self, template, x_buf, y_buf, loss, grad_params, workspace,
                 pages, shared, stats):
        self.template = template
        self.x_buf = x_buf
        self.y_buf = y_buf
        self.loss = loss
        self.grad_params = grad_params      # indices into param_tensors
        self.own = workspace                # [(array, persistent)]
        self.pages = pages
        self.shared = shared
        self.stats = stats
        #: [running]; a cell so plans that pool scratch share one flag
        self.guard = [False]
        self.scratch = None
        self.stage_bufs: tuple = ()

    def stage(self, scratch) -> None:
        """Add the scratch of the step's stages to this plan."""
        self.scratch = scratch
        self.guard = scratch.guard
        self.stage_bufs = scratch.input_buffers(self.x_buf.shape)
        self.own += [(buf, False) for buf in self.stage_bufs]

    @property
    def workspace(self) -> list[tuple[np.ndarray, bool]]:
        """Everything a replay computes in: own plus pooled."""
        if self.scratch is None:
            return self.own
        return self.own + [(b, False) for b in self.scratch.buffers()]

    @property
    def workspace_bytes(self) -> int:
        """Bytes this plan allocated (pooled scratch is counted once,
        by the arena)."""
        return sum(array.nbytes for array, _ in self.own)

    def bind(self, replica: _Replica) -> "_Program":
        """Closures over the shared workspace and ``replica``'s leaves.

        Raises :class:`GraphUnsupported` when a leaf does not resolve
        to the same kind of value the plan was compiled against.
        """
        closures = tuple(
            _bind(entry, replica) if isinstance(entry, list) else entry
            for entry in self.template)
        flat = replica.flat
        before = after = None
        if replica.stages is not None:
            before, after, _ = replica.stages.bind(flat)
        return _Program(self, closures, replica.model, flat, tuple(
            (flat.param_tensors[i], flat.grad_views[i])
            for i in self.grad_params), before, after)


class _Program:
    """One replica's binding of a :class:`_Plan`: a replayable step."""

    __slots__ = ("plan", "_closures", "_model", "_flat", "_param_grads",
                 "_before", "_after", "_stage_args", "_y_buf", "_loss")

    def __init__(self, plan, closures, model, flat, param_grads, before,
                 after):
        self.plan = plan
        self._closures = closures
        self._model = model
        self._flat = flat
        self._param_grads = param_grads
        self._before = before
        self._after = after
        self._stage_args = (plan.x_buf, *plan.stage_bufs)
        self._y_buf = plan.y_buf
        self._loss = plan.loss

    def replay(self, x, y, optimizer, grad_hook=None) -> float:
        """:func:`train_step`, with the compiled closures in place of
        forward → loss → backward.  Replicas share the workspace on
        the strength of stepping strictly one after another — a replay
        started from inside another one would compute on a half-used
        arena."""
        guard = self.plan.guard
        if guard[0]:
            raise RuntimeError(
                "graph plan replayed while it is already running: its "
                "replicas share one workspace and must step one at a time")
        guard[0] = True
        try:
            self._model.train()
            self._flat.claim_grads()    # a replay is a zero_grad + backward
            if self._before is None:
                np.copyto(self._stage_args[0], x)
            else:
                self._before(x, *self._stage_args)
            np.copyto(self._y_buf, y)
            for run in self._closures:
                run()
            if self._after is not None:
                self._after()
            loss = float(self._loss)
        finally:
            guard[0] = False
        for param, gbuf in self._param_grads:
            param.grad = gbuf
        if grad_hook is not None:
            grad_hook(self._model)
        optimizer.step()
        return loss


# ---------------------------------------------------------------------------
# The training step and its executor
# ---------------------------------------------------------------------------

def train_step(model, optimizer, x: np.ndarray, y: np.ndarray, stages=None,
               grad_hook=None, capture=None) -> float:
    """One synchronous SGD step; returns the batch loss.

    The one spelling of the step, whatever runs around it:

    ``stages``
        what a precision does around forward/backward.  ``before(x)``
        runs ahead of the forward pass and returns the array to feed
        the model; ``after()`` runs between backward and the update.
        FP32 passes none; ``Int8Trainer`` passes itself.
    ``grad_hook``
        ``grad_hook(model)`` may rewrite the published gradients ahead
        of ``optimizer.step()`` (HiPress's DGC).

    With a :class:`GraphExecutor` attached (to ``stages`` if given, to
    ``model`` otherwise) the step dispatches to it — a replayed
    compiled program when one matches, this interpreter otherwise,
    bit-identical either way.  ``capture`` is the executor's own: when
    it runs a step through here it passes the :class:`GraphCapture` to
    trace the step into, or ``False`` for one that stays untraced.
    """
    if capture is None:
        executor = getattr(model if stages is None else stages,
                           "_graph_exec", None)
        if executor is not None:
            return executor.step(optimizer, x, y, grad_hook)
    x, y = np.asarray(x, dtype=np.float32), np.asarray(y)
    model.train()
    optimizer.zero_grad()
    x_t = Tensor(x if stages is None else stages.before(x))
    K.trace = capture.begin(x_t.data, y) if capture else None
    try:
        loss = F.cross_entropy(model(x_t), y)
        loss.backward()
        if capture:
            capture.end(loss.data)
    finally:
        K.trace = None
    if stages is not None:
        stages.after()
    if grad_hook is not None:
        grad_hook(model)
    optimizer.step()
    return loss.item()


class GraphExecutor:
    """Trace-once/replay-many dispatcher for one replica's training step.

    ``_programs`` maps a batch signature to this replica's binding, or
    to ``None`` for a shape that trains eagerly for good.  A missing
    key binds the run's cached plan (counted as a replay: nothing was
    traced) or, when the run has none yet, captures one.  Parameter
    storage never moves (a :class:`~repro.nn.flat.PlaneParameter`
    writes through), so a binding stays valid as long as the stages'
    ``signature()``: ``attach_activation_quant`` swapping the
    observers drops every binding, and the step replays through a
    fresh binding of the same plan.

    ``stages`` (see :func:`train_step`) also names the ``precision``
    label its plans are counted under and the ``plan_key`` they are
    told apart by (another ``QuantConfig`` or clip norm compiles
    afresh).
    """

    def __init__(self, model, max_programs: int = 8,
                 arena: "StepArena | None" = None, stages=None):
        self.model = model
        self.flat = flat = model.flatten_parameters()
        self.stages = stages
        self.precision = "fp32" if stages is None else stages.precision
        self.max_programs = max_programs
        self.arena = arena if arena is not None else flat.arena
        self.stats = {"captures": 0, "replays": 0, "eager_steps": 0,
                      "fallbacks": 0}
        self._programs: dict[tuple, "_Program | None"] = {}
        self._sig = None

    def step(self, optimizer, x, y, grad_hook=None) -> float:
        x, y = np.asarray(x, dtype=np.float32), np.asarray(y)
        key = (x.shape, y.shape, y.dtype.str)
        prog = self._programs.get(key, _MISSING)
        if prog is None:
            return self._eager("eager_steps", optimizer, x, y, grad_hook)
        stale = prog is not _MISSING and self._stale()
        if stale or prog is _MISSING:
            if stale or (self._programs and self._stale()):
                # An observer was swapped under us: every binding
                # aliases the old one, not just this shape's.  The
                # plans are untouched — bind again below.
                self._programs.clear()
            replica = _Replica(self.model, self.flat, self.stages)
            if len(self._programs) >= self.max_programs:
                return self._eager("eager_steps", optimizer, x, y, grad_hook)
            structure = replica.structure
            if self.stages is not None:
                structure += self.stages.plan_key
            plan_key = (self.precision, key, structure)
            plan = self.arena.get(plan_key)
            if plan is None:
                self._programs[key] = None
                return self._eager("fallbacks", optimizer, x, y, grad_hook)
            prog = None
            if plan is not _MISSING:
                try:
                    prog = self._bind(plan, replica)
                except GraphUnsupported:
                    pass        # refused: compile a private plan instead
            if prog is None:
                capture = GraphCapture(replica)
                replica.flat.claim_grads()  # not every optimiser claims it
                mark = F.workspace_mark()
                loss = train_step(self.model, optimizer, x, y, self.stages,
                                  grad_hook, capture=capture)
                try:
                    plan = compile_program(capture, replica)
                    prog = self._bind(plan, replica)
                except GraphUnsupported:
                    plan = None
                if plan is not None:
                    # the op workspaces the capture cached serve eager
                    # steps only; what the step freed goes back too
                    F.release_workspaces(mark)
                    trim_heap()
                self.arena.add(self.precision, plan_key, plan)
                self._programs[key] = prog
                self.stats["fallbacks" if plan is None else "captures"] += 1
                return loss
            self._programs[key] = prog
        self.stats["replays"] += 1
        return prog.replay(x, y, optimizer, grad_hook)

    def _eager(self, counter: str, optimizer, x, y, grad_hook) -> float:
        self.stats[counter] += 1
        return train_step(self.model, optimizer, x, y, self.stages,
                          grad_hook, capture=False)

    def _stale(self) -> bool:
        return (self.stages is not None
                and self.stages.signature() != self._sig)

    def _bind(self, plan, replica: _Replica):
        prog = plan.bind(replica)
        if self.stages is not None:
            self._sig = self.stages.signature()
        self.arena.counters(self.precision)["binds"] += 1
        return prog

    def snapshot(self) -> dict[str, int]:
        return dict(self.stats)

    def program_stats(self) -> list[dict]:
        return [p.plan.stats for p in self._programs.values()
                if p is not None]


def attach_graph_executor(model, max_programs: int = 8,
                          arena: "StepArena | None" = None, stages=None
                          ) -> GraphExecutor:
    """Attach a :class:`GraphExecutor` for ``model``'s step (idempotent).

    It hangs on ``stages`` when the step has them (an ``Int8Trainer``),
    on ``model`` otherwise; :func:`train_step` dispatches to it when
    present.  ``arena`` is the run's :class:`~repro.nn.arena.StepArena`,
    where the plans and their workspace live; without one that is the
    arena the model was flattened into (its own, unless
    ``flatten_parameters`` was given the run's).
    """
    holder = model if stages is None else stages
    executor = getattr(holder, "_graph_exec", None)
    if executor is None:
        executor = holder._graph_exec = GraphExecutor(
            model, max_programs=max_programs, arena=arena, stages=stages)
    return executor
