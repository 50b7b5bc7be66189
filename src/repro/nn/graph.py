"""Trace-once/replay-many compiled graph executor for the training step.

The eager engine (:mod:`repro.nn.tensor`) rebuilds the autograd tape,
re-runs a Python DFS for the topological order, and reallocates every
intermediate and gradient array on *every* step — pure interpreter
overhead, since the SoCFlow training step is completely static.  This
module removes that overhead:

``train_step``
    the training step, spelled once: ``train() → zero_grad →
    [stages.before] → forward → cross_entropy → backward →
    [stages.after] → [grad_hook] → optimizer.step()``.  FP32 replicas
    pass no stages, ``Int8Trainer`` passes its quantisation stages,
    HiPress its DGC hook; with an executor attached the same call
    dispatches to it.

``GraphCapture``
    records the forward and loss ops of one ``train_step`` into an op
    list.  Capture is observational: the recorded step runs the normal
    eager code path and is bit-identical to an uninstrumented step.

``compile_program``
    turns a capture into a ``_Plan``: an instruction list over one
    preallocated workspace.  A tensor-lifetime planner packs all
    float32 intermediates and gradients into a single arena buffer
    (first-fit over [first-def, last-use] intervals), an elementwise
    chain fuser rewrites single-consumer elementwise ops to compute in
    place in their producer's buffer, and every kernel is an ``out=``
    ufunc/matmul/einsum call replicating the eager arithmetic
    operation-for-operation — replayed steps are bit-identical to eager
    steps.  Everything a replica owns (parameters, gradients, BN
    running statistics, dropout generators, range observers) enters
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
    ``step()`` to ``replay`` (zero tape construction, zero allocation in
    the hot loop) or falls back to the eager interpreter on
    ``max_programs`` overflow or unsupported ops.  Rebound parameter
    storage only drops the bindings; the next step binds the cached
    plan again.  A replay runs the step's *same* bound stage callables
    around the compiled closures and the same ``grad_hook`` ahead of
    ``optimizer.step()``, which stays outside the plan — precision is
    data on the one executor, not a second one.

Bit-identity ground rules used throughout: ``out=`` ufuncs run the same
inner loops as their allocating forms; ``np.copyto`` casts exactly like
``astype``; ``a[idx] = g`` on a zeroed buffer equals ``np.add.at`` for
duplicate-free basic indices; sums with ``out=`` use the same pairwise
reduction.  Anything that cannot be replicated exactly raises
:class:`GraphUnsupported` at compile time and the executor stays eager.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import Callable

import numpy as np

from . import functional as F
from . import tensor as tensor_mod
from .arena import MISSING as _MISSING, StepArena
from .tensor import Tensor

__all__ = [
    "GraphCapture", "GraphExecutor", "GraphUnsupported",
    "attach_graph_executor", "detach_graph_executor", "compile_program",
    "train_step",
]


class GraphUnsupported(Exception):
    """The captured step cannot be compiled; the executor stays eager."""


#: ops the compiler knows how to replay bit-identically
_SUPPORTED = frozenset({
    "add", "neg", "mul", "div", "pow", "matmul", "sum", "reshape",
    "transpose", "getitem", "relu", "exp", "sqrt", "tanh", "sigmoid",
    "pad2d", "conv2d", "max_pool2d", "avg_pool2d", "batch_norm",
    "log_softmax", "cross_entropy", "dropout", "ste_quant", "ste_fp16",
})

#: elementwise ops whose output buffer may be the (dead) input buffer
_ELEMENTWISE = frozenset({
    "add", "neg", "mul", "div", "pow", "relu", "exp", "sqrt", "tanh",
    "sigmoid", "dropout", "ste_quant", "ste_fp16",
})


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

class _Src:
    """One op input: either a recorded node or a leaf tensor."""

    __slots__ = ("node", "t", "kind", "val")

    def __init__(self, node=None, t=None, kind="node"):
        self.node = node            # producing _Node, or None for leaves
        self.t = t                  # leaf Tensor (param / const / input)
        self.kind = kind            # "node" | "input" | "param" | "const"
        self.val = None             # compiler-assigned runtime value

    @property
    def requires_grad(self) -> bool:
        if self.node is not None:
            return self.node.rg
        return self.t.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        if self.node is not None:
            return self.node.shape
        return self.t.data.shape


class _Node:
    """One recorded op application."""

    __slots__ = ("idx", "op", "ctx", "t", "srcs", "val", "aux")

    def __init__(self, idx, op, ctx, t, srcs):
        self.idx = idx
        self.op = op
        self.ctx = ctx or {}
        self.t = t                  # the eager output tensor (kept alive)
        self.srcs = srcs
        self.val = None             # compiler-assigned runtime value
        self.aux = {}               # op-specific saved buffers

    @property
    def rg(self) -> bool:
        return self.t.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.t.data.shape


class GraphCapture:
    """Records every op of one :func:`train_step` via ``Tensor._make``.

    ``params`` are the model's parameter tensors
    (``FlatParamBuffer.param_tensors``).  The step itself names its
    two per-replay input slots when it reaches the forward pass
    (:meth:`begin`): ``x_tensor``, the tensor it feeds the model, and
    ``targets``, the integer array it hands ``cross_entropy`` (matched
    by identity at compile time).
    """

    def __init__(self, params):
        self.x_tensor: Tensor | None = None
        self.targets: np.ndarray | None = None
        self._param_ids = {id(p) for p in params}
        self.nodes: list[_Node] = []
        self.by_id: dict[int, _Node] = {}
        self._src_by_id: dict[int, _Src] = {}
        self.unsupported: str | None = None

    def begin(self, x_tensor: Tensor, targets: np.ndarray) -> "GraphCapture":
        self.x_tensor = x_tensor
        self.targets = targets
        return self

    def record(self, op, out, parents, ctx) -> None:
        if op not in _SUPPORTED:
            self.unsupported = op or "<untagged>"
            return
        srcs = tuple(self._src(p) for p in parents)
        node = _Node(len(self.nodes), op, ctx, out, srcs)
        self.nodes.append(node)
        self.by_id[id(out)] = node

    def _src(self, t: Tensor) -> _Src:
        node = self.by_id.get(id(t))
        if node is not None:
            return _Src(node=node)
        src = self._src_by_id.get(id(t))
        if src is None:
            if t is self.x_tensor:
                kind = "input"
            elif id(t) in self._param_ids:
                kind = "param"
            else:
                kind = "const"
            src = _Src(t=t, kind=kind)
            self._src_by_id[id(t)] = src
        return src

    def leaves(self):
        return self._src_by_id.values()


# ---------------------------------------------------------------------------
# Runtime value model
# ---------------------------------------------------------------------------

class _Buf:
    """A float32 arena-managed buffer with a [start, end] instr lifetime."""

    __slots__ = ("shape", "dtype", "start", "end", "offset", "array", "contig")

    def __init__(self, shape, dtype, start):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.start = start
        self.end = start
        self.offset = -1
        self.array: np.ndarray | None = None
        self.contig = True

    @property
    def nbytes(self) -> int:
        n = self.dtype.itemsize
        for d in self.shape:
            n *= d
        return n


class _Leaf:
    """A value one replica owns — a parameter, gradient or buffer view,
    a dropout generator, a range observer — named by where it lives
    (``path``, see :class:`_Replica`) so every binding resolves its own.

    ``path is None`` pins the compile-time object itself: the replica
    holds it somewhere a path cannot name, and the plan cannot be
    shared.
    """

    __slots__ = ("path", "kind", "shape", "contig", "pinned")

    def __init__(self, path, obj):
        self.path = path
        self.kind = type(obj)
        self.shape = getattr(obj, "shape", None)
        self.contig = (not isinstance(obj, np.ndarray)
                       or obj.flags["C_CONTIGUOUS"])
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


class _View:
    """A bind-time alias of another value (zero-copy at replay)."""

    __slots__ = ("base", "fn", "contig", "arr", "leafy")

    def __init__(self, base, fn: Callable[[np.ndarray], np.ndarray],
                 contig: bool):
        self.base = base
        self.fn = fn
        self.contig = contig
        self.arr: np.ndarray | None = None
        self.leafy = _is_leafy(base)    # aliases replica-owned storage


def _is_leafy(val) -> bool:
    return isinstance(val, _Leaf) or (isinstance(val, _View) and val.leafy)


def _root_buf(val):
    while isinstance(val, _View):
        val = val.base
    return val if isinstance(val, _Buf) else None


def _is_contig(val) -> bool:
    if isinstance(val, (_Buf, _View, _Leaf)):
        return val.contig
    if isinstance(val, np.ndarray):
        return val.flags["C_CONTIGUOUS"]
    return False


_SCALARS = (bool, int, float, str, type(None))


def _public_config(obj, depth: int = 2) -> tuple:
    """The public scalar configuration of a module or hook object:
    what a plan bakes into its instructions (BN momentum, dropout
    ``p``, an activation quantiser's ``QuantConfig``) rather than
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

    Fused storage is addressed by element offset — ``("data", offset,
    shape)`` / ``("grads", offset, shape)`` into the
    ``FlatParamBuffer`` arrays — and module state by ``("attr", module
    index, attribute[, attribute])`` over ``model.modules()`` order.
    Two replicas with equal :attr:`structure` resolve every path to
    their own copy of the same thing.
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
        """The path of ``obj`` in this replica, or None."""
        if isinstance(obj, np.ndarray) and obj.flags["C_CONTIGUOUS"]:
            start = obj.__array_interface__["data"][0]
            for name in ("data", "grads"):
                storage = getattr(self.flat, name)
                offset = start - storage.__array_interface__["data"][0]
                if (obj.dtype == storage.dtype and 0 <= offset
                        and offset + obj.nbytes <= storage.nbytes):
                    return (name, offset // storage.itemsize, obj.shape)
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
        if path[0] == "attr":
            value = self.modules[path[1]]
            for name in path[2:]:
                value = getattr(value, name)
            return value.data if isinstance(value, Tensor) else value
        storage, offset, shape = getattr(self.flat, path[0]), path[1], path[2]
        return storage[offset:offset + math.prod(shape)].reshape(shape)


# ---------------------------------------------------------------------------
# Kernels (closure factories; called at bind time with resolved arrays)
# ---------------------------------------------------------------------------

def _kuf1(uf, a, out):
    def run():
        uf(a, out=out)
    return run


def _kuf2(uf, a, b, out):
    def run():
        uf(a, b, out=out)
    return run


def _kcopy(dst, src):
    def run():
        np.copyto(dst, src)
    return run


def _kiadd(dst, src):
    def run():
        np.add(dst, src, out=dst)
    return run


def _ksum(a, axis, keepdims, out):
    def run():
        np.sum(a, axis=axis, keepdims=keepdims, out=out)
    return run


def _kamax(a, axis, out):
    def run():
        np.max(a, axis=axis, keepdims=True, out=out)
    return run


def _kmean(a, axis, out):
    def run():
        np.mean(a, axis=axis, out=out)
    return run


def _kvar(a, axis, out):
    def run():
        np.var(a, axis=axis, out=out)
    return run


def _kmatmul(a, b, out):
    def run():
        np.matmul(a, b, out=out)
    return run


def _keinsum(spec, a, b, out):
    def run():
        np.einsum(spec, a, b, out=out, optimize=True)
    return run


def _kim2col(a, kernel, stride, out):
    def run():
        F.im2col(a, kernel, stride, out=out)
    return run


def _kcol2im(cols, x_shape, kernel, stride, out):
    def run():
        F.col2im(cols, x_shape, kernel, stride, out=out)
    return run


def _kargmax(a, out):
    def run():
        np.argmax(a, axis=1, out=out)
    return run


def _ktake(cols, arg, out):
    def run():
        np.copyto(out, np.take_along_axis(cols, arg, axis=1))
    return run


def _kput(gcols, arg, g, out_unused=None):
    def run():
        gcols[...] = 0
        np.put_along_axis(gcols, arg, g, axis=1)
    return run


def _kfill(dst, a, index):
    def run():
        dst[index] = a
    return run


def _kfancy_get(out, a, index):
    def run():
        out[...] = a[index]
    return run


def _kscatter_add(full, index, g):
    def run():
        full[...] = 0
        np.add.at(full, index, g)
    return run


def _kste_quant(observer, qmax, a, out, absbuf, tmp64):
    """STE fake-quantise ``a`` into ``out`` with a live observer scale.

    Replays ``observer.observe(a)`` followed by
    ``dequantize(quantize(a, observer.scale, qmax), scale)`` without
    allocating: the peak reduction runs in ``absbuf``, the EMA update
    goes through ``EmaObserver.update`` (same arithmetic as
    ``observe``), and the dequantisation multiply runs in the float64
    scratch ``tmp64`` — the eager path multiplies int32 by a float64
    scale, and a float32 product would double-round.  The int32 round
    trip itself is skippable: post-clip values are integral and within
    ±qmax, which float32 holds exactly.  ``out`` may alias ``a``; the
    observation happens before the first in-place write.
    """
    def run():
        observer.update(float(np.abs(a, out=absbuf).max()))
        scale = observer.scale
        np.divide(a, scale, out=out)
        np.rint(out, out=out)
        np.clip(out, -qmax, qmax, out=out)
        np.copyto(tmp64, out)
        np.multiply(tmp64, scale, out=tmp64)
        np.copyto(out, tmp64)
    return run


def _kste_fp16(a, out, tmp16):
    def run():
        np.copyto(tmp16, a)     # copyto casts exactly like astype
        np.copyto(out, tmp16)
    return run


def _krng(rng, r):
    def run():
        rng.random(out=r)
    return run


def _krunning(stat, delta_tmp, batch_stat, momentum):
    one_minus = 1.0 - momentum

    def run():
        np.multiply(stat, one_minus, out=stat)
        np.multiply(batch_stat, momentum, out=delta_tmp)
        np.add(stat, delta_tmp, out=stat)
    return run


def _kce_loss(lp, rows, y, inv_n, loss):
    def run():
        picked = lp[rows, y]
        loss[...] = -(picked.sum() * inv_n)
    return run


def _kce_grad(lgrad, inv_n, gl, rows, y, soft, tmp):
    def run():
        upstream = (-lgrad) * inv_n
        gl[...] = 0
        gl[rows, y] = upstream
        np.multiply(soft, upstream, out=tmp)
        np.subtract(gl, tmp, out=gl)
    return run


# ---------------------------------------------------------------------------
# Arena packing
# ---------------------------------------------------------------------------

_ALIGN = 64


def _pack_arena(bufs: list[_Buf]) -> int:
    """First-fit interval packing; sets ``buf.offset``, returns total bytes."""
    free: list[tuple[int, int]] = []        # (offset, size), offset-sorted
    active: list[tuple[int, int, int]] = []  # heap of (end, offset, size)
    high_water = 0

    def release(off, size):
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < off:
                lo = mid + 1
            else:
                hi = mid
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


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

class _Compiler:
    def __init__(self, capture: GraphCapture, loss_node: _Node,
                 replica: _Replica, fuse: bool):
        self.capture = capture
        self.loss_node = loss_node
        self.replica = replica
        self.fuse = fuse
        self._instrs: list[tuple] = []      # (maker, args...)
        self._bufs: list[_Buf] = []
        #: dedicated buffers as (array, persistent): a persistent one
        #: carries replica-independent constants across steps (zeroed
        #: pad borders), everything else is dead between steps
        self._dedicated: list[tuple[np.ndarray, bool]] = []
        self._leaves: dict[int, _Leaf] = {}     # by id of the live object
        self.shared = True
        self._gslot: dict[int, object] = {}   # id(node|src) -> value
        self._gcount: dict[int, int] = {}
        self._param_index = {id(p): i for i, p in
                             enumerate(replica.flat.param_tensors)}
        self._grad_params: list[int] = []
        self._scratch_cache: dict[tuple, np.ndarray] = {}
        self.fused_elementwise = 0

        self.x_buf = self._ded(capture.x_tensor.data.shape)
        y = np.asarray(capture.targets)
        self.y_buf = self._ded(y.shape, y.dtype)

        for src in capture.leaves():
            if src.kind == "input":
                src.val = self.x_buf
            else:
                src.val = self._leaf(src.t.data, const=src.kind == "const")
        self._consumers = self._count_consumers()
        self._saved = self._saved_values()

    # -- analysis ------------------------------------------------------
    def _count_consumers(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for node in self.capture.nodes:
            for src in node.srcs:
                if src.node is not None:
                    counts[id(src.node)] = counts.get(id(src.node), 0) + 1
        return counts

    def _saved_values(self) -> set[int]:
        """ids of nodes whose *forward value* some backward kernel reads."""
        saved: set[int] = {id(self.loss_node)}

        def mark(src):
            if src.node is not None:
                saved.add(id(src.node))

        for node in self.capture.nodes:
            if not node.rg:
                continue
            op, s = node.op, node.srcs
            if op in ("mul", "matmul"):
                if s[0].requires_grad:
                    mark(s[1])
                if s[1].requires_grad:
                    mark(s[0])
            elif op == "div":
                if s[0].requires_grad:
                    mark(s[1])
                if s[1].requires_grad:
                    mark(s[0])
                    mark(s[1])
            elif op == "pow":
                mark(s[0])
            elif op in ("exp", "sqrt", "tanh", "sigmoid"):
                saved.add(id(node))
        return saved

    # -- emission helpers ----------------------------------------------
    def _touch(self, val) -> None:
        root = _root_buf(val)
        if root is not None:
            root.end = len(self._instrs)

    def _emit(self, maker, *args) -> None:
        for a in args:
            self._touch(a)
        self._instrs.append((maker,) + args)

    def _buf(self, shape, dtype=np.float32) -> _Buf:
        buf = _Buf(shape, dtype, len(self._instrs))
        self._bufs.append(buf)
        return buf

    def _ded(self, shape, dtype=np.float32, zero=False) -> np.ndarray:
        arr = (np.zeros if zero else np.empty)(shape, dtype=dtype)
        self._dedicated.append((arr, zero))
        return arr

    def _leaf(self, obj, const: bool = False):
        """The plan's name for a replica-owned ``obj``.

        A tensor the traced forward built from module configuration
        alone (``x * 0.5``) is neither fused storage nor module state:
        it is the same in every step and every structurally equal
        replica, and stays a plain constant of the plan.
        """
        leaf = self._leaves.get(id(obj))
        if leaf is None:
            path = self.replica.locate(obj)
            if path is None:
                if const:
                    return obj
                self.shared = False
            leaf = self._leaves[id(obj)] = _Leaf(path, obj)
        return leaf

    def _scratch(self, shape, dtype) -> np.ndarray:
        """A dedicated scratch buffer shared by every kernel needing
        this (shape, dtype) — safe because replay is sequential and no
        kernel's scratch outlives its own closure."""
        key = (tuple(shape), np.dtype(dtype).str)
        arr = self._scratch_cache.get(key)
        if arr is None:
            arr = self._ded(shape, dtype)
            self._scratch_cache[key] = arr
        return arr

    def _value(self, src: _Src):
        if src.node is not None:
            return src.node.val
        return src.val

    # -- gradient accumulation -----------------------------------------
    def _slot(self, tgt):
        """(storage, first_write) for the grad of ``tgt`` or None to skip.

        ``tgt`` is a _Node or a leaf _Src; replicates the eager
        ``_accumulate`` copy-then-add discipline per target.
        """
        if isinstance(tgt, _Src):
            if tgt.node is not None:
                tgt = tgt.node
            else:
                if not tgt.t.requires_grad:
                    return None
                if tgt.kind != "param":
                    raise GraphUnsupported(
                        "gradient for a non-parameter leaf tensor")
                gbuf = tgt.t._grad_buf
                if gbuf is None or gbuf.shape != tgt.t.data.shape:
                    raise GraphUnsupported("parameter lacks a fused grad view")
                key = id(tgt)
                count = self._gcount.get(key, 0)
                self._gcount[key] = count + 1
                if count == 0:
                    index = self._param_index[id(tgt.t)]
                    if index not in self._grad_params:
                        self._grad_params.append(index)
                    self._gslot[key] = self._leaf(gbuf)
                return self._gslot[key], count == 0
        if not tgt.rg:
            return None
        key = id(tgt)
        count = self._gcount.get(key, 0)
        self._gcount[key] = count + 1
        if count == 0:
            slot = self._buf(tgt.shape)
            self._gslot[key] = slot
        return self._gslot[key], count == 0

    def _grad_of(self, node: _Node):
        slot = self._gslot.get(id(node))
        if slot is None:
            raise GraphUnsupported(f"node {node.op} reached with no gradient")
        return slot

    def _acc(self, tgt, val) -> None:
        """Accumulate an already-computed contribution (copy or +=)."""
        s = self._slot(tgt)
        if s is None:
            return
        slot, first = s
        self._emit(_kcopy if first else _kiadd, slot, val)

    def _acc_uf(self, tgt, uf, args, shape) -> None:
        """Accumulate ``uf(*args)`` (result ``shape``), fusing the first
        write directly into the slot when shapes line up."""
        s = self._slot(tgt)
        if s is None:
            return
        slot, first = s
        maker = _kuf1 if len(args) == 1 else _kuf2
        if first and tuple(slot.shape) == tuple(shape):
            self._emit(maker, uf, *args, slot)
        else:
            tmp = self._buf(shape)
            self._emit(maker, uf, *args, tmp)
            self._emit(_kiadd, slot, tmp)

    def _unbroadcast(self, val, vshape, tshape):
        """Compile ``tensor._unbroadcast`` into sum/reshape instructions."""
        vshape, tshape = tuple(vshape), tuple(tshape)
        if vshape == tshape:
            return val
        if len(vshape) < len(tshape):
            raise GraphUnsupported("gradient ndim below target ndim")
        extra = len(vshape) - len(tshape)
        if extra:
            out = self._buf(vshape[extra:])
            self._emit(_ksum, val, tuple(range(extra)), False, out)
            val, vshape = out, vshape[extra:]
        axes = tuple(i for i, n in enumerate(tshape)
                     if n == 1 and vshape[i] != 1)
        if axes:
            kshape = tuple(1 if i in axes else n for i, n in enumerate(vshape))
            out = self._buf(kshape)
            self._emit(_ksum, val, axes, True, out)
            val, vshape = out, kshape
        if vshape != tshape:
            val = _View(val, lambda b: b.reshape(tshape), _is_contig(val))
        return val

    # -- forward emission ----------------------------------------------
    def _forward(self) -> None:
        for node in self.capture.nodes:
            getattr(self, "_fwd_" + node.op)(node)

    def _ew_out(self, node: _Node) -> _Buf:
        """Output buffer for an elementwise node.

        The elementwise-chain fuser: when an input is a single-consumer
        arena buffer of the same shape whose value no backward kernel
        needs, compute in place into it (ufuncs with ``out=`` aliasing a
        same-shape operand are exact), collapsing the chain's
        intermediates into one buffer.
        """
        if self.fuse:
            for src in node.srcs:
                cand = src.node
                if (cand is not None
                        and id(cand) not in self._saved
                        and self._consumers.get(id(cand), 0) == 1
                        and isinstance(cand.val, _Buf)
                        and cand.val.shape == node.shape
                        and cand.val.dtype == np.float32):
                    self.fused_elementwise += 1
                    return cand.val
        return self._buf(node.shape)

    def _reshaped(self, val, old_shape, new_shape):
        """A reshape of ``val``: a bind-time view when contiguous, else a
        materialised per-replay copy (exactly where eager numpy copies)."""
        if _is_contig(val):
            return _View(val, lambda b, s=tuple(new_shape): b.reshape(s), True)
        out = self._buf(new_shape)
        back = _View(out, lambda b, s=tuple(old_shape): b.reshape(s), True)
        self._emit(_kcopy, back, val)
        return out

    def _leaf_array(self, src: _Src):
        v = self._value(src)
        if src.node is not None or not _is_contig(v):
            raise GraphUnsupported(f"{src.kind} operand is not a contiguous "
                                   "leaf array")
        return v

    def _fwd_add(self, node):
        a, b = (self._value(s) for s in node.srcs)
        out = self._ew_out(node)
        self._emit(_kuf2, np.add, a, b, out)
        node.val = out

    def _fwd_neg(self, node):
        out = self._ew_out(node)
        self._emit(_kuf1, np.negative, self._value(node.srcs[0]), out)
        node.val = out

    def _fwd_mul(self, node):
        a, b = (self._value(s) for s in node.srcs)
        out = self._ew_out(node)
        self._emit(_kuf2, np.multiply, a, b, out)
        node.val = out

    def _fwd_div(self, node):
        a, b = (self._value(s) for s in node.srcs)
        out = self._ew_out(node)
        self._emit(_kuf2, np.divide, a, b, out)
        node.val = out

    def _fwd_pow(self, node):
        out = self._ew_out(node)
        self._emit(_kuf2, np.power, self._value(node.srcs[0]),
                   node.ctx["exponent"], out)
        node.val = out

    def _fwd_matmul(self, node):
        a, b = (self._value(s) for s in node.srcs)
        out = self._buf(node.shape)
        self._emit(_kmatmul, a, b, out)
        node.val = out

    def _fwd_sum(self, node):
        out = self._buf(node.shape)
        self._emit(_ksum, self._value(node.srcs[0]), node.ctx["axis"],
                   node.ctx["keepdims"], out)
        node.val = out

    def _fwd_reshape(self, node):
        src = node.srcs[0]
        node.val = self._reshaped(self._value(src), src.shape, node.shape)

    def _fwd_transpose(self, node):
        axes = tuple(node.ctx["axes"])
        node.val = _View(self._value(node.srcs[0]),
                         lambda b, ax=axes: b.transpose(ax), False)

    def _fwd_getitem(self, node):
        index = node.ctx["index"]
        a = self._value(node.srcs[0])
        if _basic_index(index):
            node.val = _View(a, lambda b, i=index: b[i], False)
        else:
            out = self._buf(node.shape)
            self._emit(_kfancy_get, out, a, index)
            node.val = out

    def _fwd_relu(self, node):
        a = self._value(node.srcs[0])
        mask = self._ded(node.shape, np.bool_)
        out = self._ew_out(node)
        self._emit(_kuf2, np.greater, a, 0, mask)
        self._emit(_kuf2, np.multiply, a, mask, out)
        node.aux["mask"] = mask
        node.val = out

    def _fwd_exp(self, node):
        out = self._ew_out(node)
        self._emit(_kuf1, np.exp, self._value(node.srcs[0]), out)
        node.val = out

    def _fwd_sqrt(self, node):
        out = self._ew_out(node)
        self._emit(_kuf1, np.sqrt, self._value(node.srcs[0]), out)
        node.val = out

    def _fwd_tanh(self, node):
        out = self._ew_out(node)
        self._emit(_kuf1, np.tanh, self._value(node.srcs[0]), out)
        node.val = out

    def _fwd_sigmoid(self, node):
        a = self._value(node.srcs[0])
        out = self._ew_out(node)
        self._emit(_kuf1, np.negative, a, out)
        self._emit(_kuf1, np.exp, out, out)
        self._emit(_kuf2, np.add, out, 1.0, out)
        self._emit(_kuf2, np.divide, 1.0, out, out)
        node.val = out

    def _fwd_ste_quant(self, node):
        observer = node.ctx.get("observer")
        if observer is None:
            # A bare ste_quantize call has no observer to re-derive the
            # scale from at replay time; the step stays eager.
            raise GraphUnsupported("ste_quant without an observer scale")
        a = self._value(node.srcs[0])
        out = self._ew_out(node)
        self._emit(_kste_quant, self._leaf(observer), node.ctx["qmax"], a, out,
                   self._scratch(node.shape, np.float32),
                   self._scratch(node.shape, np.float64))
        node.val = out

    def _fwd_ste_fp16(self, node):
        a = self._value(node.srcs[0])
        out = self._ew_out(node)
        self._emit(_kste_fp16, a, out,
                   self._scratch(node.shape, np.float16))
        node.val = out

    def _fwd_pad2d(self, node):
        p = node.ctx["padding"]
        out = self._ded(node.shape, np.float32, zero=True)
        inner = out[..., p:-p, p:-p]
        self._emit(_kcopy, inner, self._value(node.srcs[0]))
        node.val = out

    def _fwd_dropout(self, node):
        p = node.ctx["p"]
        rng = self._leaf(node.ctx["rng"])
        a = self._value(node.srcs[0])
        r = self._ded(node.shape, np.float64)
        mbool = self._ded(node.shape, np.bool_)
        mask = self._buf(node.shape)
        self._emit(_krng, rng, r)
        self._emit(_kuf2, np.greater_equal, r, p, mbool)
        self._emit(_kcopy, mask, mbool)
        self._emit(_kuf2, np.divide, mask, 1.0 - p, mask)
        out = self._ew_out(node)
        self._emit(_kuf2, np.multiply, a, mask, out)
        node.aux["mask"] = mask
        node.val = out

    def _fwd_conv2d(self, node):
        x_src, w_src = node.srcs
        xv = self._value(x_src)
        wv = self._leaf_array(w_src)
        kernel = node.ctx["kernel"]
        stride = node.ctx["stride"]
        groups = node.ctx["groups"]
        n, c, h, w = x_src.shape
        out_c = node.shape[1]
        length = node.shape[2] * node.shape[3]
        cols = self._buf((n, c * kernel * kernel, length))
        self._emit(_kim2col, xv, kernel, stride, cols)
        aux = node.aux
        aux.update(n=n, c=c, out_c=out_c, length=length, kernel=kernel,
                   stride=stride, groups=groups, cols=cols,
                   x_shape=tuple(x_src.shape))
        if groups == 1:
            w_mat = _View(wv, lambda b: b.reshape(out_c, -1), True)
            out3 = self._buf((n, out_c, length))
            self._emit(_kmatmul, _View(w_mat, lambda b: b[None, :, :], True),
                       cols, out3)
            aux["w_mat"] = w_mat
            node.val = _View(out3,
                             lambda b, s=node.shape: b.reshape(s), True)
        else:
            gi = c // groups
            go = out_c // groups
            cols4 = _View(cols,
                          lambda b, s=(n, groups, gi * kernel * kernel,
                                       length): b.reshape(s), True)
            w3 = _View(wv, lambda b: b.reshape(groups, go, -1), True)
            out4 = self._buf((n, groups, go, length))
            self._emit(_keinsum, "gok,ngkl->ngol", w3, cols4, out4)
            aux.update(gi=gi, go=go, cols4=cols4, w3=w3)
            node.val = _View(out4,
                             lambda b, s=node.shape: b.reshape(s), True)

    def _fwd_max_pool2d(self, node):
        kernel = node.ctx["kernel"]
        stride = node.ctx["stride"]
        x_src = node.srcs[0]
        n, c, h, w = x_src.shape
        length = node.shape[2] * node.shape[3]
        xr = self._reshaped(self._value(x_src), x_src.shape, (n * c, 1, h, w))
        cols = self._buf((n * c, kernel * kernel, length))
        self._emit(_kim2col, xr, kernel, stride, cols)
        arg = self._ded((n * c, length), np.intp)
        self._emit(_kargmax, cols, arg)
        argv = arg[:, None, :]
        out = self._buf(node.shape)
        outv = _View(out, lambda b, s=(n * c, 1, length): b.reshape(s), True)
        self._emit(_ktake, cols, argv, outv)
        node.aux.update(kernel=kernel, stride=stride, n=n, c=c, h=h, w=w,
                        length=length, argv=argv)
        node.val = out

    def _fwd_avg_pool2d(self, node):
        kernel = node.ctx["kernel"]
        stride = node.ctx["stride"]
        x_src = node.srcs[0]
        n, c, h, w = x_src.shape
        length = node.shape[2] * node.shape[3]
        xr = self._reshaped(self._value(x_src), x_src.shape, (n * c, 1, h, w))
        cols = self._buf((n * c, kernel * kernel, length))
        self._emit(_kim2col, xr, kernel, stride, cols)
        out = self._buf(node.shape)
        outv = _View(out, lambda b, s=(n * c, length): b.reshape(s), True)
        self._emit(_kmean, cols, 1, outv)
        node.aux.update(kernel=kernel, stride=stride, n=n, c=c, h=h, w=w,
                        length=length)
        node.val = out

    def _fwd_batch_norm(self, node):
        if not node.ctx["training"]:
            raise GraphUnsupported("batch_norm captured in eval mode")
        x_src, w_src, b_src = node.srcs
        xv = self._value(x_src)
        wv = self._leaf_array(w_src)
        bv = self._leaf_array(b_src)
        ndim = len(x_src.shape)
        axes = (0,) if ndim == 2 else (0, 2, 3)
        ch = x_src.shape[1]
        rshape = (1, ch) if ndim == 2 else (1, ch, 1, 1)
        rm = self._leaf(node.ctx["running_mean"])
        rv = self._leaf(node.ctx["running_var"])
        momentum = node.ctx["momentum"]
        eps = node.ctx["eps"]

        meanb = self._buf((ch,))
        self._emit(_kmean, xv, axes, meanb)
        varb = self._buf((ch,))
        self._emit(_kvar, xv, axes, varb)
        tmpc = self._buf((ch,))
        self._emit(_krunning, rm, tmpc, meanb, momentum)
        self._emit(_krunning, rv, tmpc, varb, momentum)
        invstd = self._buf((ch,))
        self._emit(_kuf2, np.add, varb, eps, invstd)
        self._emit(_kuf1, np.sqrt, invstd, invstd)
        self._emit(_kuf2, np.divide, 1.0, invstd, invstd)
        mean_r = _View(meanb, lambda b, s=rshape: b.reshape(s), True)
        invstd_r = _View(invstd, lambda b, s=rshape: b.reshape(s), True)
        xhat = self._buf(node.shape)
        self._emit(_kuf2, np.subtract, xv, mean_r, xhat)
        self._emit(_kuf2, np.multiply, xhat, invstd_r, xhat)
        w_r = _View(wv, lambda b: b.reshape(rshape), True)
        b_r = _View(bv, lambda b: b.reshape(rshape), True)
        out = self._buf(node.shape)
        self._emit(_kuf2, np.multiply, xhat, w_r, out)
        self._emit(_kuf2, np.add, out, b_r, out)
        count = int(np.prod(x_src.shape)) // x_src.shape[1 if ndim > 1 else 0]
        node.aux.update(xhat=xhat, invstd_r=invstd_r, w_r=w_r, axes=axes,
                        count=count,
                        kshape=tuple(1 if i in axes else d
                                     for i, d in enumerate(node.shape)))
        node.val = out

    def _fwd_log_softmax(self, node):
        axis = node.ctx["axis"]
        xv = self._value(node.srcs[0])
        kshape = list(node.shape)
        kshape[axis] = 1
        kshape = tuple(kshape)
        mx = self._buf(kshape)
        self._emit(_kamax, xv, axis, mx)
        sh = self._buf(node.shape)
        self._emit(_kuf2, np.subtract, xv, mx, sh)
        soft = self._buf(node.shape)
        self._emit(_kuf1, np.exp, sh, soft)
        sb = self._buf(kshape)
        self._emit(_ksum, soft, axis, True, sb)
        self._emit(_kuf1, np.log, sb, sb)
        out = self._buf(node.shape)
        self._emit(_kuf2, np.subtract, sh, sb, out)
        self._emit(_kuf1, np.exp, out, soft)
        node.aux.update(soft=soft, axis=axis, kshape=kshape)
        node.val = out

    def _fwd_cross_entropy(self, node):
        if node.ctx["targets"] is not self.capture.targets:
            raise GraphUnsupported("cross_entropy targets are not the step's "
                                   "target batch")
        logits_src = node.srcs[0]
        if len(logits_src.shape) != 2:
            raise GraphUnsupported("cross_entropy needs 2-d logits")
        lv = self._value(logits_src)
        n, num_classes = logits_src.shape
        rows = np.arange(n)
        mx = self._buf((n, 1))
        self._emit(_kamax, lv, -1, mx)
        sh = self._buf((n, num_classes))
        self._emit(_kuf2, np.subtract, lv, mx, sh)
        soft = self._buf((n, num_classes))
        self._emit(_kuf1, np.exp, sh, soft)
        sb = self._buf((n, 1))
        self._emit(_ksum, soft, -1, True, sb)
        self._emit(_kuf1, np.log, sb, sb)
        lp = self._buf((n, num_classes))
        self._emit(_kuf2, np.subtract, sh, sb, lp)
        self._emit(_kuf1, np.exp, lp, soft)
        loss = self._ded((), np.float32)
        inv_n = np.float32(1.0 / float(n))
        self._emit(_kce_loss, lp, rows, self.y_buf, inv_n, loss)
        node.aux.update(soft=soft, rows=rows, inv_n=inv_n, n=n,
                        num_classes=num_classes)
        node.val = loss

    # -- backward emission ---------------------------------------------
    def _backward_order(self):
        order = []
        visited: set[int] = set()
        stack: list[tuple[object, bool]] = [(self.loss_node, False)]
        while stack:
            unit, processed = stack.pop()
            if processed:
                order.append(unit)
                continue
            if id(unit) in visited:
                continue
            visited.add(id(unit))
            stack.append((unit, True))
            if isinstance(unit, _Node) and unit.rg:
                for src in unit.srcs:
                    child = src.node if src.node is not None else src
                    if id(child) not in visited:
                        stack.append((child, False))
        return order

    def _backward(self) -> None:
        ones = self._ded((), zero=True)       # persistent: the seed gradient
        ones[...] = 1.0
        self._gslot[id(self.loss_node)] = ones
        self._gcount[id(self.loss_node)] = 1
        for unit in reversed(self._backward_order()):
            if not isinstance(unit, _Node) or not unit.rg:
                continue
            getattr(self, "_bwd_" + unit.op)(unit, self._grad_of(unit))

    def _acc_sum(self, tgt, val, axes, keepdims, shape) -> None:
        s = self._slot(tgt)
        if s is None:
            return
        slot, first = s
        if first and tuple(slot.shape) == tuple(shape):
            self._emit(_ksum, val, axes, keepdims, slot)
        else:
            tmp = self._buf(shape)
            self._emit(_ksum, val, axes, keepdims, tmp)
            self._emit(_kiadd, slot, tmp)

    def _acc_mm(self, tgt, a, b, shape) -> None:
        s = self._slot(tgt)
        if s is None:
            return
        slot, first = s
        if first and tuple(slot.shape) == tuple(shape):
            self._emit(_kmatmul, a, b, slot)
        else:
            tmp = self._buf(shape)
            self._emit(_kmatmul, a, b, tmp)
            self._emit(_kiadd, slot, tmp)

    def _bwd_add(self, node, g):
        for src in node.srcs:
            if src.requires_grad:
                self._acc(src, self._unbroadcast(g, node.shape, src.shape))

    def _bwd_neg(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            self._acc_uf(src, np.negative, (g,), node.shape)

    def _contrib_mul(self, tgt, g, other, gshape) -> None:
        if tuple(tgt.shape) == tuple(gshape):
            self._acc_uf(tgt, np.multiply, (g, other), gshape)
        else:
            tmp = self._buf(gshape)
            self._emit(_kuf2, np.multiply, g, other, tmp)
            self._acc(tgt, self._unbroadcast(tmp, gshape, tgt.shape))

    def _bwd_mul(self, node, g):
        s0, s1 = node.srcs
        if s0.requires_grad:
            self._contrib_mul(s0, g, self._value(s1), node.shape)
        if s1.requires_grad:
            self._contrib_mul(s1, g, self._value(s0), node.shape)

    def _bwd_div(self, node, g):
        s0, s1 = node.srcs
        if s0.requires_grad:
            v1 = self._value(s1)
            if tuple(s0.shape) == tuple(node.shape):
                self._acc_uf(s0, np.divide, (g, v1), node.shape)
            else:
                tmp = self._buf(node.shape)
                self._emit(_kuf2, np.divide, g, v1, tmp)
                self._acc(s0, self._unbroadcast(tmp, node.shape, s0.shape))
        if s1.requires_grad:
            t = self._buf(node.shape)
            self._emit(_kuf1, np.negative, g, t)
            self._emit(_kuf2, np.multiply, t, self._value(s0), t)
            t2 = self._buf(s1.shape)
            self._emit(_kuf2, np.power, self._value(s1), 2, t2)
            self._emit(_kuf2, np.divide, t, t2, t)
            self._acc(s1, self._unbroadcast(t, node.shape, s1.shape))

    def _bwd_pow(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        e = node.ctx["exponent"]
        t = self._buf(node.shape)
        self._emit(_kuf2, np.multiply, g, e, t)
        t2 = self._buf(node.shape)
        self._emit(_kuf2, np.power, self._value(src), e - 1, t2)
        self._emit(_kuf2, np.multiply, t, t2, t)
        self._acc(src, t)

    def _bwd_matmul(self, node, g):
        s0, s1 = node.srcs
        if len(s0.shape) < 2 or len(s1.shape) < 2:
            raise GraphUnsupported("matmul backward needs >=2-d operands")
        if s0.requires_grad:
            sw = _View(self._value(s1),
                       lambda b: np.swapaxes(b, -1, -2), False)
            pshape = _matmul_shape(tuple(node.shape), _swap_shape(s1.shape))
            if pshape == tuple(s0.shape):
                self._acc_mm(s0, g, sw, pshape)
            else:
                tmp = self._buf(pshape)
                self._emit(_kmatmul, g, sw, tmp)
                self._acc(s0, self._unbroadcast(tmp, pshape, s0.shape))
        if s1.requires_grad:
            sw = _View(self._value(s0),
                       lambda b: np.swapaxes(b, -1, -2), False)
            pshape = _matmul_shape(_swap_shape(s0.shape), tuple(node.shape))
            if pshape == tuple(s1.shape):
                self._acc_mm(s1, sw, g, pshape)
            else:
                tmp = self._buf(pshape)
                self._emit(_kmatmul, sw, g, tmp)
                self._acc(s1, self._unbroadcast(tmp, pshape, s1.shape))

    def _bwd_sum(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        axis = node.ctx["axis"]
        keepdims = node.ctx["keepdims"]
        gv = g
        if axis is not None and not keepdims:
            gv = _View(g, lambda b, ax=axis: np.expand_dims(b, ax),
                       _is_contig(g))
        self._acc(src, gv)

    def _bwd_reshape(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            gv = _View(g, lambda b, s=tuple(src.shape): b.reshape(s), True)
            self._acc(src, gv)

    def _bwd_transpose(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            inverse = node.ctx["inverse"]
            gv = _View(g, lambda b, ax=inverse: b.transpose(ax), False)
            self._acc(src, gv)

    def _bwd_getitem(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        index = node.ctx["index"]
        full = self._ded(src.shape, np.float32, zero=True)
        if _basic_index(index):
            # static single-write region: assignment into the once-zeroed
            # buffer equals np.add.at on fresh zeros
            self._emit(_kfill, full, g, index)
        else:
            self._emit(_kscatter_add, full, index, g)
        self._acc(src, full)

    def _bwd_relu(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            self._acc_uf(src, np.multiply, (g, node.aux["mask"]), node.shape)

    def _bwd_exp(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            self._acc_uf(src, np.multiply, (g, node.val), node.shape)

    def _bwd_sqrt(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        t = self._buf(node.shape)
        self._emit(_kuf2, np.multiply, g, 0.5, t)
        self._emit(_kuf2, np.divide, t, node.val, t)
        self._acc(src, t)

    def _bwd_tanh(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        t = self._buf(node.shape)
        self._emit(_kuf2, np.power, node.val, 2, t)
        self._emit(_kuf2, np.subtract, 1.0, t, t)
        self._emit(_kuf2, np.multiply, g, t, t)
        self._acc(src, t)

    def _bwd_sigmoid(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        t1 = self._buf(node.shape)
        self._emit(_kuf2, np.multiply, g, node.val, t1)
        t2 = self._buf(node.shape)
        self._emit(_kuf2, np.subtract, 1.0, node.val, t2)
        self._emit(_kuf2, np.multiply, t1, t2, t1)
        self._acc(src, t1)

    def _bwd_ste_quant(self, node, g):
        # Straight-through estimator: the gradient passes unchanged.
        src = node.srcs[0]
        if src.requires_grad:
            self._acc(src, g)

    def _bwd_ste_fp16(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            self._acc(src, g)

    def _bwd_pad2d(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            p = node.ctx["padding"]
            gv = _View(g, lambda b, q=p: b[..., q:-q, q:-q], False)
            self._acc(src, gv)

    def _bwd_dropout(self, node, g):
        src = node.srcs[0]
        if src.requires_grad:
            self._acc_uf(src, np.multiply, (g, node.aux["mask"]), node.shape)

    def _bwd_conv2d(self, node, g):
        x_src, w_src = node.srcs
        aux = node.aux
        n = aux["n"]
        length = aux["length"]
        cols = aux["cols"]
        if aux["groups"] == 1:
            gmat = _View(g, lambda b, s=(n, aux["out_c"], length):
                         b.reshape(s), True)
            if w_src.requires_grad:
                s = self._slot(w_src)
                if s is not None:
                    slot, first = s
                    w2 = _View(slot, lambda b, s=(aux["out_c"], -1):
                               b.reshape(s), True)
                    if first:
                        self._emit(_keinsum, "nol,nkl->ok", gmat, cols, w2)
                    else:
                        tmp = self._buf((aux["out_c"], cols.shape[1]))
                        self._emit(_keinsum, "nol,nkl->ok", gmat, cols, tmp)
                        self._emit(_kiadd, w2, tmp)
            if x_src.requires_grad:
                gcols = self._buf(cols.shape)
                w_t3 = _View(aux["w_mat"], lambda b: b.T[None, :, :], False)
                self._emit(_kmatmul, w_t3, gmat, gcols)
                gx = self._buf(x_src.shape)
                self._emit(_kcol2im, gcols, aux["x_shape"], aux["kernel"],
                           aux["stride"], gx)
                self._acc(x_src, gx)
        else:
            groups = aux["groups"]
            go = aux["go"]
            gik2 = aux["gi"] * aux["kernel"] * aux["kernel"]
            gmat4 = _View(g, lambda b, s=(n, groups, go, length):
                          b.reshape(s), True)
            cols4 = aux["cols4"]
            if w_src.requires_grad:
                s = self._slot(w_src)
                if s is not None:
                    slot, first = s
                    w3view = _View(slot, lambda b: b.reshape(groups, go, -1),
                                   True)
                    if first:
                        self._emit(_keinsum, "ngol,ngkl->gok", gmat4, cols4,
                                   w3view)
                    else:
                        tmp = self._buf((groups, go, gik2))
                        self._emit(_keinsum, "ngol,ngkl->gok", gmat4, cols4,
                                   tmp)
                        self._emit(_kiadd, w3view, tmp)
            if x_src.requires_grad:
                gcols4 = self._buf((n, groups, gik2, length))
                self._emit(_keinsum, "gok,ngol->ngkl", aux["w3"], gmat4,
                           gcols4)
                gflat = _View(gcols4, lambda b, s=(n, cols.shape[1], length):
                              b.reshape(s), True)
                gx = self._buf(x_src.shape)
                self._emit(_kcol2im, gflat, aux["x_shape"], aux["kernel"],
                           aux["stride"], gx)
                self._acc(x_src, gx)

    def _bwd_max_pool2d(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        aux = node.aux
        n, c, h, w = aux["n"], aux["c"], aux["h"], aux["w"]
        k = aux["kernel"]
        length = aux["length"]
        gcols = self._buf((n * c, k * k, length))
        gv = _View(g, lambda b, s=(n * c, 1, length): b.reshape(s), True)
        self._emit(_kput, gcols, aux["argv"], gv)
        gx = self._buf((n * c, 1, h, w))
        self._emit(_kcol2im, gcols, (n * c, 1, h, w), k, aux["stride"], gx)
        gxr = _View(gx, lambda b, s=tuple(src.shape): b.reshape(s), True)
        self._acc(src, gxr)

    def _bwd_avg_pool2d(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        aux = node.aux
        n, c, h, w = aux["n"], aux["c"], aux["h"], aux["w"]
        k = aux["kernel"]
        length = aux["length"]
        scale = 1.0 / (k * k)
        gcols = self._buf((n * c, k * k, length))
        gv = _View(g, lambda b, s=(n * c, 1, length): b.reshape(s), True)
        self._emit(_kuf2, np.multiply, gv, scale, gcols)
        gx = self._buf((n * c, 1, h, w))
        self._emit(_kcol2im, gcols, (n * c, 1, h, w), k, aux["stride"], gx)
        gxr = _View(gx, lambda b, s=tuple(src.shape): b.reshape(s), True)
        self._acc(src, gxr)

    def _bwd_batch_norm(self, node, g):
        x_src, w_src, b_src = node.srcs
        aux = node.aux
        axes = aux["axes"]
        xhat = aux["xhat"]
        kshape = aux["kshape"]
        ch = node.shape[1]
        if b_src.requires_grad:
            self._acc_sum(b_src, g, axes, False, (ch,))
        if w_src.requires_grad:
            tb = self._buf(node.shape)
            self._emit(_kuf2, np.multiply, g, xhat, tb)
            self._acc_sum(w_src, tb, axes, False, (ch,))
        if x_src.requires_grad:
            count = aux["count"]
            gx = self._buf(node.shape)
            self._emit(_kuf2, np.multiply, g, aux["w_r"], gx)
            gsum = self._buf(kshape)
            self._emit(_ksum, gx, axes, True, gsum)
            tb2 = self._buf(node.shape)
            self._emit(_kuf2, np.multiply, gx, xhat, tb2)
            gdot = self._buf(kshape)
            self._emit(_ksum, tb2, axes, True, gdot)
            self._emit(_kuf2, np.divide, gsum, count, gsum)
            self._emit(_kuf2, np.subtract, gx, gsum, gx)
            # eager computes ``x_hat * grad_dot / count`` which associates
            # left-to-right as (x_hat * grad_dot) / count; dividing
            # grad_dot first only matches bitwise when count is a power
            # of two, so replicate the exact association.
            self._emit(_kuf2, np.multiply, xhat, gdot, tb2)
            self._emit(_kuf2, np.divide, tb2, count, tb2)
            self._emit(_kuf2, np.subtract, gx, tb2, gx)
            self._emit(_kuf2, np.multiply, gx, aux["invstd_r"], gx)
            self._acc(x_src, gx)

    def _bwd_log_softmax(self, node, g):
        src = node.srcs[0]
        if not src.requires_grad:
            return
        aux = node.aux
        gs = self._buf(aux["kshape"])
        self._emit(_ksum, g, aux["axis"], True, gs)
        tb = self._buf(node.shape)
        self._emit(_kuf2, np.multiply, aux["soft"], gs, tb)
        self._emit(_kuf2, np.subtract, g, tb, tb)
        self._acc(src, tb)

    def _bwd_cross_entropy(self, node, g):
        logits_src = node.srcs[0]
        if not logits_src.requires_grad:
            return
        aux = node.aux
        shape = (aux["n"], aux["num_classes"])
        s = self._slot(logits_src)
        if s is None:
            return
        slot, first = s
        gl = slot if first else self._buf(shape)
        tmp = self._buf(shape)
        self._emit(_kce_grad, g, aux["inv_n"], gl, aux["rows"], self.y_buf,
                   aux["soft"], tmp)
        if not first:
            self._emit(_kiadd, slot, gl)

    # -- plan ----------------------------------------------------------
    def build(self) -> "_Plan":
        self._forward()
        self._backward()
        arena_bytes = _pack_arena(self._bufs)
        arena = np.empty(max(arena_bytes // 4, 1), dtype=np.float32)
        for buf in self._bufs:
            start = buf.offset // 4
            buf.array = arena[start:start + math.prod(buf.shape)].reshape(
                buf.shape)
        loss_val = self.loss_node.val
        if _is_leafy(loss_val) or getattr(_resolve(loss_val), "size", 0) != 1:
            raise GraphUnsupported("loss is not a scalar buffer")
        # An instruction that touches no leaf is the same closure in
        # every binding: make it once, here.
        template = tuple(
            entry if any(map(_is_leafy, entry[1:]))
            else entry[0](*map(_resolve, entry[1:]))
            for entry in self._instrs)
        naive = sum(-(-b.nbytes // _ALIGN) * _ALIGN for b in self._bufs)
        return _Plan(
            template=template, x_buf=self.x_buf, y_buf=self.y_buf,
            loss=_resolve(loss_val), grad_params=tuple(self._grad_params),
            workspace=[(arena, False)] + self._dedicated, shared=self.shared,
            stats={
                "nodes": len(self.capture.nodes),
                "instrs": len(template),
                "arena_bytes": arena_bytes,
                "naive_bytes": naive,
                "dedicated_bytes": sum(a.nbytes for a, _ in self._dedicated),
                "fused_elementwise": self.fused_elementwise,
            })


def _swap_shape(shape) -> tuple[int, ...]:
    shape = tuple(shape)
    return shape[:-2] + (shape[-1], shape[-2])


def _matmul_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < 2 or len(b) < 2:
        raise GraphUnsupported("matmul shape inference needs >=2-d")
    return tuple(np.broadcast_shapes(a[:-2], b[:-2])) + (a[-2], b[-1])


def _basic_index(index) -> bool:
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis
        or isinstance(item, (int, np.integer, slice))
        for item in items)


def _resolve(v, replica=None, memo=None):
    """The runtime array (or state object) behind a compile-time value.

    Workspace values resolve once per plan; anything leafy resolves
    per binding, against ``replica``, memoised in ``memo``.
    """
    if isinstance(v, _Buf):
        return v.array
    if isinstance(v, _Leaf):
        return v.fetch(replica)
    if isinstance(v, _View):
        if not v.leafy:
            if v.arr is None:
                v.arr = v.fn(_resolve(v.base))
            return v.arr
        arr = memo.get(id(v))
        if arr is None:
            arr = memo[id(v)] = v.fn(_resolve(v.base, replica, memo))
        return arr
    return v


# ---------------------------------------------------------------------------
# Plan and binding (plans are cached in the run's StepArena)
# ---------------------------------------------------------------------------

class _Plan:
    """A compiled training step, independent of any one replica.

    Owns the instruction ``template`` (ready closures for instructions
    over the workspace alone, symbolic ``(maker, args...)`` entries
    for those touching a leaf), the buffers every binding computes in,
    and the re-entrancy flag that keeps the sequential-replay invariant
    honest: bindings of one plan must never run inside one another.

    The plan of a staged step (``train_step(stages=...)``) also names
    what its stages compute in: ``scratch``, the arena's pooled stage
    scratch — shared with every other plan of that run, hence one
    ``guard`` for all of them — and ``stage_bufs``, the per-batch-shape
    part this plan owns.
    """

    __slots__ = ("template", "x_buf", "y_buf", "loss", "grad_params",
                 "own", "shared", "stats", "guard", "scratch", "stage_bufs")

    def __init__(self, template, x_buf, y_buf, loss, grad_params, workspace,
                 shared, stats):
        self.template = template
        self.x_buf = x_buf
        self.y_buf = y_buf
        self.loss = loss
        self.grad_params = grad_params      # indices into param_tensors
        self.own = workspace                # [(array, persistent)]
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
        memo: dict[int, np.ndarray] = {}
        closures = tuple(
            entry[0](*[_resolve(a, replica, memo) for a in entry[1:]])
            if isinstance(entry, tuple) else entry
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


def compile_program(capture: GraphCapture, replica: _Replica,
                    fuse: bool = True) -> _Plan:
    """Compile a :class:`GraphCapture` of ``replica``'s step into a
    :class:`_Plan` any structurally equal replica can bind.

    Raises :class:`GraphUnsupported` when the step cannot be replayed
    bit-identically.
    """
    if capture.unsupported is not None:
        raise GraphUnsupported(f"unsupported op: {capture.unsupported}")
    if not capture.nodes or capture.nodes[-1].op != "cross_entropy":
        raise GraphUnsupported("the capture does not end in the step's loss")
    plan = _Compiler(capture, capture.nodes[-1], replica, fuse).build()
    if replica.stages is not None:
        flat = replica.flat
        if len(plan.grad_params) != flat.layout.num_params:
            # The eager stages clip/quantise exactly the parameters
            # that received gradients; the fused ones assume all.
            raise GraphUnsupported("not every parameter received a gradient")
        plan.stage(replica.stages.bind(flat)[2])
    return plan


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
    tensor_mod._CAPTURE = capture.begin(x_t, y) if capture else None
    try:
        loss = F.cross_entropy(model(x_t), y)
        loss.backward()
    finally:
        tensor_mod._CAPTURE = None
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
    traced) or, when the run has none yet, captures one.  Per-step
    validity is the flat buffer's intactness plus the stages'
    ``signature()``: per-key state loads or re-grouping that rebind
    parameter storage, and ``attach_activation_quant`` swapping the
    observers, leave every bound view stale — the bindings are
    dropped, the storage re-fused, and the step replays through a
    fresh binding of the same plan.

    ``stages`` (see :func:`train_step`) also names the ``precision``
    label its plans are counted under and the ``plan_key`` they are
    told apart by (another ``QuantConfig`` or clip norm compiles
    afresh).
    """

    def __init__(self, model, max_programs: int = 8, fuse: bool = True,
                 arena: "StepArena | None" = None, stages=None):
        flat = model.flatten_parameters()
        if flat is None:
            raise GraphUnsupported("model has no fused flat parameter buffer")
        self.model = model
        self.flat = flat
        self.stages = stages
        self.precision = "fp32" if stages is None else stages.precision
        self.max_programs = max_programs
        self.fuse = fuse
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
                # Storage (or an observer) was swapped under us: every
                # binding aliases the old one, not just this shape's.
                # The plans are untouched — bind again below.
                self._programs.clear()
            replica = self._replica(optimizer)
            if replica is None:
                return self._eager("fallbacks", optimizer, x, y, grad_hook)
            if len(self._programs) >= self.max_programs:
                return self._eager("eager_steps", optimizer, x, y, grad_hook)
            structure = replica.structure
            if self.stages is not None:
                structure += self.stages.plan_key
            plan_key = (self.precision, self.fuse, key, structure)
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
                capture = GraphCapture(replica.flat.param_tensors)
                replica.flat.claim_grads()  # the optimiser may not be bound
                loss = train_step(self.model, optimizer, x, y, self.stages,
                                  grad_hook, capture=capture)
                try:
                    plan = compile_program(capture, replica, fuse=self.fuse)
                except GraphUnsupported:
                    plan = None
                self.arena.add(self.precision, plan_key, plan)
                self._programs[key] = (None if plan is None
                                       else self._bind(plan, replica))
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
        return not self.flat.is_intact() or (
            self.stages is not None and self.stages.signature() != self._sig)

    def _replica(self, optimizer) -> "_Replica | None":
        flat = self.model.flatten_parameters()      # re-fuses if rebound
        if flat is None:
            return None
        if flat is not self.flat:
            self.flat = flat
            if getattr(optimizer, "bind_flat", None) is not None:
                optimizer.bind_flat(flat)
        return _Replica(self.model, flat, self.stages)

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


def attach_graph_executor(model, max_programs: int = 8, fuse: bool = True,
                          arena: "StepArena | None" = None, stages=None
                          ) -> GraphExecutor | None:
    """Attach a :class:`GraphExecutor` for ``model``'s step (idempotent).

    It hangs on ``stages`` when the step has them (an ``Int8Trainer``),
    on ``model`` otherwise; :func:`train_step` dispatches to it when
    present.  ``arena`` is the run's :class:`~repro.nn.arena.StepArena`,
    where the plans and their workspace live; without one that is the
    arena the model was flattened into (its own, unless
    ``flatten_parameters`` was given the run's).  Returns ``None``
    (leaving the step eager) when the model cannot flatten.
    """
    holder = model if stages is None else stages
    executor = getattr(holder, "_graph_exec", None)
    if executor is not None:
        return executor
    try:
        executor = GraphExecutor(model, max_programs=max_programs, fuse=fuse,
                                 arena=arena, stages=stages)
    except GraphUnsupported:
        return None
    holder._graph_exec = executor
    return executor


def detach_graph_executor(model) -> None:
    if getattr(model, "_graph_exec", None) is not None:
        model._graph_exec = None
