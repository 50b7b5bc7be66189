"""The run-scoped step arena: everything a training step needs that no
replica has to keep.

The replicas of one run — the logical groups of ``SoCFlow.train``, of a
``JobExecution`` or of an ``LgExecutor`` worker — are structurally
equal and step strictly one after another.  Between two of its steps a
replica needs its weights, its momentum and its RNG/observer state;
everything else is dead the moment ``optimizer.step()`` returns.  One
:class:`StepArena` per run therefore holds, once per
:class:`~repro.nn.flat.FlatLayout`,

- the **gradient plane** every replica's parameter gradients land in
  (:class:`GradPlane`; who may read it is an explicit claim, see
  :class:`GradLease`),
- the **weight plane** the INT8 twins of a run's mixed groups keep
  their weights on (:class:`WeightPlane`, claimed by
  :class:`WeightLease`): a twin's weights equal its group's FP32
  weights at every step boundary, so the group loads them before each
  INT8 use instead of keeping a copy,
- the parameter-sized scratch of the fused SGD update,
- pooled step scratch of other layers (the INT8 step's masters,
  quantiser and clip buffers), and
- the compiled plans of :mod:`repro.nn.graph` with their workspace.

A module flattened on its own gets a private arena, so standalone
``flatten_parameters()`` / ``SGD`` / ``Int8Trainer`` users see exactly
the buffers they always had.

A plan's packed temporaries live on :class:`TransientPages`: every
replay writes each of their bytes before it reads it, so while the run
is not stepping (its group math is done for the epoch, or the run is
closed) :meth:`StepArena.drop_pages` hands those pages back to the OS,
and the next replay faults them in again, zero-filled.
"""

from __future__ import annotations

import functools
import mmap
import weakref

import numpy as np

from . import functional as F

__all__ = ["GradPlane", "GradLease", "WeightPlane", "WeightLease",
           "StepArena", "TransientPages", "MISSING", "trim_heap"]

#: :meth:`StepArena.get` found no plan under the key
MISSING = object()

_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


class TransientPages:
    """``nbytes`` of float32 workspace on anonymous private pages of its
    own, which :meth:`drop` returns to the OS (``MADV_DONTNEED``: the
    next touch maps fresh zero pages).  Where the platform has no such
    mapping it is a plain array and :meth:`drop` does nothing."""

    __slots__ = ("array", "_map", "__weakref__")

    def __init__(self, nbytes: int):
        count = max(nbytes // 4, 1)
        try:
            self._map = mmap.mmap(-1, count * 4, flags=mmap.MAP_PRIVATE
                                  | mmap.MAP_ANONYMOUS)
        except AttributeError:          # no POSIX mmap flags
            self._map = None
            self.array = np.empty(count, dtype=np.float32)
        else:
            self.array = np.frombuffer(self._map, dtype=np.float32,
                                       count=count)

    def drop(self) -> None:
        if self._map is not None and _DONTNEED is not None:
            self._map.madvise(_DONTNEED)


@functools.cache
def _malloc_trim():
    import ctypes
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):   # not glibc
        return None


def trim_heap() -> None:
    """Return the free memory at the top of the C heap to the OS
    (glibc's ``malloc_trim``; a no-op elsewhere).  A capture step is
    one full eager step: what it frees stays in the heap otherwise, and
    the compiled plan's pages come on top of it."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class GradPlane:
    """One fused gradient array per (arena, layout) and its
    per-parameter views, plus the lease currently entitled to it."""

    __slots__ = ("array", "views", "owner")

    def __init__(self, layout):
        self.array = np.zeros(layout.param_total, dtype=np.float32)
        self.views = layout.param_views(self.array)
        self.owner: "GradLease | None" = None


class WeightPlane:
    """One fused weight array (parameters, then buffers) per (arena,
    layout), plus the lease whose replica's weights it holds."""

    __slots__ = ("array", "owner")

    def __init__(self, layout):
        self.array = np.empty(layout.total, dtype=np.float32)
        self.owner: "WeightLease | None" = None


class _Lease:
    """One replica's handle on a plane its replicas take turns on:
    :meth:`claim` starts the replica's turn, another replica's claim
    (or :meth:`release`) ends it, and :meth:`check` refuses outside
    it."""

    __slots__ = ("plane",)
    refusal = ""

    def __init__(self, plane):
        self.plane = plane

    def claim(self) -> None:
        self.plane.owner = self

    def release(self) -> None:
        if self.plane.owner is self:
            self.plane.owner = None

    @property
    def held(self) -> bool:
        return self.plane.owner is self

    def check(self) -> None:
        if self.plane.owner is not self:
            raise RuntimeError(self.refusal)


class GradLease(_Lease):
    """One replica's handle on its layout's :class:`GradPlane`.

    The plane holds a gradient from the owner's ``zero_grad()`` (the
    claim) until another replica claims it: the *validity window*.
    Inside it the owner's ``.grad`` tensors are views of the plane and
    the fused optimiser/clip/quantise paths run on it; outside it the
    bytes belong to someone else, so every consumer checks
    :attr:`held` and refuses instead of applying them.
    """

    __slots__ = ()
    refusal = ("gradient plane claimed by another replica: the replicas "
               "of a run share one gradient buffer, so a gradient is "
               "valid from its replica's zero_grad() (the module's, or "
               "that of an optimiser bound to its flat buffer) until "
               "the next replica's — zero_grad() and backward() again")


class WeightLease(_Lease):
    """One replica's handle on its layout's :class:`WeightPlane`.

    The plane holds the owner's weights from the load that claimed it
    (``FlatParamBuffer.load_data``, or building the replica) until
    another replica loads its own or the owner's are spent
    (``release``: the Eq. 5 merge consumed them).  Outside that window
    a step, a prediction or a snapshot of the replica refuses rather
    than read another replica's bytes.
    """

    __slots__ = ()
    refusal = ("weight plane does not hold this replica's weights: the "
               "INT8 twins of a run share one weight buffer, so load "
               "this replica's weights (load_state_dict) before using "
               "it — GroupMixedTrainer loads its FP32 weights before "
               "every INT8 step and profile")


class StepArena:
    """Run-scoped storage shared by the replicas of one run."""

    def __init__(self):
        self._planes: dict = {}
        self._weights: dict = {}
        self._scratch: dict = {}
        self._pooled: dict[tuple, object] = {}
        self._plans: dict[tuple, object] = {}
        self._stats: dict[str, dict[str, int]] = {}
        self._pages: "weakref.WeakSet[TransientPages]" = weakref.WeakSet()
        self._workspace_mark = F.workspace_mark()

    # -- per-layout step storage ----------------------------------------
    def grad_plane(self, layout) -> GradPlane:
        plane = self._planes.get(layout)
        if plane is None:
            plane = self._planes[layout] = GradPlane(layout)
        return plane

    def weight_plane(self, layout) -> WeightPlane:
        plane = self._weights.get(layout)
        if plane is None:
            plane = self._weights[layout] = WeightPlane(layout)
        return plane

    def param_scratch(self, layout) -> np.ndarray:
        """A ``(param_total,)`` float32 array nobody reads across steps."""
        scratch = self._scratch.get(layout)
        if scratch is None:
            scratch = self._scratch[layout] = np.empty(layout.param_total,
                                                       dtype=np.float32)
        return scratch

    def pooled(self, key: tuple, factory):
        """A pooled scratch object, made by ``factory()`` on first use.
        ``key[0]`` names the precision whose steps compute in it; the
        object lists its arrays as ``buffers()``."""
        item = self._pooled.get(key)
        if item is None:
            item = self._pooled[key] = factory()
        return item

    def buffers(self) -> list[np.ndarray]:
        """Every step-scoped array held outside the compiled plans —
        nothing in them may be read before a step (the weight plane:
        a load) writes it."""
        arrays = [plane.array for plane in self._planes.values()]
        arrays += [plane.array for plane in self._weights.values()]
        arrays += self._scratch.values()
        for item in self._pooled.values():
            arrays += item.buffers()
        return arrays

    # -- functional-op workspaces ---------------------------------------
    def workspace_evictions(self) -> int:
        """Op workspaces created since this arena was made that the
        process-wide cache was too small to keep."""
        return F.workspace_evictions(self._workspace_mark)

    def release(self) -> None:
        """The run is over: drop the op workspaces it pinned in the
        process-wide cache (later steps just allocate them again) and
        the pages of its plans."""
        F.release_workspaces(self._workspace_mark)
        self.drop_pages()

    def drop_pages(self) -> None:
        """Return the transient workspace pages of every plan compiled
        on this arena to the OS until their next replay, which writes
        every byte of them before reading it.  Call it only between
        steps."""
        for pages in self._pages:
            pages.drop()

    # -- compiled plans (repro.nn.graph) --------------------------------
    def counters(self, precision: str) -> dict[str, int]:
        return self._stats.setdefault(precision, {
            "plans": 0, "binds": 0, "unshared_plans": 0,
            "workspace_bytes": 0})

    def get(self, key: tuple):
        """The shareable plan under ``key``, ``None`` when the step is
        known not to compile, :data:`MISSING` when there is none."""
        return self._plans.get(key, MISSING)

    def add(self, precision: str, key: tuple, plan) -> None:
        """Record the outcome of one compilation under ``key``."""
        if plan is None:
            self._plans.setdefault(key, None)
            return
        self._pages.add(plan.pages)
        counters = self.counters(precision)
        counters["plans"] += 1
        counters["workspace_bytes"] += plan.workspace_bytes
        if not (plan.shared and self._plans.setdefault(key, plan) is plan):
            # pinned to its replica, or refused by the plan already
            # here: lives in that replica's binding only
            counters["unshared_plans"] += 1

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per precision with compiled plans: plans, bindings and the
        bytes they compute in (pooled scratch of that precision
        included, once)."""
        out = {precision: dict(counters)
               for precision, counters in sorted(self._stats.items())}
        for key, item in self._pooled.items():
            if key[0] in out:
                out[key[0]]["workspace_bytes"] += sum(
                    b.nbytes for b in item.buffers())
        return out
