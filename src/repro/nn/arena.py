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
- the parameter-sized scratch of the fused SGD update,
- pooled step scratch of other layers (the INT8 step's masters,
  quantiser and clip buffers), and
- the compiled plans of :mod:`repro.nn.graph` with their workspace.

A module flattened on its own gets a private arena, so standalone
``flatten_parameters()`` / ``SGD`` / ``Int8Trainer`` users see exactly
the buffers they always had.
"""

from __future__ import annotations

import numpy as np

from . import functional as F

__all__ = ["GradPlane", "GradLease", "StepArena", "MISSING"]

#: :meth:`StepArena.get` found no plan under the key
MISSING = object()


class GradPlane:
    """One fused gradient array per (arena, layout) and its
    per-parameter views, plus the lease currently entitled to it."""

    __slots__ = ("array", "views", "owner")

    def __init__(self, layout):
        self.array = np.zeros(layout.param_total, dtype=np.float32)
        self.views = layout.param_views(self.array)
        self.owner: "GradLease | None" = None


class GradLease:
    """One replica's handle on its layout's :class:`GradPlane`.

    The plane holds a gradient from the owner's ``zero_grad()`` (the
    claim) until another replica claims it: the *validity window*.
    Inside it the owner's ``.grad`` tensors are views of the plane and
    the fused optimiser/clip/quantise paths run on it; outside it the
    bytes belong to someone else, so every consumer checks
    :attr:`held` and refuses instead of applying them.
    """

    __slots__ = ("plane",)

    def __init__(self, plane: GradPlane):
        self.plane = plane

    def claim(self) -> None:
        self.plane.owner = self

    @property
    def held(self) -> bool:
        return self.plane.owner is self

    def check(self) -> None:
        if self.plane.owner is not self:
            raise RuntimeError(
                "gradient plane claimed by another replica: the replicas "
                "of a run share one gradient buffer, so a gradient is "
                "valid from its replica's zero_grad() (the module's, or "
                "that of an optimiser bound to its flat buffer) until "
                "the next replica's — zero_grad() and backward() again")


class StepArena:
    """Run-scoped storage shared by the replicas of one run."""

    def __init__(self):
        self._planes: dict = {}
        self._scratch: dict[tuple, np.ndarray] = {}
        self._pooled: dict[tuple, object] = {}
        self._plans: dict[tuple, object] = {}
        self._stats: dict[str, dict[str, int]] = {}
        self._workspace_mark = F.workspace_mark()

    # -- per-layout step storage ----------------------------------------
    def grad_plane(self, layout) -> GradPlane:
        plane = self._planes.get(layout)
        if plane is None:
            plane = self._planes[layout] = GradPlane(layout)
        return plane

    def param_scratch(self, layout, slot: int = 0) -> np.ndarray:
        """A ``(param_total,)`` float32 array nobody reads across steps
        (``slot`` tells apart scratch one step needs at the same time)."""
        key = (layout, slot)
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = self._scratch[key] = np.empty(layout.param_total,
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
        nothing in them may be read before it is written in a step."""
        arrays = [plane.array for plane in self._planes.values()]
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
        process-wide cache (later steps just allocate them again)."""
        F.release_workspaces(self._workspace_mark)

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
