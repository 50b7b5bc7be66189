"""Process-pool execution of logical-group epochs.

Within one epoch, SoCFlow's logical groups are embarrassingly parallel:
each :class:`~repro.core.mixed_precision.GroupMixedTrainer` steps on
its own data shard and only the epoch-end leader ring couples them.
:class:`LgExecutor` exploits this by running each group's epoch in a
worker process and loading the mutated runtime state back, so the
parallel schedule is *group-major* where the sequential loop is
*step-major* — an equivalent reordering of independent work that keeps
every result bit-identical.

Transport: the large state (the group's fused weights and the
optimisers' flat velocities, see :class:`~repro.nn.flat.FlatParamBuffer`)
moves through POSIX shared memory — one persistent segment per group,
written in place by both sides — while the small state (RNG streams,
EMA observers, learning rates) rides the task pickle.

Workers keep a replica cache keyed by ``seed_offset``: the model is
built once per (worker, group) and every epoch only overwrites its
state, so steady-state per-epoch overhead is the state copy itself.

Worker-side telemetry: each task runs against a private
:class:`~repro.telemetry.MetricsRegistry` and returns its counter
totals; the executor replays them into the main registry.  Counters
recorded inside ``train_batch`` are integer-valued (sample counts,
merge counts), so replaying per-group sums instead of interleaved
per-step increments produces the exact same float totals — and
``MetricsRegistry.collect()`` sorts series by name, so creation order
never leaks into the exported JSONL either.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import numpy as np

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:                                     # pragma: no cover
    _shared_memory = None

from ..core.mixed_precision import GroupMixedTrainer
from ..quant.mixed import MixedPrecisionController
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..telemetry.metrics import MetricsRegistry

__all__ = ["LgExecutor"]


# ----------------------------------------------------------------------
# Runtime-state packing: live float32 arrays + a small picklable dict
# ----------------------------------------------------------------------
def _arrays(trainer: GroupMixedTrainer) -> "list[np.ndarray]":
    """The group's large state, in transport order: its fused weights,
    then each replica's momentum (when it has any).  The INT8 twin's
    weights are the FP32 ones, loaded before every INT8 use."""
    arrays = [trainer.fp32.flatten_parameters().data]
    optimizers = [trainer.fp32_opt]
    if trainer.int8 is not None:
        optimizers.append(trainer.int8.optimizer)
    arrays += [optimizer._velocity for optimizer in optimizers
               if optimizer._velocity is not None]
    return arrays


def _pack_small(trainer: GroupMixedTrainer) -> dict:
    """Everything RNG/EMA-sized: learning rates, generator states and
    the INT8 observers."""
    small = {
        "fp32_lr": trainer.fp32_opt.lr,
        "fp32_rngs": GroupMixedTrainer._module_rng_states(trainer.fp32),
        "int8": None,
    }
    int8 = trainer.int8
    if int8 is not None:
        small["int8"] = {
            "lr": int8.optimizer.lr,
            "rng": int8.rng.bit_generator.state,
            "input_ema": int8._input_observer._ema,
            "activation_emas": [o._ema for o in int8._activation_observers()],
            "rngs": GroupMixedTrainer._module_rng_states(int8.model),
        }
    return small


def _load_group(trainer: GroupMixedTrainer, small: dict, views) -> None:
    """Inverse of :func:`_arrays` + :func:`_pack_small`: copy the
    state into ``trainer``."""
    for array, view in zip(_arrays(trainer), views):
        array[...] = view
    trainer.fp32_opt.lr = small["fp32_lr"]
    GroupMixedTrainer._load_module_rng_states(trainer.fp32,
                                              small["fp32_rngs"])
    int8_small = small["int8"]
    if trainer.int8 is not None and int8_small is not None:
        int8 = trainer.int8
        int8.optimizer.lr = int8_small["lr"]
        int8.rng.bit_generator.state = int8_small["rng"]
        int8._input_observer._ema = int8_small["input_ema"]
        for observer, ema in zip(int8._activation_observers(),
                                 int8_small["activation_emas"]):
            observer._ema = ema
        GroupMixedTrainer._load_module_rng_states(int8.model,
                                                  int8_small["rngs"])


def _store_group(trainer: GroupMixedTrainer, views) -> None:
    """Copy the group's large state out into ``views``."""
    for view, array in zip(views, _arrays(trainer)):
        view[...] = array


def _segments(buf, sizes):
    """Consecutive float32 views over a shared-memory buffer."""
    views, offset = [], 0
    for n in sizes:
        views.append(np.ndarray((n,), dtype=np.float32, buffer=buf,
                                offset=offset * 4))
        offset += n
    return views


def _counter_deltas(registry: MetricsRegistry) -> list:
    """Extract (name, labels, total) for every series of a worker-local
    registry.  Only counters may appear: anything order- or
    distribution-sensitive (gauges, histograms) cannot be replayed
    without changing the export, so its appearance is a hard error."""
    deltas = []
    for (name, labels), metric in registry._metrics.items():
        if metric.kind != "counter":
            raise TypeError(
                f"worker recorded non-counter metric {name!r} ({metric.kind});"
                " only counters can merge across processes")
        deltas.append((name, labels, metric.value))
    return deltas


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_WORKER: dict = {}


def _init_worker(config, quant, precision, t_cpu, t_npu,
                 metrics_enabled) -> None:
    _WORKER.update(config=config, quant=quant, precision=precision,
                   t_cpu=t_cpu, t_npu=t_npu, metrics=metrics_enabled,
                   replicas={}, arena=None)


def _replica(seed_offset: int) -> GroupMixedTrainer:
    trainer = _WORKER["replicas"].get(seed_offset)
    if trainer is None:
        controller = MixedPrecisionController(_WORKER["t_cpu"],
                                              _WORKER["t_npu"])
        trainer = GroupMixedTrainer(_WORKER["config"], controller,
                                    _WORKER["quant"],
                                    seed_offset=seed_offset,
                                    precision=_WORKER["precision"],
                                    arena=_WORKER["arena"],
                                    init_weights=False)
        # one step arena per worker process (its replicas run one task
        # at a time): the first replica's.  Every task loads the
        # group's full state before stepping, so no replica draws
        # initial weights.
        _WORKER["arena"] = trainer.arena
        _WORKER["replicas"][seed_offset] = trainer
    return trainer


def _run_task(task):
    """Run one group's whole epoch inside a worker process."""
    (seed_offset, small, shm_name, sizes, idx, steps, group_batch,
     alpha) = task
    trainer = _replica(seed_offset)
    trainer.controller.alpha = alpha
    registry = None
    if _WORKER["metrics"]:
        registry = MetricsRegistry()
        trainer.telemetry = Telemetry(metrics=registry)
    else:
        trainer.telemetry = NULL_TELEMETRY
    # Attaching by name does not register with the resource tracker
    # (only create=True does), so the parent stays the sole owner of
    # the unlink.
    shm = _shared_memory.SharedMemory(name=shm_name)
    views = _segments(shm.buf, sizes)
    try:
        _load_group(trainer, small, views)
        data = _WORKER["config"].task
        for step in range(steps):
            sl = idx[step * group_batch:(step + 1) * group_batch]
            trainer.train_batch(data.x_train[sl], data.y_train[sl])
        _store_group(trainer, views)
        deltas = _counter_deltas(registry) if registry is not None else []
        return _pack_small(trainer), deltas
    finally:
        views = None            # drop buffer exports before close()
        shm.close()


# ----------------------------------------------------------------------
# Main side
# ----------------------------------------------------------------------
class LgExecutor:
    """Persistent worker pool running logical-group epochs in parallel.

    Falls back to reporting ``parallel == False`` (callers then keep
    the sequential loop) when fewer than two workers are requested or
    the platform lacks fork-style multiprocessing or POSIX shared
    memory.
    """

    def __init__(self, config, quant, precision: str,
                 t_cpu: float, t_npu: float, telemetry=None,
                 workers: int = 1):
        self.workers = max(1, int(workers))
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._pool = None
        self._slots: dict[int, object] = {}
        if self.workers > 1 and _shared_memory is not None:
            shipped = replace(config, telemetry=None)
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:                          # pragma: no cover
                return
            # Start the resource tracker *before* forking so every
            # worker inherits it: a worker that lazily spawned its own
            # tracker would try to clean up (unlink) segments the
            # parent still owns when the pool shuts down.
            try:
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
            except Exception:                           # pragma: no cover
                pass
            self._pool = ctx.Pool(
                self.workers, initializer=_init_worker,
                initargs=(shipped, quant, precision, t_cpu, t_npu,
                          self._telemetry.metrics.enabled))

    @property
    def parallel(self) -> bool:
        return self._pool is not None

    # ------------------------------------------------------------------
    def _slot(self, index: int, nfloats: int):
        slot = self._slots.get(index)
        if slot is not None and slot.size >= nfloats * 4:
            return slot
        if slot is not None:
            slot.close()
            slot.unlink()
        slot = _shared_memory.SharedMemory(create=True,
                                           size=max(4, nfloats * 4))
        self._slots[index] = slot
        return slot

    def run_epoch(self, groups, shards, steps: int, group_batch: int) -> None:
        """Run one epoch of every group concurrently, in place.

        Equivalent to the sequential step-major loop because groups
        share no mutable state within an epoch: the alpha/beta
        controller is read-only between sync points and each group's
        shard indices are fixed up front.
        """
        tasks = []
        for g, (trainer, shard) in enumerate(zip(groups, shards)):
            sizes = [int(a.size) for a in _arrays(trainer)]
            slot = self._slot(g, sum(sizes))
            _store_group(trainer, _segments(slot.buf, sizes))
            tasks.append((g, _pack_small(trainer), slot.name, sizes,
                          np.ascontiguousarray(shard), steps, group_batch,
                          trainer.controller.alpha))
        results = self._pool.map(_run_task, tasks, chunksize=1)
        metrics = self._telemetry.metrics
        for task, trainer, (small_out, deltas) in zip(tasks, groups,
                                                      results):
            _load_group(trainer, small_out,
                        _segments(self._slots[task[0]].buf, task[3]))
            if metrics.enabled:
                for name, labels, value in deltas:
                    metrics.counter(name, **dict(labels)).inc(value)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        for slot in self._slots.values():
            try:
                slot.close()
                slot.unlink()
            except Exception:                           # pragma: no cover
                pass
        self._slots.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
