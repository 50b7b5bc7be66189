"""Training-state checkpointing (the scheduler's preemption story).

SoCFlow checkpoints models on the SoCs' UFS storage so a user-load
surge can preempt training at any epoch and the job resumes in the next
idle window (§3).  :class:`TrainingCheckpoint` captures everything a
resume needs — model state, epoch cursor, accuracy history, controller
state — and round-trips through a single ``.npz`` file.  Its UFS write
is priced by the control board at paper scale
(:meth:`~repro.core.scheduler.GlobalScheduler.checkpoint`), not from
this host-scale state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["TrainingCheckpoint"]

_META_KEY = "__checkpoint_meta__"


@dataclass
class TrainingCheckpoint:
    """A resumable snapshot of one training job."""

    model_state: dict
    epoch: int
    accuracy_history: list = field(default_factory=list)
    alpha: float = 1.0
    rng_seed: int = 0
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the checkpoint as a compressed ``.npz`` archive."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "epoch": self.epoch,
            "accuracy_history": list(map(float, self.accuracy_history)),
            "alpha": float(self.alpha),
            "rng_seed": int(self.rng_seed),
            "meta": self.meta,
            "keys": list(self.model_state.keys()),
        }
        arrays = {f"tensor_{i}": np.asarray(value)
                  for i, value in enumerate(self.model_state.values())}
        arrays[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TrainingCheckpoint":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no checkpoint at {path}")
        with np.load(path) as archive:
            if _META_KEY not in archive:
                raise ValueError(f"{path} is not a SoCFlow checkpoint")
            meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            state = {key: archive[f"tensor_{i}"]
                     for i, key in enumerate(meta["keys"])}
        return cls(model_state=state, epoch=meta["epoch"],
                   accuracy_history=meta["accuracy_history"],
                   alpha=meta["alpha"], rng_seed=meta["rng_seed"],
                   meta=meta["meta"])
