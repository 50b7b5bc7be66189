"""Logical-group count selection (§3.1, "Determining group size").

Two tools:

- :func:`epoch_time_model` — Eq. 1 of the paper: per-epoch time as a
  function of the group count ``N``; monotonically decreasing in ``N``
  (more groups = more parallel epochs-worth of data per unit time).
- :func:`select_group_count` — the paper's heuristic: train *one epoch*
  at increasing group counts and stop at the first count whose
  first-epoch accuracy falls more than :data:`DROP_THRESHOLD` (~15%)
  below the best observed, because first-epoch accuracy closely mirrors
  convergence accuracy (Figure 6).
"""

from __future__ import annotations

__all__ = ["epoch_time_model", "select_group_count", "survivor_group_count",
           "allocation_group_count"]

#: the first-epoch accuracy drop that halts the warm-up scan (paper: ~15%)
DROP_THRESHOLD = 0.15


def select_group_count(profile: dict[int, float]) -> int:
    """The warm-up heuristic: largest N whose first-epoch accuracy holds.

    Scans candidates small→large and halts at the first count whose
    first-epoch accuracy drops by more than :data:`DROP_THRESHOLD`
    relative to the best seen so far; returns the previous (last good)
    count.
    """
    if not profile:
        raise ValueError("empty accuracy profile")
    candidates = sorted(profile)
    best_seen = profile[candidates[0]]
    chosen = candidates[0]
    for n in candidates:
        accuracy = profile[n]
        best_seen = max(best_seen, accuracy)
        if accuracy < best_seen * (1.0 - DROP_THRESHOLD):
            break
        chosen = n
    return chosen


def allocation_group_count(num_allocated: int, target_group_size: int,
                           max_groups: int | None = None) -> int:
    """Re-run Eq. 1's group sizing for an elastic job allocation.

    The accuracy-admissible group size is fixed by the job's warm-up
    (``target_group_size``); Eq. 1 is monotone decreasing in N, so the
    fastest admissible choice on ``num_allocated`` SoCs is the largest
    N keeping groups at or above that size: ``num_allocated //
    target_group_size``, clamped to at least one group, at most one
    group per SoC, and optionally to ``max_groups``.  Unlike
    :func:`survivor_group_count` this re-grows the group count when an
    elastic scheduler hands the job *more* SoCs than it had before.
    """
    if num_allocated <= 0:
        raise ValueError("need at least one allocated SoC")
    if target_group_size <= 0:
        raise ValueError("target_group_size must be positive")
    count = max(1, min(num_allocated // target_group_size, num_allocated))
    if max_groups is not None:
        count = max(1, min(count, max_groups))
    return count


def survivor_group_count(num_alive: int, prev_num_groups: int,
                         prev_num_socs: int) -> int:
    """Re-run Eq. 1's group sizing after SoCs die (or rejoin).

    The warm-up heuristic established that groups of size
    ``prev_num_socs / prev_num_groups`` are accuracy-admissible; Eq. 1
    is monotone decreasing in N, so the fastest admissible choice on
    the shrunken cluster is the largest N that keeps the group size at
    or above that bound: ``floor(num_alive / group_size)``, clamped to
    at least one group and at most one group per survivor.
    """
    if num_alive <= 0:
        raise ValueError("need at least one surviving SoC")
    if prev_num_groups <= 0 or prev_num_socs <= 0:
        raise ValueError("previous group count and SoC count must be positive")
    group_size = max(1, prev_num_socs // prev_num_groups)
    return max(1, min(num_alive // group_size, num_alive, prev_num_groups))


def epoch_time_model(num_samples: int, num_groups: int, group_batch: int,
                     t_train_group_batch: float, t_sync: float,
                     num_socs: int) -> float:
    """Eq. 1: ``T_epoch = NUM/(N*BS_g) * (T_train^{BS_g} * N/M + T_sync)``.

    ``t_train_group_batch`` is the time for one SoC to train ``group_batch``
    samples; within a group of ``M/N`` SoCs that work is divided, hence
    the ``N/M`` factor.
    """
    if min(num_samples, num_groups, group_batch, num_socs) <= 0:
        raise ValueError("all sizes must be positive")
    steps = num_samples / (num_groups * group_batch)
    per_step = (t_train_group_batch * num_groups / num_socs) + t_sync
    return steps * per_step
