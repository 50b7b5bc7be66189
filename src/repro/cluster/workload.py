"""User-workload (cloud gaming) session simulation — the Figure 1 story.

The SoC-Cluster's day job is serving user-triggered sessions (cloud
gaming, live streaming).  :class:`SessionSimulator` generates session
arrivals from a non-homogeneous Poisson process whose rate follows the
tidal trace, assigns sessions to SoCs, and exposes the resulting busy
timeline.  :func:`derive_training_events` converts a planned overnight
training window into the preemption events SoCFlow must absorb when
users show up early — closing the loop between the trace model, the
scheduler and the training engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import ClusterTopology
from .trace import TidalTrace

__all__ = ["PreemptionEvent", "Session", "SessionIndex", "SessionSimulator",
           "derive_training_events"]


@dataclass(frozen=True)
class PreemptionEvent:
    """User load returns at the start of ``epoch``: drop ``num_groups``."""

    epoch: int
    num_groups: int = 1


@dataclass(frozen=True)
class Session:
    """One user session pinned to one SoC."""

    soc: int
    start_hour: float
    duration_hours: float

    @property
    def end_hour(self) -> float:
        return self.start_hour + self.duration_hours


class SessionIndex:
    """Sorted-interval index over a session list for occupancy queries.

    The naive queries rescan the whole session list per lookup
    (O(N·S) for a busy curve); once occupancy is queried at request
    resolution by the serving plane and the co-scheduler that rescan is
    a hot path.  The index sorts the intervals once and answers

    - :meth:`busy_socs_at` with one vectorised interval-stabbing pass
      over contiguous arrays (no Python attribute walks), and
    - :meth:`counts_at` with an event sweep: arrival/departure times are
      pre-sorted, so each query is two binary searches.

    Sessions are immutable, so the index never invalidates; build it
    once per session list and query freely.
    """

    def __init__(self, sessions: "list[Session]"):
        self._n = len(sessions)
        self._starts = np.array([s.start_hour for s in sessions])
        self._ends = np.array([s.end_hour for s in sessions])
        self._socs = np.array([s.soc for s in sessions], dtype=np.int64)
        # event sweep arrays: every interval edge in time order
        self._sorted_starts = np.sort(self._starts)
        self._sorted_ends = np.sort(self._ends)

    def __len__(self) -> int:
        return self._n

    def busy_socs_at(self, hour: float) -> "set[int]":
        """SoCs with a live session at ``hour`` (same predicate as the
        original scan: ``start <= hour < end``)."""
        if self._n == 0:
            return set()
        mask = (self._starts <= hour) & (hour < self._ends)
        return set(self._socs[mask].tolist())

    def busy_count_at(self, hour: float) -> int:
        """Number of live sessions at ``hour`` via the event sweep.

        Sessions never overlap on one SoC, so this equals the busy-SoC
        count.
        """
        started = int(np.searchsorted(self._sorted_starts, hour,
                                      side="right"))
        ended = int(np.searchsorted(self._sorted_ends, hour, side="right"))
        return started - ended

    def counts_at(self, hours: np.ndarray) -> np.ndarray:
        """Busy counts for many query times at once (O(H log N))."""
        hours = np.asarray(hours)
        started = np.searchsorted(self._sorted_starts, hours, side="right")
        ended = np.searchsorted(self._sorted_ends, hours, side="right")
        return started - ended

    def idle_socs_at(self, hour: float, num_socs: int) -> "list[int]":
        busy = self.busy_socs_at(hour)
        return [s for s in range(num_socs) if s not in busy]


class SessionSimulator:
    """Poisson session arrivals whose rate follows the tidal curve.

    Parameters
    ----------
    peak_sessions_per_hour:
        Arrival rate at the busiest moment; scaled down by the trace's
        busy ratio elsewhere.
    mean_session_hours:
        Exponential session-length mean (cloud-gaming sessions run tens
        of minutes).
    """

    def __init__(self, topology: ClusterTopology,
                 trace: TidalTrace | None = None,
                 peak_sessions_per_hour: float = 120.0,
                 mean_session_hours: float = 0.75,
                 seed: int = 0):
        self.topology = topology
        self.trace = trace or TidalTrace(seed=seed)
        self.peak_rate = peak_sessions_per_hour
        self.mean_session_hours = mean_session_hours
        self._rng = np.random.default_rng(seed)
        #: arrivals dropped at saturation by the most recent
        #: :meth:`simulate_day` call.  Overload used to be invisible —
        #: saturated arrivals silently vanished; now callers can report
        #: them (``serving.dropped_sessions`` in the metrics registry).
        self.dropped_sessions = 0

    # ------------------------------------------------------------------
    def simulate_day(self, resolution_hours: float = 0.1) -> list[Session]:
        """Generate one day of sessions via thinning.

        Sessions land on the lowest-numbered free SoC; arrivals beyond
        capacity are dropped (the real platform load-balances to other
        servers) and counted in :attr:`dropped_sessions` so overload is
        observable.
        """
        sessions: list[Session] = []
        free_at = np.zeros(self.topology.num_socs)
        steps = int(round(24.0 / resolution_hours))
        peak_busy = self.trace.peak_busy
        dropped = 0
        for i in range(steps):
            hour = i * resolution_hours
            rate = (self.peak_rate * self.trace.busy_ratio(hour)
                    / peak_busy)
            arrivals = self._rng.poisson(rate * resolution_hours)
            for _ in range(arrivals):
                soc = int(np.argmin(free_at))
                if free_at[soc] > hour:
                    dropped += 1  # saturated: drop, but make it visible
                    continue
                duration = float(self._rng.exponential(
                    self.mean_session_hours))
                sessions.append(Session(soc, hour, duration))
                free_at[soc] = hour + duration
        self.dropped_sessions = dropped
        return sessions

    # ------------------------------------------------------------------
    @staticmethod
    def busy_socs_at(sessions: list[Session], hour: float) -> set[int]:
        return SessionIndex(sessions).busy_socs_at(hour)

    def idle_socs_at(self, sessions: list[Session],
                     hour: float) -> list[int]:
        """SoCs free for training at ``hour``, in id order.

        The complement of :meth:`busy_socs_at` over the topology; the
        list is sorted so schedulers iterating it stay deterministic.
        At peak load this is legitimately *empty* — a training job must
        then stay queued rather than plan an empty logical group.
        """
        return self._index_for(sessions).idle_socs_at(
            hour, self.topology.num_socs)

    def busy_curve(self, sessions: list[Session],
                   resolution_hours: float = 0.25) -> tuple[np.ndarray,
                                                            np.ndarray]:
        """(hours, busy fraction) — the simulated counterpart of Fig 3.

        One event sweep over the sorted interval edges instead of a
        rescan per sample: O((N + H) log N) for the whole curve.
        """
        hours = np.arange(0.0, 24.0, resolution_hours)
        index = self._index_for(sessions)
        busy = index.counts_at(hours) / self.topology.num_socs
        return hours, busy

    def _index_for(self, sessions: "list[Session]") -> SessionIndex:
        """Memoise the index of the last-queried session list (sessions
        are immutable, so identity + length is a safe cache key)."""
        cached = getattr(self, "_index_cache", None)
        if cached is not None and cached[0] == id(sessions) \
                and cached[1] == len(sessions):
            return cached[2]
        index = SessionIndex(sessions)
        self._index_cache = (id(sessions), len(sessions), index)
        return index


def derive_training_events(sessions: list[Session],
                           window_start_hour: float,
                           epoch_hours: float,
                           max_epochs: int,
                           socs_per_group: int,
                           idle_socs: int) -> list[PreemptionEvent]:
    """Plan preemptions for a training job inside an idle window.

    The job starts at ``window_start_hour`` with ``idle_socs`` chips.
    Whenever new sessions claim enough previously-idle SoCs to exhaust
    a logical group's worth of capacity, one group is preempted at the
    next epoch boundary.

    A window too busy to host even one logical group (``idle_socs <
    socs_per_group`` — the zero-idle case included) returns no events:
    nothing was ever planned, so there is nothing to preempt.  Callers
    (e.g. the :mod:`repro.jobs` scheduler) must keep such a job queued
    instead of starting it — an empty logical group is never planned.
    """
    if socs_per_group <= 0 or epoch_hours <= 0:
        raise ValueError("socs_per_group and epoch_hours must be positive")
    if idle_socs < 0:
        raise ValueError("idle_socs must be non-negative")
    if idle_socs < socs_per_group:
        return []
    events: list[PreemptionEvent] = []
    index = SessionIndex(sessions)
    baseline = index.busy_count_at(window_start_hour)
    claimed_groups = 0
    for epoch in range(max_epochs):
        hour = (window_start_hour + (epoch + 1) * epoch_hours) % 24.0
        busy_now = index.busy_count_at(hour)
        surge = max(0, busy_now - baseline)
        groups_needed = min(surge // socs_per_group,
                            idle_socs // socs_per_group - claimed_groups)
        if groups_needed > claimed_groups:
            events.append(PreemptionEvent(
                epoch=epoch + 1,
                num_groups=groups_needed - claimed_groups))
            claimed_groups = groups_needed
    return events
