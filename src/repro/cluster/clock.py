"""Simulated wall clock with named-phase accounting.

Every distributed strategy advances one shared :class:`PhaseClock`;
the per-phase totals are exactly the Compute / Sync / Update breakdown
of Figure 12, and the final :attr:`now` is the end-to-end training time
of Figures 8 and 10.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["PhaseClock"]


class PhaseClock:
    """Accumulates simulated seconds, attributed to named phases."""

    def __init__(self):
        self.now = 0.0
        self.phase_totals: dict[str, float] = defaultdict(float)
        #: the attributed (hidden-under-compute) share of each phase —
        #: a subset of :attr:`phase_totals`, never part of :attr:`now`
        self.attributed_totals: dict[str, float] = defaultdict(float)

    def advance(self, seconds: float, phase: str) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self.now += seconds
        self.phase_totals[phase] += seconds

    def attribute(self, seconds: float, phase: str) -> None:
        """Credit busy time to a phase *without* advancing the wall clock.

        Used for synchronisation that is overlapped (hidden) under
        compute: the network is busy — and Figure 12's breakdown counts
        it — but no wall time elapses beyond the compute window.
        """
        if seconds < 0:
            raise ValueError(f"cannot attribute negative time {seconds}")
        self.phase_totals[phase] += seconds
        self.attributed_totals[phase] += seconds

    def breakdown(self) -> dict[str, float]:
        """Phase → seconds, in insertion order."""
        return dict(self.phase_totals)

    def attributed_breakdown(self) -> dict[str, float]:
        """Phase → hidden seconds (the overlapped share of the totals)."""
        return dict(self.attributed_totals)
