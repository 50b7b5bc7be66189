"""Request arrival processes for the inference serving plane.

The paper's "millions of users" side stops being an aggregate busy
curve here: each region emits a non-homogeneous Poisson stream of
*individual inference requests* whose rate follows the tidal diurnal
shape (:class:`~repro.cluster.trace.TidalTrace`), optionally spiked by
flash crowds.  The idle-SoC signal the training scheduler harvests is
then *generated* by serving this traffic, not read off a canned trace.

Generation is by thinning with Poisson superposition: the diurnal base
stream is thinned against a constant ``peak_rps`` envelope, and every
flash crowd contributes an independent component at its *excess* rate
``(multiplier - 1) * base`` over its interval — so a 10x crowd does not
force a 10x envelope on the whole horizon.  All arrivals are drawn up
front for the full horizon, which makes the realisation a pure function
of the parameters and seed: scheduling-policy choices (round lengths,
check windows) can never perturb the workload they are being judged
against, and reruns are bit-identical.  The candidates are streamed:
drawn and thinned ``_THIN_CHUNK`` at a time, each draw at the position
in the generator's stream a whole-length draw would give it, so
generation holds two chunks and its output, never a candidate array.
Explicit times (:meth:`ArrivalProcess.from_times`) must lie inside the
horizon.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ..cluster.trace import TidalTrace

__all__ = ["FlashCrowd", "Region", "ArrivalProcess"]

#: thinning candidates drawn and evaluated per step: the two draw
#: buffers and the rate's temporaries, 16 Ki doubles each, stay in L2
#: (a flash day draws ~4 M candidates)
_THIN_CHUNK = 1 << 14


@dataclass(frozen=True)
class FlashCrowd:
    """A transient surge: rate multiplies by ``multiplier`` for a while.

    ``start_hour`` is absolute (same axis as the horizon, may exceed
    24); the surge holds for ``duration_hours`` then vanishes.
    """

    start_hour: float
    duration_hours: float
    multiplier: float

    def __post_init__(self):
        # a NaN hour would pass every comparison below and the clipping
        # in ``_generate``: the crowd would cover the whole horizon
        if not all(map(math.isfinite, (self.start_hour, self.duration_hours,
                                       self.multiplier))):
            raise ValueError("flash crowd needs finite hours and multiplier")
        if self.duration_hours <= 0:
            raise ValueError("flash crowd needs a positive duration")
        if self.multiplier <= 1.0:
            raise ValueError("flash crowd multiplier must exceed 1")

    @property
    def end_hour(self) -> float:
        return self.start_hour + self.duration_hours

    @classmethod
    def parse(cls, spec: str) -> "FlashCrowd":
        """``START:DUR:MULT`` (hours, hours, factor) -> crowd."""
        parts = spec.split(":") if isinstance(spec, str) else ()
        if len(parts) != 3:
            raise ValueError(
                f"bad flash-crowd spec {spec!r}; expected START:DUR:MULT")
        try:
            start, dur, mult = (float(p) for p in parts)
        except ValueError:
            raise ValueError(
                f"bad flash-crowd spec {spec!r}; expected three numbers"
            ) from None
        return cls(start, dur, mult)


@dataclass(frozen=True)
class Region:
    """One user population with its own diurnal phase and peak rate.

    ``phase_shift_hours`` moves the whole tidal shape later in the day
    (an eastern region peaks earlier -> negative shift), which is how a
    multi-region deployment flattens the aggregate valley.
    """

    name: str
    peak_rps: float
    phase_shift_hours: float = 0.0

    def __post_init__(self):
        if self.peak_rps <= 0:
            raise ValueError("peak_rps must be positive")


class ArrivalProcess:
    """Pre-generated request arrival times over a fixed horizon.

    Parameters
    ----------
    regions:
        The populations whose streams superpose.  A single
        ``Region("global", peak_rps)`` reproduces one tidal curve.
    flash_crowds:
        Surges applied to the *aggregate* rate (every region spikes
        together — the platform-wide launch/event case).
    start_hour, horizon_hours:
        Absolute window ``[start_hour, end_hour)`` the process covers:
        every arrival lies inside it.  Queries may reach past it (the
        serving plane forecasts its last window through
        :meth:`count_between` beyond the horizon) and count only the
        arrivals inside.
    """

    def __init__(self, regions: "list[Region]",
                 *, start_hour: float = 0.0, horizon_hours: float = 24.0,
                 trace: TidalTrace | None = None,
                 flash_crowds: "list[FlashCrowd] | None" = None,
                 seed: int = 0):
        if not regions:
            raise ValueError("need at least one region")
        if horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        self.regions = list(regions)
        self.flash_crowds = list(flash_crowds or [])
        self.start_hour = start_hour
        self.horizon_hours = horizon_hours
        self.trace = trace or TidalTrace(seed=seed)
        self.seed = seed
        self._arrivals = self._generate()

    # ------------------------------------------------------------------
    @classmethod
    def from_times(cls, times, *, start_hour: float = 0.0,
                   horizon_hours: float = 24.0,
                   trace: TidalTrace | None = None) -> "ArrivalProcess":
        """Wrap explicit arrival times (tests, replayed real traces).

        Raises ``ValueError`` on the first time that is not a finite
        hour inside ``[start_hour, start_hour + horizon_hours)``: the
        plane would never admit it, and count it nowhere.
        """
        times = np.asarray(times, dtype=float)
        end_hour = start_hour + horizon_hours
        outside = np.flatnonzero(~((times >= start_hour)
                                   & (times < end_hour)))
        if len(outside):
            raise ValueError(
                f"arrival time {float(times.flat[outside[0]])} (index "
                f"{outside[0]}) is not an hour in [{start_hour}, "
                f"{end_hour})")
        proc = cls.__new__(cls)
        proc.regions = []
        proc.flash_crowds = []
        proc.start_hour = start_hour
        proc.horizon_hours = horizon_hours
        proc.trace = trace or TidalTrace()
        proc.seed = 0
        proc._arrivals = np.sort(times)
        return proc

    # ------------------------------------------------------------------
    @property
    def end_hour(self) -> float:
        return self.start_hour + self.horizon_hours

    @property
    def arrivals_h(self) -> np.ndarray:
        """All arrival times (absolute hours), sorted ascending."""
        return self._arrivals

    def __len__(self) -> int:
        return len(self._arrivals)

    # ------------------------------------------------------------------
    def slice_h(self, t0: float, t1: float) -> np.ndarray:
        """Arrival times in ``[t0, t1)`` (absolute hours)."""
        lo = int(np.searchsorted(self._arrivals, t0, side="left"))
        hi = int(np.searchsorted(self._arrivals, t1, side="left"))
        return self._arrivals[lo:hi]

    def count_between(self, t0: float, t1: float) -> int:
        return len(self.slice_h(t0, t1))

    # ------------------------------------------------------------------
    # Generation (thinning + superposition)
    # ------------------------------------------------------------------
    def _generate(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        streams: list[np.ndarray] = []
        for region in self.regions:
            # the diurnal base component thins against the region's
            # peak; each flash crowd adds an independent excess
            # component at (multiplier - 1) x the base rate over its
            # interval, so the quiet hours never pay for the surge's
            # envelope
            components = [(1.0, self.start_hour, self.end_hour)] + [
                (crowd.multiplier - 1.0,
                 max(self.start_hour, crowd.start_hour),
                 min(self.end_hour, crowd.end_hour))
                for crowd in self.flash_crowds]
            for scale, t0, t1 in components:
                if t1 <= t0:
                    continue
                envelope = region.peak_rps * scale
                streams.append(self._thin(
                    rng, envelope_rps=envelope, t0=t0, t1=t1,
                    rate_fn=lambda h, r=region, e=envelope: (
                        e * self.trace.busy_ratio_array(
                            h - r.phase_shift_hours)
                        / self.trace.peak_busy)))
        merged = np.concatenate(streams)
        # finite, non-negative float64s: equal values are the same bits,
        # so any sort gives the stable sort's array (numpy's default is
        # the fastest one)
        merged.sort()
        return merged

    @staticmethod
    def _thin(rng, *, envelope_rps: float, t0: float, t1: float,
              rate_fn) -> np.ndarray:
        """One thinned Poisson component on ``[t0, t1)`` (hours).

        Candidates arrive homogeneously at ``envelope_rps``; each
        survives with probability ``rate(t) / envelope``.  The
        realisation is fixed by the stream position of every draw: the
        count, then the ``n`` (unsorted) uniform times, then the ``n``
        acceptance draws; ``_generate``'s merge sort orders the
        survivors.  Both are drawn ``_THIN_CHUNK`` at a time into two
        reused buffers — the acceptance draws from a copy of ``rng``
        advanced past the ``n`` times, whose end state ``rng`` takes
        back — so the working set is two chunks and the survivors, not
        two candidate arrays, and every value and the generator's end
        state equal the one-shot formula's bit for bit.
        """
        hours = t1 - t0
        n = int(rng.poisson(envelope_rps * 3600.0 * hours))
        accept_rng = copy.deepcopy(rng)
        accept_rng.bit_generator.advance(n)
        times = np.empty(min(n, _THIN_CHUNK))
        accept = np.empty_like(times)
        survivors = [np.empty(0)]
        for lo in range(0, n, _THIN_CHUNK):
            size = min(_THIN_CHUNK, n - lo)
            chunk = rng.random(out=times[:size])
            chunk *= hours
            chunk += t0
            keep = accept_rng.random(out=accept[:size])
            keep *= envelope_rps
            survivors.append(chunk[keep < rate_fn(chunk)])
        rng.bit_generator.state = accept_rng.bit_generator.state
        return np.concatenate(survivors)
