"""Arrival-process tests: diurnal shape, flash crowds, determinism."""

import numpy as np
import pytest

from repro.serving import ArrivalProcess, FlashCrowd, Region


def process(**kw):
    kw.setdefault("start_hour", 0.0)
    kw.setdefault("horizon_hours", 24.0)
    kw.setdefault("seed", 0)
    return ArrivalProcess([Region("global", kw.pop("peak_rps", 2.0))], **kw)


class TestFlashCrowd:
    def test_parse(self):
        crowd = FlashCrowd.parse("20:1.5:4")
        assert crowd.start_hour == 20.0
        assert crowd.duration_hours == 1.5
        assert crowd.multiplier == 4.0
        assert crowd.end_hour == 21.5

    @pytest.mark.parametrize("spec", ["20:1", "a:b:c", "20:1:4:9", ""])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            FlashCrowd.parse(spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            FlashCrowd(0.0, 1.0, 1.0)


class TestRegion:
    def test_positive_rate_required(self):
        with pytest.raises(ValueError):
            Region("r", 0.0)


class TestGeneration:
    def test_arrivals_sorted_and_in_horizon(self):
        proc = process(start_hour=6.0, horizon_hours=12.0)
        times = proc.arrivals_h
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 6.0
        assert times.max() < 18.0

    def test_deterministic_across_instances(self):
        a = process(peak_rps=5.0, seed=11)
        b = process(peak_rps=5.0, seed=11)
        assert np.array_equal(a.arrivals_h, b.arrivals_h)

    def test_seed_changes_realisation(self):
        a = process(seed=0)
        b = process(seed=1)
        assert not np.array_equal(a.arrivals_h, b.arrivals_h)

    def test_follows_diurnal_shape(self):
        proc = process(peak_rps=10.0)
        day = proc.count_between(12.0, 16.0)
        night = proc.count_between(2.0, 6.0)
        assert day > 5 * max(night, 1)

    def test_flash_crowd_multiplies_rate(self):
        base = process(peak_rps=10.0)
        crowd = process(peak_rps=10.0,
                        flash_crowds=[FlashCrowd(13.0, 1.0, 4.0)])
        in_base = base.count_between(13.0, 14.0)
        in_crowd = crowd.count_between(13.0, 14.0)
        # 4x rate -> ~4x arrivals inside the surge...
        assert in_crowd > 2.5 * in_base
        # ...and an identical realisation outside it (superposed
        # component, not a re-thinned stream)
        assert np.array_equal(base.slice_h(15.0, 20.0),
                              crowd.slice_h(15.0, 20.0))

    def test_regions_superpose(self):
        one = ArrivalProcess([Region("a", 4.0)], seed=3)
        two = ArrivalProcess([Region("a", 4.0), Region("b", 4.0)], seed=3)
        assert len(two) > 1.5 * len(one)

    def test_phase_shift_moves_peak(self):
        shifted = ArrivalProcess([Region("east", 10.0,
                                         phase_shift_hours=6.0)], seed=0)
        # the tidal peak (14:00) lands at 20:00 for a +6 h region
        assert shifted.count_between(19.0, 21.0) \
            > 2 * shifted.count_between(13.0, 15.0)

    def test_rate_rps_flash_additive(self):
        proc = process(peak_rps=10.0,
                       flash_crowds=[FlashCrowd(14.0, 1.0, 3.0)])
        base = process(peak_rps=10.0)
        assert proc.rate_rps(14.5) == pytest.approx(
            3.0 * base.rate_rps(14.5))
        assert proc.rate_rps(16.0) == pytest.approx(base.rate_rps(16.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalProcess([], seed=0)
        with pytest.raises(ValueError):
            process(horizon_hours=0.0)


class TestQueries:
    def test_slice_and_count_agree(self):
        proc = process(peak_rps=5.0)
        assert len(proc.slice_h(10.0, 12.0)) \
            == proc.count_between(10.0, 12.0)

    def test_from_times(self):
        proc = ArrivalProcess.from_times([3.0, 1.0, 2.0],
                                         horizon_hours=4.0)
        assert list(proc.arrivals_h) == [1.0, 2.0, 3.0]
        assert proc.count_between(0.0, 2.5) == 2


class TestChunkedThinning:
    """``_thin`` evaluates the rate chunk by chunk; every operation is
    element-wise, so it must equal the one-shot formula bit for bit."""

    @staticmethod
    def one_shot(rng, *, envelope_rps, t0, t1, rate_fn):
        hours = t1 - t0
        n = int(rng.poisson(envelope_rps * 3600.0 * hours))
        if n == 0:
            return np.empty(0)
        times = t0 + rng.random(n) * hours
        keep = rng.random(n) * envelope_rps < rate_fn(times)
        return times[keep]

    def test_chunk_boundaries(self, monkeypatch):
        from repro.cluster.trace import TidalTrace
        from repro.serving import arrivals
        trace = TidalTrace()
        component = dict(
            envelope_rps=0.3, t0=7.5, t1=19.0,
            rate_fn=lambda h: 0.3 * trace.busy_ratio_array(h - 1.5)
            / trace.peak_busy)
        n = int(np.random.default_rng(6).poisson(0.3 * 3600.0 * 11.5))
        expected = self.one_shot(np.random.default_rng(6), **component)
        assert 0 < len(expected) < n and n % 1000
        # candidate count below the chunk, equal to it, an exact
        # multiple of it (7 | n) and not a multiple of it
        assert n % 7 == 0
        for chunk in (n + 5, n, n // 7, 1000):
            monkeypatch.setattr(arrivals, "_THIN_CHUNK", chunk)
            got = ArrivalProcess._thin(np.random.default_rng(6), **component)
            assert np.array_equal(got, expected), chunk

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generation_matches_one_shot(self, seed, monkeypatch):
        """Whole realisations: phase-shifted regions and overlapping
        flash crowds, with components longer than one chunk."""
        kwargs = dict(
            regions=[Region("east", 9.0, phase_shift_hours=-3.0),
                     Region("west", 6.0, phase_shift_hours=4.5)],
            start_hour=6.0, horizon_hours=30.0, seed=seed,
            flash_crowds=[FlashCrowd(13.0, 2.0, 3.0),
                          FlashCrowd(14.0, 0.5, 2.0),
                          FlashCrowd(40.0, 1.0, 2.0)])
        chunked = ArrivalProcess(**kwargs).arrivals_h
        monkeypatch.setattr(ArrivalProcess, "_thin",
                            staticmethod(self.one_shot))
        assert np.array_equal(chunked, ArrivalProcess(**kwargs).arrivals_h)
        assert len(chunked) > 2 * (1 << 16)
