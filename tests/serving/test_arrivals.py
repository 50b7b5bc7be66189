"""Arrival-process tests: diurnal shape, flash crowds, determinism.

``DIGESTS`` are sha-256 digests of ``arrivals_h`` recorded before the
thinning was streamed chunk by chunk; regenerate them with
``PYTHONPATH=src python tests/serving/test_arrivals.py`` — and say in
CHANGES.md which moved and why.
"""

import hashlib

import numpy as np
import pytest

from repro.serving import ArrivalProcess, FlashCrowd, Region

#: a flash day as the serving benchmark generates it
FLASH_DAY = dict(regions=[Region("global", 48.0)], start_hour=0.0,
                 horizon_hours=24.0,
                 flash_crowds=[FlashCrowd(20.0, 1.5, 1.8)])

#: name -> ArrivalProcess keyword arguments
GENERATION_CASES = {
    "flash_day/seed0": dict(FLASH_DAY, seed=0),
    "flash_day/seed1": dict(FLASH_DAY, seed=1),
    "two_regions": dict(
        regions=[Region("east", 9.0, phase_shift_hours=-3.0),
                 Region("west", 6.0, phase_shift_hours=4.5)], seed=2),
    "overlapping_crowds": dict(
        regions=[Region("global", 5.0)], seed=3,
        flash_crowds=[FlashCrowd(13.0, 2.0, 3.0),
                      FlashCrowd(14.0, 0.5, 2.0)]),
    "past_24h": dict(
        regions=[Region("global", 4.0)], start_hour=6.0,
        horizon_hours=30.0, seed=4, flash_crowds=[FlashCrowd(40.0, 1.0, 2.0)]),
    # the crowd's excess expects 7e-9 candidates: it draws none
    "zero_candidates": dict(
        regions=[Region("global", 2.0)], seed=5,
        flash_crowds=[FlashCrowd(5.0, 1e-6, 1.000001)]),
    # the base component's Poisson draw is 131072 = 2**17 candidates
    "chunk_multiple": dict(
        regions=[Region("global", 131072 / 3600.0)], horizon_hours=1.0,
        seed=1237),
}

DIGESTS = {
    "flash_day/seed0":
        "307011130c1fef0299d721239548ea00b9afe896eaf8d03007bbfb8df15ffd7c",
    "flash_day/seed1":
        "41f0ab8a12d98c67cd30579699ad328f3ec727dd6185b92ddfb27f6f412c3ba7",
    "two_regions":
        "f75323e7c626ce612c01a4111e2a372a60b3ab6633910eb317467526845fd65f",
    "overlapping_crowds":
        "c3697b1e3a7f48dd7ede1dd492a6365a41d5b1a9bbaf723e6efe64e5d26054d5",
    "past_24h":
        "f1d4ee68a85e10fe3ba4784eb8f66b91ea9e85a1be55fd95284caee80b6e1e7c",
    "zero_candidates":
        "4b1e869cd726322ac567b1f7884406b842a525489416a55f21e66d3e4b68dc57",
    "chunk_multiple":
        "a92877cc27b26b0849644fe7725d75c3f94d8f4ddf552949760dad9524b9c841",
}


def generation_digest(name: str) -> str:
    arrivals = ArrivalProcess(**GENERATION_CASES[name]).arrivals_h
    sha = hashlib.sha256(str((arrivals.dtype, arrivals.shape)).encode())
    sha.update(arrivals.tobytes())
    return sha.hexdigest()


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

    @pytest.mark.parametrize("spec", ["nan:1:2", "0:inf:2", "0:1:nan",
                                      "-inf:1:2"])
    def test_non_finite_fields_rejected(self, spec):
        """A NaN start passed every comparison and the interval
        clipping, so the crowd covered the whole horizon."""
        with pytest.raises(ValueError, match="finite"):
            FlashCrowd.parse(spec)


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

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"), 5.0, 1.0, -0.5])
    def test_from_times_rejects_hostile_times(self, bad):
        """A time the plane can never admit would vanish uncounted:
        named in the error instead (the first of them)."""
        with pytest.raises(ValueError, match=f"arrival time {bad} "
                                             r"\(index 1\)"):
            ArrivalProcess.from_times([0.1, bad, float("nan")],
                                      horizon_hours=1.0)
        with pytest.raises(ValueError, match=r"\[2\.0, 3\.0\)"):
            ArrivalProcess.from_times([1.5], start_hour=2.0,
                                      horizon_hours=1.0)
        assert len(ArrivalProcess.from_times(
            [2.0, np.nextafter(3.0, 0.0)], start_hour=2.0,
            horizon_hours=1.0)) == 2

    def test_queries_past_the_horizon_count_what_is_inside(self):
        proc = ArrivalProcess.from_times([0.5, 3.5], horizon_hours=4.0)
        assert proc.count_between(3.0, 6.0) == 1
        assert proc.count_between(4.0, 5.0) == 0
        assert proc.count_between(-2.0, 1.0) == 1


class TestChunkedThinning:
    """``_thin`` draws and evaluates chunk by chunk, every draw at its
    one-shot stream position and every operation element-wise, so it
    must equal the one-shot formula bit for bit."""

    @staticmethod
    def one_shot(rng, *, envelope_rps, t0, t1, rate_fn):
        hours = t1 - t0
        n = int(rng.poisson(envelope_rps * 3600.0 * hours))
        if n == 0:
            return np.empty(0)
        times = t0 + rng.random(n) * hours
        keep = rng.random(n) * envelope_rps < rate_fn(times)
        return times[keep]

    def test_generator_ends_where_the_one_shot_formula_leaves_it(self):
        """Every draw sits at the one-shot stream position, so the
        generator the next component draws from is in the same state."""
        from repro.cluster.trace import TidalTrace
        trace = TidalTrace()
        for envelope in (0.3, 3.0, 1e-9):
            component = dict(
                envelope_rps=envelope, t0=2.0, t1=9.0,
                rate_fn=lambda h, e=envelope: e * trace.busy_ratio_array(h)
                / trace.peak_busy)
            chunked, reference = (np.random.default_rng(9),
                                  np.random.default_rng(9))
            got = ArrivalProcess._thin(chunked, **component)
            assert np.array_equal(got, self.one_shot(reference, **component))
            assert chunked.bit_generator.state == \
                reference.bit_generator.state
            assert chunked.random() == reference.random()

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


@pytest.mark.parametrize("name", sorted(GENERATION_CASES))
def test_realisations_keep_their_digests(name):
    assert generation_digest(name) == DIGESTS[name]


def test_digest_cases_reach_the_chunk_corners():
    """``zero_candidates`` has a component that draws none and
    ``chunk_multiple`` one whose count is an exact multiple of the
    chunk."""
    from repro.serving import arrivals
    crowd = GENERATION_CASES["zero_candidates"]["flash_crowds"][0]
    excess = 2.0 * (crowd.multiplier - 1.0) * 3600.0 * crowd.duration_hours
    assert excess < 1e-8
    case = GENERATION_CASES["chunk_multiple"]
    n = int(np.random.default_rng(case["seed"]).poisson(
        case["regions"][0].peak_rps * 3600.0 * case["horizon_hours"]))
    assert n == 1 << 17
    assert n % arrivals._THIN_CHUNK == 0 and n > arrivals._THIN_CHUNK


def test_generation_peaks_near_its_output():
    """Generating the serving benchmark's flash day holds two chunk
    buffers and the survivors, not two candidate arrays: its traced
    peak is at most 2.5x the bytes of ``arrivals_h`` (6.8x when both
    candidate arrays were drawn whole)."""
    import tracemalloc
    tracemalloc.start()
    try:
        arrivals = ArrivalProcess(**GENERATION_CASES["flash_day/seed0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * arrivals.arrivals_h.nbytes, (
        peak / arrivals.arrivals_h.nbytes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_equals_a_stable_sort_of_the_components(seed, monkeypatch):
    """Equal float64 arrival times are the same bits, so the default
    sort merges the thinned components into the stable sort's array."""
    components = []
    thin = ArrivalProcess._thin

    def recording(*args, **kwargs):
        components.append(thin(*args, **kwargs))
        return components[-1]

    monkeypatch.setattr(ArrivalProcess, "_thin", staticmethod(recording))
    proc = process(seed=seed, peak_rps=3.0,
                   flash_crowds=[FlashCrowd(20.0, 1.5, 1.8)])
    assert len(components) == 2
    expected = np.sort(np.concatenate(components), kind="stable")
    assert proc.arrivals_h.tobytes() == expected.tobytes()


if __name__ == "__main__":
    for name in GENERATION_CASES:
        print(f'    "{name}":\n        "{generation_digest(name)}",')
