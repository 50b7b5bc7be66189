"""One kernel rounds to the grid (``repro.nn.kernels.fake_quant``);
whatever feeds it — a scalar scale, a live observer, per-segment scale
planes, in place or allocating — must match the independent int32
reference ``dequantize(quantize(...))`` tensor by tensor, bit for bit,
including the stochastic-rounding random stream."""

import numpy as np
import pytest

from repro.nn import kernels as K
from repro.quant.int8 import (QuantConfig, SegmentQuantizer, _scale_for,
                              dequantize, fake_quantize,
                              fake_quantize_segments, quantize)
from repro.quant.observer import EmaObserver


def segmented_array(sizes, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    flat = (rng.standard_normal(sum(sizes)) * scale).astype(np.float32)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    return flat, starts, np.asarray(sizes, dtype=np.int64)


def reference(x, config, rng=None, scale=None):
    """One tensor through the format, by the int32 reference pair."""
    if config.float16:
        return x.astype(np.float16).astype(np.float32)
    if scale is None:
        peak = float(np.abs(x).max())
        scale = peak / config.qmax if peak else 1.0
    if not config.stochastic_rounding:
        rng = None
    return dequantize(quantize(x, scale, config.qmax, rng), scale)


def perkey_reference(flat, starts, sizes, config, rng=None):
    out = np.empty_like(flat)
    for start, size in zip(starts, sizes):
        seg = flat[start:start + size]
        out[start:start + size] = reference(seg, config, rng)
    return out


SIZES = [64, 1, 300, 7, 128]


@pytest.mark.parametrize("bits", [8, 4])
def test_deterministic_rounding_matches_per_tensor(bits):
    config = QuantConfig(bits=bits, stochastic_rounding=False)
    flat, starts, sizes = segmented_array(SIZES)
    fused = fake_quantize_segments(flat, starts, sizes, config)
    assert np.array_equal(fused, perkey_reference(flat, starts, sizes,
                                                  config))


def test_stochastic_rounding_consumes_identical_rng_stream():
    config = QuantConfig(bits=8, stochastic_rounding=True)
    flat, starts, sizes = segmented_array(SIZES, seed=3)
    fused = fake_quantize_segments(flat, starts, sizes, config,
                                   rng=np.random.default_rng(42))
    perkey = perkey_reference(flat, starts, sizes, config,
                              rng=np.random.default_rng(42))
    assert np.array_equal(fused, perkey)


def test_rng_position_identical_after_call():
    config = QuantConfig(bits=8, stochastic_rounding=True)
    flat, starts, sizes = segmented_array(SIZES, seed=5)
    rng_fused = np.random.default_rng(7)
    rng_perkey = np.random.default_rng(7)
    fake_quantize_segments(flat, starts, sizes, config, rng=rng_fused)
    perkey_reference(flat, starts, sizes, config, rng=rng_perkey)
    # downstream draws must agree, i.e. both consumed the same stream
    assert np.array_equal(rng_fused.random(8), rng_perkey.random(8))


def test_zero_segment_uses_unit_scale():
    config = QuantConfig(bits=8, stochastic_rounding=False)
    flat, starts, sizes = segmented_array([16, 16, 16], seed=1)
    flat[16:32] = 0.0
    fused = fake_quantize_segments(flat, starts, sizes, config)
    assert np.array_equal(fused, perkey_reference(flat, starts, sizes,
                                                  config))
    assert np.all(fused[16:32] == 0.0)


def test_float16_format_matches_per_tensor():
    config = QuantConfig(float16=True)
    flat, starts, sizes = segmented_array(SIZES, seed=2)
    fused = fake_quantize_segments(flat, starts, sizes, config)
    assert np.array_equal(fused, perkey_reference(flat, starts, sizes,
                                                  config))


def test_extreme_magnitudes_match_per_tensor():
    config = QuantConfig(bits=8, stochastic_rounding=False)
    flat, starts, sizes = segmented_array([32, 32], seed=4, scale=1e30)
    flat[32:] *= 1e-60  # second segment tiny
    fused = fake_quantize_segments(flat, starts, sizes, config)
    assert np.array_equal(fused, perkey_reference(flat, starts, sizes,
                                                  config))


# ----------------------------------------------------------------------
# The kernel itself, per kind of scale
# ----------------------------------------------------------------------
def scratch(x, stochastic=False):
    return (np.empty(x.shape, np.float32), np.empty(x.shape, np.float64),
            *([np.empty(x.shape, np.bool_)] if stochastic else []))


MAGNITUDES = [1.0, 1e30, 1e-30]


@pytest.mark.parametrize("bits", [2, 4, 8, 16])
@pytest.mark.parametrize("magnitude", MAGNITUDES)
def test_kernel_scalar_scale_matches_reference(bits, magnitude):
    config = QuantConfig(bits=bits, stochastic_rounding=False)
    x = segmented_array([257], seed=bits, scale=magnitude)[0]
    scale = float(np.abs(x).max()) / config.qmax
    expected = dequantize(quantize(x, scale, config.qmax), scale)
    assert np.array_equal(
        K.fake_quant(x, scale, config.qmax, *scratch(x)), expected)
    assert np.array_equal(fake_quantize(x, config), expected)
    inplace = x.copy()
    assert K.fake_quant(inplace, scale, config.qmax, *scratch(x),
                        out=inplace) is inplace
    assert np.array_equal(inplace, expected)


def test_kernel_stochastic_matches_reference_and_rng_position():
    config = QuantConfig(bits=8)
    rng_kernel, rng_reference = (np.random.default_rng(5) for _ in range(2))
    for seed in range(3):
        x = segmented_array([33, 100], seed=seed)[0]
        scale = float(np.abs(x).max()) / config.qmax
        expected = dequantize(
            quantize(x, scale, config.qmax, rng_reference), scale)
        work, wide, mask = scratch(x, stochastic=True)
        got = K.fake_quant(x, scale, config.qmax, work, wide, rng_kernel,
                           mask)
        assert np.array_equal(got, expected)
        assert (rng_kernel.bit_generator.state
                == rng_reference.bit_generator.state)


def test_kernel_observer_scale_matches_observe_then_reference():
    """A live observer is updated with the batch peak first and its
    scale read back — the input stage and ``ste_quantize``."""
    live, twin = EmaObserver(127), EmaObserver(127)
    for seed, magnitude in enumerate(MAGNITUDES + [0.0]):
        x = segmented_array([8 * 16], seed=seed,
                            scale=magnitude)[0].reshape(8, 16)
        twin.observe(x)
        expected = dequantize(quantize(x, twin.scale, 127), twin.scale)
        work, wide = scratch(x)
        assert K.fake_quant(x, live, 127, work, wide, out=work) is work
        assert np.array_equal(work, expected)
        assert live._ema == twin._ema


def test_kernel_segment_scales_match_reference():
    config = QuantConfig(bits=8, stochastic_rounding=False)
    flat, starts, sizes = segmented_array([16, 16, 5, 40], seed=9,
                                          scale=1e30)
    flat[16:32] = 0.0               # a zero segment: unit scale
    flat[32:37] *= 1e-60            # a tiny one next to a huge one
    work, wide = scratch(flat)
    scales = K.segment_scales(flat, starts, config.qmax)
    assert scales.dtype == np.float64 and scales[1] == 1.0
    assert np.array_equal(scales, [
        _scale_for(flat[a:a + n], config.qmax) for a, n in zip(starts, sizes)])
    widened = np.repeat(scales, sizes)
    narrow = widened.astype(np.float32)
    got = K.fake_quant(flat, (narrow, widened), config.qmax, work, wide)
    assert np.array_equal(got, perkey_reference(flat, starts, sizes, config))


def test_fp16_round_trip_matches_astype():
    x = segmented_array([100], seed=1, scale=300.0)[0]
    expected = x.astype(np.float16).astype(np.float32)
    half = np.empty(x.shape, np.float16)
    assert np.array_equal(K.fp16_round_trip(x, half), expected)
    assert K.fp16_round_trip(x, half, out=x) is x
    assert np.array_equal(x, expected)


def test_runs_quantise_whole_segments_and_draw_for_them_only():
    """Over ``runs`` (a frozen model's trainable ranges) the quantiser
    touches nothing else and consumes the generator exactly like
    per-tensor calls on those segments."""
    config = QuantConfig(bits=8)
    flat, starts, sizes = segmented_array(SIZES, seed=12)
    runs = ((64, 65), (365, 500))           # segments 1 and 3 + 4
    expected = flat.copy()
    rng_reference = np.random.default_rng(3)
    for i in (1, 3, 4):
        seg = slice(starts[i], starts[i] + sizes[i])
        expected[seg] = reference(flat[seg], config, rng_reference)
    rng = np.random.default_rng(3)
    quantizer = SegmentQuantizer(starts, sizes, config, stochastic=True)
    quantizer(flat, rng, runs)
    assert np.array_equal(flat, expected)
    assert rng.bit_generator.state == rng_reference.bit_generator.state
    quantizer(flat, rng, runs=())           # nothing trains: nothing moves
    assert np.array_equal(flat, expected)
    assert rng.bit_generator.state == rng_reference.bit_generator.state


# ----------------------------------------------------------------------
# SegmentQuantizer: the preallocated in-place form every step runs —
# must be indistinguishable from per-tensor quantisation.
# ----------------------------------------------------------------------

PREALLOC_CONFIGS = [
    QuantConfig(bits=8, stochastic_rounding=False),
    QuantConfig(bits=4, stochastic_rounding=False),
    QuantConfig(bits=8, stochastic_rounding=True),
    QuantConfig(float16=True),
]


@pytest.mark.parametrize("config", PREALLOC_CONFIGS,
                         ids=lambda c: c.format_name +
                         ("_sr" if c.stochastic_rounding else ""))
def test_prealloc_quantizer_matches_functional(config):
    flat, starts, sizes = segmented_array(SIZES, seed=6)
    stochastic = config.stochastic_rounding
    expected = perkey_reference(
        flat, starts, sizes, config,
        rng=np.random.default_rng(11) if stochastic else None)
    assert np.array_equal(fake_quantize_segments(
        flat, starts, sizes, config,
        rng=np.random.default_rng(11) if stochastic else None), expected)
    quantizer = SegmentQuantizer(starts, sizes, config,
                                 stochastic=stochastic)
    inplace = flat.copy()
    quantizer(inplace,
              rng=np.random.default_rng(11) if stochastic else None)
    assert np.array_equal(inplace, expected)


def test_prealloc_quantizer_rng_stream_identical():
    """Replay after replay, the in-place form must leave the generator
    in the exact state the functional form would — the graph executor
    threads one RNG through many replays."""
    config = QuantConfig(bits=8, stochastic_rounding=True)
    rng_fn = np.random.default_rng(13)
    rng_pre = np.random.default_rng(13)
    quantizer = SegmentQuantizer(*segmented_array(SIZES, seed=8)[1:],
                                 config, stochastic=True)
    for seed in range(4):
        flat, starts, sizes = segmented_array(SIZES, seed=seed)
        expected = perkey_reference(flat, starts, sizes, config,
                                    rng=rng_fn)
        inplace = flat.copy()
        quantizer(inplace, rng=rng_pre)
        assert np.array_equal(inplace, expected)
        assert rng_fn.bit_generator.state == rng_pre.bit_generator.state


def test_prealloc_quantizer_zero_segment():
    config = QuantConfig(bits=8, stochastic_rounding=False)
    flat, starts, sizes = segmented_array([16, 16, 16], seed=1)
    flat[16:32] = 0.0
    expected = perkey_reference(flat, starts, sizes, config)
    quantizer = SegmentQuantizer(starts, sizes, config)
    quantizer(flat)
    assert np.array_equal(flat, expected)


def test_prealloc_quantizer_reusable_across_calls():
    """Scratch buffers are owned state; a second call must not see
    residue from the first."""
    config = QuantConfig(bits=8, stochastic_rounding=False)
    quantizer = SegmentQuantizer(*segmented_array(SIZES)[1:], config)
    for seed in (2, 9):
        flat, starts, sizes = segmented_array(SIZES, seed=seed)
        expected = perkey_reference(flat, starts, sizes, config)
        quantizer(flat)
        assert np.array_equal(flat, expected)


@pytest.mark.parametrize("config", PREALLOC_CONFIGS,
                         ids=lambda c: c.format_name +
                         ("_sr" if c.stochastic_rounding else ""))
@pytest.mark.parametrize("block", [1, 7, 64, 100, 10_000])
def test_blocks_are_invisible(monkeypatch, config, block):
    """The quantiser runs block by block with block-sized planes; where
    the blocks fall against the segments — inside one, across several,
    on a boundary — changes neither a bit nor the generator's state."""
    import repro.quant.int8 as int8
    monkeypatch.setattr(int8, "_BLOCK", block)
    flat, starts, sizes = segmented_array(SIZES, seed=21)
    flat[starts[2]:starts[2] + sizes[2]] = 0.0       # a unit-scale segment
    stochastic = config.stochastic_rounding
    rng_reference, rng = (np.random.default_rng(5) if stochastic else None
                          for _ in range(2))
    expected = perkey_reference(flat, starts, sizes, config,
                                rng=rng_reference)
    quantizer = SegmentQuantizer(starts, sizes, config,
                                 stochastic=stochastic)
    assert all(len(plane) == min(block, flat.size)
               for plane in quantizer.buffers())
    quantizer(flat, rng)
    assert np.array_equal(flat, expected)
    if stochastic:
        assert rng.bit_generator.state == rng_reference.bit_generator.state
    # and over runs that start and stop mid-array
    flat, starts, sizes = segmented_array(SIZES, seed=22)
    runs = ((int(starts[1]), int(starts[2])),
            (int(starts[3]), int(starts[4] + sizes[4])))
    expected = flat.copy()
    rng_reference, rng = (np.random.default_rng(6) if stochastic else None
                          for _ in range(2))
    for i in (1, 3, 4):
        seg = slice(starts[i], starts[i] + sizes[i])
        expected[seg] = reference(flat[seg], config, rng_reference)
    quantizer(flat, rng, runs)
    assert np.array_equal(flat, expected)
