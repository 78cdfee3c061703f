"""Temporal coding: delay grids, the three encoders, and their edge cases."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_coding as ref
from mtspike import coding
from mtspike.coding import (
    _BLOCK,
    _neuron_count,
    CodingParams,
    DelayVector,
    encode_conv_like,
    encode_numeric,
    encode_pixels_1to1,
)
from mtspike.datasets import EncodingSpec
from mtspike.errors import ConfigError, DataError


def test_default_resolution_is_sixteen():
    assert CodingParams().resolution == 16


@pytest.mark.parametrize(
    "window,unit,resolution",
    [(16.0, 1.0, 16), (16.0, 0.5, 32), (8.0, 2.0, 4), (1.0, 1.0, 1)],
)
def test_resolution_is_window_over_unit(window, unit, resolution):
    assert CodingParams(window=window, unit=unit).resolution == resolution


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": 0.0},
        {"unit": 0.0},
        {"window": -16.0},
        {"window": 16.0, "unit": 3.0},  # 16/3 is not whole
        {"stride": 0},
        {"kernel": 0},
        {"kernel": 3},  # 3**2 != 16
        {"pad": "reflect"},
        {"binarize_threshold": 0.0},
        {"window": float("inf")},  # round(inf) would raise a raw OverflowError
        {"binarize_threshold": 255.5},  # byte pixels: none would binarize
        {"binarize_threshold": float("inf")},
        {"binarize_threshold": float("nan")},
    ],
)
def test_bad_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        CodingParams(**kwargs)


def test_kernel_must_square_to_resolution():
    CodingParams(kernel=4)  # 4**2 == 16, fine
    CodingParams(window=4.0, unit=1.0, kernel=2)
    with pytest.raises(ConfigError, match="kernel\\*\\*2"):
        CodingParams(window=16.0, unit=0.1, kernel=4)


def test_delay_vector_len():
    vec = DelayVector(delays=[1.0, 2.0, 3.0], fired=[True, False, True])
    assert len(vec) == 3


def test_delay_vector_shape_mismatch():
    with pytest.raises(DataError):
        DelayVector(delays=[1.0, 2.0], fired=[True])
    with pytest.raises(DataError):
        DelayVector(delays=np.zeros((2, 2)), fired=np.ones((2, 2), dtype=bool))


# --- numeric coding ---------------------------------------------------------


def test_numeric_known_values():
    p = CodingParams()
    delays, _ = encode_numeric(np.array([2.5])[None], np.array([[0.0, 10.0]]), p)
    assert delays[0].tolist() == [12.0]
    delays, _ = encode_numeric(np.array([2.5])[None], np.array([[0.0, 5.0]]), p)
    assert delays[0].tolist() == [8.0]


def test_numeric_endpoints_and_all_fire():
    p = CodingParams()
    values = np.array([0.0, 5.0])[None]
    delays, fired = encode_numeric(values, np.array([[0.0, 5.0]] * 2), p)
    assert delays[0].tolist() == [16.0, 0.0]  # weakest late, strongest early
    assert fired.all()
    assert fired.sum() == 2


def test_numeric_rounds_half_to_even():
    p = CodingParams()
    ranges = np.array([[0.0, 1.0]] * 2)
    # 16 * (1 - v) lands on 12.5 and 11.5; both round to the even 12
    delays, _ = encode_numeric(np.array([0.21875, 0.28125])[None], ranges, p)
    assert delays[0].tolist() == [12.0, 12.0]


def test_numeric_out_of_range_clamps():
    p = CodingParams()
    ranges = np.array([[0.0, 5.0]] * 2)
    delays, _ = encode_numeric(np.array([-3.0, 9.0])[None], ranges, p)
    assert delays[0].tolist() == [16.0, 0.0]


def test_numeric_validation():
    p = CodingParams()
    with pytest.raises(ConfigError, match="ranges"):
        encode_numeric(np.array([1.0, 2.0])[None], np.array([[0.0, 1.0]]), p)
    with pytest.raises(ConfigError, match="degenerate"):
        encode_numeric(np.array([1.0])[None], np.array([[2.0, 2.0]]), p)
    with pytest.raises(DataError, match="finite"):
        encode_numeric(np.array([np.nan])[None], np.array([[0.0, 1.0]]), p)
    with pytest.raises(DataError, match="rows"):
        encode_numeric(np.array([1.0]), np.array([[0.0, 1.0]]), p)


@given(
    value=st.floats(min_value=0.0, max_value=1.0),
    unit=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=60)
def test_numeric_delays_stay_on_grid(value, unit):
    p = CodingParams(window=16.0, unit=unit)
    delays, _ = encode_numeric(np.array([value])[None], np.array([[0.0, 1.0]]), p)
    d = delays[0, 0]
    assert 0.0 <= d <= p.window
    assert d / p.unit == round(d / p.unit)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8))
@settings(max_examples=60)
def test_numeric_larger_value_never_fires_later(values):
    """Stronger stimulus means an earlier (or equal) spike."""
    p = CodingParams()
    vals = np.array(sorted(values))
    ranges = np.array([[0.0, 1.0]] * len(vals))
    delays, _ = encode_numeric(vals[None], ranges, p)
    assert np.all(np.diff(delays[0]) <= 0)


# --- one-to-one pixel coding ------------------------------------------------


def test_pixels_known_values():
    img = np.zeros((2, 2))
    img[0, 0], img[0, 1], img[1, 0] = 128.0, 255.0, 1.0
    delays, fired = encode_pixels_1to1(img[None], CodingParams())
    assert delays[0].tolist() == [8.0, 0.0, 16.0, 16.0]
    assert fired[0].tolist() == [True, True, True, False]
    assert fired.sum() == 3


def test_zero_pixel_emits_no_spike_but_keeps_window_delay():
    delays, fired = encode_pixels_1to1(np.zeros((3, 3))[None], CodingParams())
    assert fired.sum() == 0
    assert np.all(delays == 16.0)
    assert delays.shape == (1, 9)


def test_pixels_row_major_order():
    img = np.array([[255.0, 0.0], [0.0, 255.0]])
    _, fired = encode_pixels_1to1(img[None], CodingParams())
    assert fired[0].tolist() == [True, False, False, True]


def test_pixels_validation():
    with pytest.raises(ConfigError):
        encode_pixels_1to1(np.zeros((2, 2))[None], CodingParams(), p_max=0.0)
    with pytest.raises(DataError, match="square"):
        encode_pixels_1to1(np.zeros((2, 3))[None], CodingParams())
    with pytest.raises(DataError, match="square"):
        encode_pixels_1to1(np.zeros(4)[None], CodingParams())


@given(st.integers(min_value=0, max_value=255))
@settings(max_examples=60)
def test_pixel_delay_bounds(intensity):
    img = np.full((1, 1), float(intensity))
    delays, fired = encode_pixels_1to1(img[None], CodingParams())
    assert 0.0 <= delays[0, 0] <= 16.0
    assert fired[0, 0] == (intensity > 0)


EVERY_BYTE = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)


@pytest.mark.parametrize("p_max", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_p_max_must_be_finite_and_positive(p_max):
    with pytest.raises(ConfigError, match="p_max"):
        EncodingSpec(scheme="one_to_one", p_max=p_max)
    for images in (np.full((1, 4, 4), 200, dtype=np.uint8), np.full((1, 4, 4), 200.0)):
        with pytest.raises(ConfigError, match="p_max"):
            encode_pixels_1to1(images, CodingParams(), p_max)


@pytest.mark.parametrize("dtype", ["uint8", "float64"])
def test_tiny_p_max_fires_every_lit_pixel_at_once_without_warnings(dtype):
    """intensity / p_max overflows to inf: the formula's limit, delay 0."""
    images = EVERY_BYTE.astype(dtype)
    with np.errstate(all="raise"):
        delays, fired = encode_pixels_1to1(images, CodingParams(), p_max=1e-310)
    assert delays[0, 0] == 16.0 and not fired[0, 0]
    assert np.all(delays[0, 1:] == 0.0) and np.all(fired[0, 1:])


# --- conv-like coding -------------------------------------------------------


def test_conv_handcrafted_zero_counts():
    """A bright 4x4 corner: each kernel position's delay counts its dark cells."""
    img = np.zeros((8, 8))
    img[:4, :4] = 255.0
    delays, fired = encode_conv_like(img[None], CodingParams(kernel=4, stride=2))
    assert delays[0].tolist() == [0.0, 8.0, 16.0, 8.0, 12.0, 16.0, 16.0, 16.0, 16.0]
    assert fired.all()


def test_conv_all_bright_and_all_dark():
    p = CodingParams(kernel=4, stride=2)
    assert np.all(encode_conv_like(np.full((8, 8), 255.0)[None], p)[0] == 0.0)
    delays, fired = encode_conv_like(np.zeros((8, 8))[None], p)
    assert np.all(delays == 16.0)
    assert fired.all()  # conv neurons always fire


def test_conv_binarize_threshold_is_inclusive():
    p = CodingParams(kernel=4, stride=4)
    img = np.full((4, 4), 128.0)  # exactly at the default threshold
    assert encode_conv_like(img[None], p)[0][0].tolist() == [0.0]
    img = np.full((4, 4), 127.0)
    assert encode_conv_like(img[None], p)[0][0].tolist() == [16.0]


def test_conv_mnist_geometry():
    p = CodingParams(kernel=4, stride=2)
    delays, _ = encode_conv_like(np.zeros((28, 28))[None], p)
    assert delays.shape == (1, 169)


def test_conv_ignores_trailing_remainder():
    """With stride 2 on a 5-wide image the kernel grid stops at column 3."""
    p = CodingParams(window=4.0, unit=1.0, kernel=2, stride=2)
    img = np.zeros((5, 5))
    img[:, 4] = 255.0  # bright strip the grid never reaches
    delays, _ = encode_conv_like(img[None], p)
    assert delays.shape[1] == _neuron_count(5, 2, 2) == 4
    assert np.all(delays == 4.0)


def test_conv_requires_kernel_and_fitting_image():
    with pytest.raises(ConfigError, match="kernel"):
        encode_conv_like(np.zeros((8, 8))[None], CodingParams())
    with pytest.raises(ConfigError, match="exceeds"):
        encode_conv_like(np.zeros((3, 3))[None], CodingParams(kernel=4, stride=2))


@pytest.mark.parametrize(
    "width,kernel,stride,count",
    [(28, 4, 2, 169), (28, 4, 4, 49), (6, 2, 2, 9), (4, 4, 1, 1), (5, 2, 2, 4)],
)
def test_neuron_count_known_values(width, kernel, stride, count):
    assert _neuron_count(width, kernel, stride) == count


def test_neuron_count_validation():
    with pytest.raises(ConfigError):
        _neuron_count(28, 0, 2)
    with pytest.raises(ConfigError):
        _neuron_count(28, 29, 2)
    with pytest.raises(ConfigError):
        _neuron_count(28, 4, 0)


@given(
    side=st.integers(min_value=4, max_value=20),
    stride=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_conv_output_matches_neuron_count_and_grid(side, stride, seed):
    p = CodingParams(kernel=4, stride=stride)
    img = np.random.default_rng(seed).integers(0, 256, (side, side)).astype(float)
    delays, _ = encode_conv_like(img[None], p)
    assert delays.shape[1] == _neuron_count(side, 4, stride)
    assert np.all((delays >= 0.0) & (delays <= p.window))
    # zero counts are integers, so delays sit on the unit grid
    assert np.all(delays == np.round(delays))


@given(stride=st.integers(min_value=1, max_value=6))
@settings(max_examples=20)
def test_wider_stride_never_adds_neurons(stride):
    assert _neuron_count(28, 4, stride + 1) <= _neuron_count(28, 4, stride)


@given(side=st.integers(min_value=1, max_value=64), data=st.data())
@settings(max_examples=200)
def test_kernel_grid_never_runs_past_the_image(side, data):
    """The last kernel position always fits, so no padding is ever needed."""
    kernel = data.draw(st.integers(min_value=1, max_value=side))
    stride = data.draw(st.integers(min_value=1, max_value=side + 2))
    positions = math.isqrt(_neuron_count(side, kernel, stride))
    assert (positions - 1) * stride + kernel <= side
    # ...and the grid stops only where one more position would not fit
    assert positions * stride + kernel > side


# --- batch encoders against the per-sample reference ------------------------

# stack sizes on both sides of a block edge
STACK_SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1]


def _assert_byte_equal(got, want, narrow=False):
    """``got`` holds ``want``'s arrays: the same shapes, and the same bytes
    once the delays (the first array) are read as float64.  The delays are
    uint8 when ``narrow`` and of ``want``'s dtype otherwise, so this is as
    strict on the values as comparing the delays' own bytes."""
    (delays, *rest), (want_delays, *want_rest) = got, want
    assert delays.dtype == (np.uint8 if narrow else want_delays.dtype)
    assert delays.shape == want_delays.shape
    assert delays.astype(np.float64).tobytes() == want_delays.astype(np.float64).tobytes()
    for g, w in zip(rest, want_rest):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _fits_bytes(table):
    """Whether every float64 delay of ``table`` keeps its bytes through uint8."""
    with np.errstate(invalid="ignore"):
        return table.astype(np.uint8).astype(np.float64).tobytes() == table.tobytes()


def _conv_narrow(p):
    """Whether conv coding under ``p`` writes uint8: its delay per zero count fits."""
    zeros = p.kernel * p.kernel - np.arange(p.kernel * p.kernel + 1)
    return _fits_bytes((p.unit * zeros).astype(np.float64))


def _pixel_narrow(p, p_max):
    """Whether one-to-one coding of a byte stack writes uint8: the reference
    delays of all 256 byte values fit."""
    every_byte = np.arange(256.0).reshape(16, 16)
    return _fits_bytes(ref.encode_pixels_1to1(every_byte, p, p_max).delays)


def _image_stack(rng, n, side, dtype):
    pixels = rng.integers(0, 256, (n, side, side))
    pixels[rng.random(pixels.shape) < 0.3] = 0  # silent one-to-one pixels
    if dtype == "uint8":
        return pixels.astype(np.uint8)
    pixels = pixels + rng.choice([0.0, 0.25, 0.5], pixels.shape)
    pixels[rng.random(pixels.shape) < 0.01] = np.nan  # silent in both codings
    return pixels


@given(
    kernel=st.integers(min_value=1, max_value=28),
    side=st.integers(min_value=4, max_value=28),
    stride=st.integers(min_value=1, max_value=28),
    unit=st.sampled_from([0.5, 1.0, 2.0]),
    threshold=st.sampled_from([1.0, 100.25, 127.5, 128.0, 255.0]),
    p_max=st.sampled_from([1.0, 100.0, 255.0, 300.5]),
    n=st.sampled_from(STACK_SIZES),
    dtype=st.sampled_from(["uint8", "float64"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# window 256, one slot past a byte; p_max 100 puts -0.0 in the byte table
@example(kernel=16, side=16, stride=1, unit=1.0, threshold=128.0, p_max=100.0,
         n=1, dtype="uint8", seed=0)
@example(kernel=15, side=28, stride=2, unit=1.0, threshold=128.0, p_max=255.0,
         n=_BLOCK + 1, dtype="uint8", seed=1)
@example(kernel=11, side=12, stride=3, unit=2.0, threshold=127.5, p_max=300.5,
         n=2, dtype="float64", seed=2)
@settings(max_examples=30, deadline=None)
def test_image_encoders_match_reference_bytes(kernel, side, stride, unit, threshold,
                                              p_max, n, dtype, seed):
    """Delays read as float64 have the reference's bytes, and are uint8
    exactly when the encoder's delay table fits in bytes: conv's per zero
    count, one-to-one's per byte value (byte stacks only)."""
    # kernels up to the full side: kernel**2 passes 255, so counts need uint16
    side = max(side, kernel)
    p = CodingParams(window=unit * kernel * kernel, unit=unit, kernel=kernel,
                     stride=stride, binarize_threshold=threshold)
    images = _image_stack(np.random.default_rng(seed), n, side, dtype)
    _assert_byte_equal(encode_conv_like(images, p),
                       ref.encode_each(ref.encode_conv_like, images, p),
                       _conv_narrow(p))
    _assert_byte_equal(encode_pixels_1to1(images, p, p_max),
                       ref.encode_each(ref.encode_pixels_1to1, images, p, p_max),
                       dtype == "uint8" and _pixel_narrow(p, p_max))


# pixel values around every tested threshold and far past the byte range
INTEGER_PIXELS = [-(2**40), -129, -128, -1, 0, 1, 127, 128, 129, 254, 255, 256, 2**40]


@pytest.mark.parametrize("dtype", ["uint8", "int8", "int16", "uint16", "int64", "bool"])
@pytest.mark.parametrize("threshold", [0.5, 127.5, 128.0, 255.0])
def test_conv_integer_stacks_match_reference_bytes(dtype, threshold):
    """Integer stacks binarize against ceil(threshold): the same pixels as the
    reference's float compare, also on int8 stacks whose maximum 127 lies
    below every threshold from 127.5 on, and on non-contiguous views."""
    rng = np.random.default_rng(round(threshold))
    shape = (_BLOCK + 1, 12, 12)
    if dtype == "bool":
        images = rng.random(shape) < 0.5
    else:
        info = np.iinfo(dtype)
        values = [v for v in INTEGER_PIXELS if info.min <= v <= info.max]
        images = rng.choice(np.array(values + [info.min, info.max], dtype=dtype), shape)
    for stack in (images, images[::-2, :, ::-1]):
        for stride in (1, 3):
            p = CodingParams(kernel=4, stride=stride, binarize_threshold=threshold)
            got = encode_conv_like(stack, p)
            _assert_byte_equal(got, ref.encode_each(ref.encode_conv_like, stack, p),
                               narrow=True)
            if dtype == "int8" and threshold > 127:
                assert np.all(got[0] == p.window)


@pytest.mark.parametrize("p_max", [100.0, 255.0, 300.5])
@pytest.mark.parametrize("params", [
    CodingParams(unit=0.5), CodingParams(unit=1.0), CodingParams(unit=2.0),
    CodingParams(window=0.3, unit=0.1),  # unit * resolution != window in float64
], ids=["unit-0.5", "unit-1", "unit-2", "window-0.3"])
def test_every_intensity_encodes_as_its_float(p_max, params):
    """The byte delay table holds the float path's bytes for all 256 values;
    it is uint8 at whole units, except at p_max 100, where the delays of
    bytes 101-103 round to -0.0."""
    narrow = params.unit >= 1 and p_max != 100.0
    assert narrow == _pixel_narrow(params, p_max)
    _assert_byte_equal(encode_pixels_1to1(EVERY_BYTE, params, p_max),
                       encode_pixels_1to1(EVERY_BYTE.astype(np.float64), params, p_max),
                       narrow)


def test_strided_and_empty_byte_stacks_encode_as_floats():
    images = _image_stack(np.random.default_rng(5), 2 * _BLOCK + 3, 28, "uint8")
    view = images[::2, :, ::-1]
    _assert_byte_equal(encode_pixels_1to1(view, CodingParams()),
                       encode_pixels_1to1(view.astype(np.float64), CodingParams()), True)
    empty = np.zeros((0, 28, 28), dtype=np.uint8)
    _assert_byte_equal(encode_pixels_1to1(empty, CodingParams()),
                       encode_pixels_1to1(empty.astype(np.float64), CodingParams()), True)


@pytest.mark.parametrize("kernel", [15, 16, 17, 28])
@pytest.mark.parametrize("fill", ["dark", "bright", "random"])
def test_conv_counts_past_one_byte_match_reference(kernel, fill):
    """kernel**2 of 256 and more still counts every cell of the field."""
    rng = np.random.default_rng(kernel)
    images = {"dark": np.zeros((3, 28, 28), dtype=np.uint8),
              "bright": np.full((3, 28, 28), 255, dtype=np.uint8),
              "random": _image_stack(rng, 3, 28, "uint8")}[fill]
    for stride in (1, 2, kernel + 1):
        p = CodingParams(window=kernel * kernel, kernel=kernel, stride=stride)
        delays, _ = encode_conv_like(images, p)
        _assert_byte_equal((delays,), ref.encode_each(ref.encode_conv_like, images, p),
                           narrow=kernel == 15)
        if fill != "random":
            assert np.all(delays == (p.window if fill == "dark" else 0.0))


def test_conv_peak_allocation_stays_near_its_result():
    """Blocks keep the working set small: the peak is the result plus < 1 MB."""
    images = _image_stack(np.random.default_rng(3), 2000, 28, "uint8")
    p = CodingParams(kernel=4, stride=2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        delays, fired = encode_conv_like(images, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    result = delays.nbytes + fired.nbytes
    assert peak <= result + 2**20, (peak, result)
    assert delays.itemsize == 1  # the preset's delays 0-16 fit in bytes


def test_pixels_peak_allocation_stays_near_its_result():
    """A byte stack is translated through its delay table a block at a time:
    the peak is the result plus < 1 MB, where a whole-stack gather would add
    an index and a delay copy of the stack."""
    images = _image_stack(np.random.default_rng(3), 2000, 28, "uint8")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        delays, fired = encode_pixels_1to1(images, CodingParams())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    result = delays.nbytes + fired.nbytes
    assert peak <= result + 2**20, (peak, result)
    assert delays.itemsize == 1  # the default delays 0-16 fit in bytes


@given(
    n=st.sampled_from(STACK_SIZES),
    attributes=st.integers(min_value=1, max_value=6),
    unit=st.sampled_from([0.5, 1.0, 2.0]),
    resolution=st.sampled_from([1, 16, 25]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_numeric_encoder_matches_reference_bytes(n, attributes, unit, resolution, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 10.0, attributes)
    hi = lo + rng.uniform(0.1, 10.0, attributes)
    # about half the values fall outside the fitted range and clamp
    values = rng.uniform(2 * lo - hi, 2 * hi - lo, (n, attributes))
    values[0] = lo
    ranges = np.stack([lo, hi], axis=1)
    p = CodingParams(window=unit * resolution, unit=unit)
    _assert_byte_equal(encode_numeric(values, ranges, p),
                       ref.encode_each(ref.encode_numeric, values, ranges, p))


@pytest.mark.parametrize(
    "encoder,stack,args,error",
    [
        ("encode_numeric", np.array([[np.nan, 1.0]]),
         (np.array([[0.0, 1.0]] * 2), CodingParams()), DataError),
        ("encode_numeric", np.ones((2, 3)),
         (np.array([[0.0, 1.0]] * 2), CodingParams()), ConfigError),
        ("encode_pixels_1to1", np.zeros((2, 4, 5)), (CodingParams(),), DataError),
        ("encode_conv_like", np.zeros((2, 4, 5)), (CodingParams(kernel=4),), DataError),
        ("encode_conv_like", np.zeros((2, 3, 3)), (CodingParams(kernel=4),), ConfigError),
        ("encode_pixels_1to1", np.zeros((2, 4, 4)), (CodingParams(), 0.0), ConfigError),
        ("encode_pixels_1to1", np.zeros((2, 4, 4)), (CodingParams(), -1.0), ConfigError),
    ],
    ids=["nan-attribute", "ranges-shape", "non-square-pixels", "non-square-conv",
         "kernel-too-wide", "p_max-zero", "p_max-negative"],
)
def test_batch_encoders_raise_the_reference_errors(encoder, stack, args, error):
    with pytest.raises(error):
        getattr(ref, encoder)(stack[0], *args)
    with pytest.raises(error):
        getattr(coding, encoder)(stack, *args)
