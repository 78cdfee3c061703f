"""Reference SRM neuron: kernel shape, voltage traces, threshold crossings."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_srm as reference
from _reference_srm import psp_kernel
from conftest import make_digits
from mtspike import srm
from mtspike.coding import DelayVector
from mtspike.config import preset
from mtspike.datasets import encode_dataset
from mtspike.errors import ConfigError
from mtspike.network import forward_batch, init_network
from mtspike.srm import (
    SrmParams,
    _voltage_trace,
    threshold_crossing,
)

P = SrmParams()


def inputs(delays, fired=None):
    delays = np.asarray(delays, dtype=float)
    if fired is None:
        fired = np.ones(delays.shape[0], dtype=bool)
    return DelayVector(delays=delays, fired=np.asarray(fired, dtype=bool))


def _potential_at(drive, weights, params, t):
    """The closed-form potential at time ``t`` as the crossing search
    evaluates it, in ``math`` floats on the span that holds ``t`` (the one
    with the latest onset before ``t``); 0 up to the earliest acting input."""
    scale, spans = srm._spans(drive.delays, drive.fired, weights, params)
    held = [span for span in spans if span[0] < t]
    if not held:
        return 0.0
    onset, a, b = held[-1]
    since = t - onset
    return scale * (a * math.exp(-since / params.tau_decay)
                    - b * math.exp(-since / params.tau_rise))


def _assert_crossing_fits(crossing, drive, weights, params, times, v, tolerance):
    """``crossing`` is exact and fits the trace ``v`` on ``times``.

    The potential reaches threshold at it, and not at the float below it
    unless it is the domain's start (``d0``, the earliest fired input, or 0
    when ``d0`` is before 0).  No grid point past ``d0`` before it reaches
    threshold, so the trace's first qualifying point ``g`` is the first grid
    point at or after it, ``c <= g < c + dt``, with two exceptions: a grid
    point may lie on the wrong side of threshold within ``tolerance`` of it,
    and ``g`` may be later, or None, when that first grid point is below
    threshold, so that the potential reached it only on a peak between grid
    points.
    """
    theta = params.v_threshold
    fired = drive.delays[drive.fired]
    domain = times > fired.min() if fired.size else np.zeros(times.shape, bool)
    if crossing is None:
        assert not np.any(domain & (v >= theta + tolerance))
        return
    assert _potential_at(drive, weights, params, crossing) >= theta
    if crossing != max(float(fired.min()), 0.0):
        below = math.nextafter(crossing, -math.inf)
        assert _potential_at(drive, weights, params, below) < theta
    assert not np.any(domain & (times < crossing) & (v >= theta + tolerance))


def test_params_validation():
    for kwargs in (
        {"tau_rise": 0.0},
        {"tau_decay": 1.0, "tau_rise": 1.0},  # decay must exceed rise
        {"tau_decay": 0.5, "tau_rise": 1.0},
        {"dt": 0.0},
        {"horizon": 0.0},
        {"horizon": np.inf},
        {"tau_decay": np.inf},
        {"v_threshold": np.nan},
        {"horizon": 1e300, "dt": 1e-10},  # horizon / dt overflows to inf
        {"dt": 1e-300},  # more grid points than numpy can index
        {"tau_rise": 1e-308, "horizon": 4.0, "dt": 1.0},  # horizon / tau_rise overflows
        # the reciprocals round to one value: the two exponentials cannot be told apart
        {"tau_rise": 1e308, "tau_decay": float(np.nextafter(1e308, np.inf))},
    ):
        with pytest.raises(ConfigError):
            SrmParams(**kwargs)


def test_kernel_zero_at_and_before_onset():
    t = np.array([0.0, 1.0, 2.9, 3.0])
    k = psp_kernel(t, 3.0, P)
    assert np.all(k[:3] == 0.0)
    assert k[3] == 0.0  # exactly zero at t == d
    assert psp_kernel(np.array([3.01]), 3.0, P)[0] > 0.0


def test_kernel_positive_after_onset_then_decays():
    t = np.arange(0.0, 40.0, 0.01)
    k = psp_kernel(t, 2.0, P)
    after = k[t > 2.0]
    assert np.all(after > 0.0)
    assert k[-1] < 1e-3  # decayed to almost nothing by the horizon


def test_kernel_peak_time_matches_calculus():
    # d/dt of the double exponential vanishes at ln(ratio) * tau_d tau_r / (tau_d - tau_r)
    expected = np.log(4.0) * 4.0 * 1.0 / 3.0
    t = np.arange(0.0, 20.0, 0.0005)
    k = psp_kernel(t, 0.0, P)
    assert t[np.argmax(k)] == pytest.approx(expected, abs=0.002)


def test_voltage_trace_is_weighted_kernel_sum():
    times, v = _voltage_trace(inputs([0.0, 2.0]), np.array([1.0, 0.5]), P)
    assert times[0] == 0.0 and times[-1] == pytest.approx(P.horizon)
    expected = psp_kernel(times, 0.0, P) + 0.5 * psp_kernel(times, 2.0, P)
    assert np.allclose(v, expected)


def test_unfired_inputs_contribute_nothing():
    _, with_all = _voltage_trace(inputs([0.0, 1.0]), np.array([1.0, 5.0]), P)
    _, gated = _voltage_trace(inputs([0.0, 1.0], fired=[True, False]),
                             np.array([1.0, 5.0]), P)
    _, alone = _voltage_trace(inputs([0.0]), np.array([1.0]), P)
    assert np.allclose(gated, alone[: len(gated)])
    assert not np.allclose(with_all, gated)


def test_voltage_trace_weight_shape_check():
    with pytest.raises(ConfigError):
        _voltage_trace(inputs([0.0, 1.0]), np.array([1.0]), P)


def test_threshold_crossing_against_fine_grid():
    drive = inputs([0.0, 1.0])
    weights = np.array([1.5, 1.5])
    crossing = threshold_crossing(drive, weights, P)
    assert crossing is not None
    fine = SrmParams(dt=0.0005)
    reference = threshold_crossing(drive, weights, fine)
    assert crossing == pytest.approx(reference, abs=2 * P.dt)
    # no grid point before the crossing reaches threshold
    times, v = _voltage_trace(drive, weights, P)
    before = v[(times > 0.0) & (times < crossing)]
    assert np.all(before < P.v_threshold)


def test_no_crossing_returns_none():
    assert threshold_crossing(inputs([0.0]), np.array([0.1]), P) is None
    assert threshold_crossing(inputs([0.0], fired=[False]), np.array([9.9]), P) is None


def test_crossing_candidates_start_after_first_spike():
    """The potential is an exact 0 at the earliest fired spike d0: a zero
    threshold is reached at d0 unless the inputs at d0 sum to a negative
    weight, and never before d0, so there is no phantom crossing at t = 0."""
    zero = SrmParams(v_threshold=0.0)
    for drive, weights, expected, first in [
        (inputs([5.0]), [1.0], 5.0, 501 * zero.dt),  # rises from d0
        (inputs([5.0]), [-1.0], None, None),  # falls from d0 and stays below
        (inputs([5.0, 5.0]), [-1.0, 0.4], None, None),  # a negative sum at d0
        (inputs([1.0, 5.0]), [0.0, 1.0], 1.0, 101 * zero.dt),  # zero weight
        (inputs([1.0, 1.0, 5.0]), [0.7, -0.7, 1.0], 1.0, 101 * zero.dt),  # cancelling pair
        (inputs([1.0, 5.0]), [0.0, -1.0], 1.0, 101 * zero.dt),  # 0 up to a later fall
        (inputs([0.5, 3.0], fired=[False, True]), [1.0, 1.0], 3.0, 301 * zero.dt),  # unfired
        (inputs([64.0, 80.0]), [1.0, 1.0], None, None),  # only spikes at or past the end
    ]:
        times, v = _voltage_trace(drive, np.array(weights), zero)
        qualifying = np.nonzero((times > drive.delays[drive.fired].min()) & (v >= 0.0))[0]
        assert (float(times[qualifying[0]]) if qualifying.size else None) == first
        crossing = threshold_crossing(drive, np.array(weights), zero)
        assert crossing == expected
        _assert_crossing_fits(crossing, drive, np.array(weights), zero, times, v, 0.0)
    # a negative first weight and a later positive one: the potential falls
    # from 0, then climbs back to 0 between 2 and 3
    drive, weights = inputs([1.0, 2.0]), np.array([-1.0, 2.0])
    crossing = threshold_crossing(drive, weights, zero)
    assert 2.0 < crossing < 3.0
    _assert_crossing_fits(crossing, drive, weights, zero,
                          *_voltage_trace(drive, weights, zero), 0.0)
    # before 0 the crossing waits for 0, and starts there if the potential reaches
    negative = SrmParams(v_threshold=-0.1)
    assert threshold_crossing(inputs([-1.0]), np.array([1.0]), negative) == 0.0
    assert threshold_crossing(inputs([-1.0]), np.array([1.0]), zero) == 0.0
    assert threshold_crossing(inputs([2.0]), np.array([1.0]), negative) == 2.0


def test_stronger_weights_never_delay_the_crossing():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        drive = inputs(rng.uniform(0.0, 10.0, n))
        weights = rng.uniform(0.5, 1.5, n)
        base = threshold_crossing(drive, weights, P)
        if base is None:
            continue
        boosted = weights.copy()
        boosted[rng.integers(n)] += rng.uniform(0.1, 1.0)
        later = threshold_crossing(drive, boosted, P)
        assert later is not None
        assert later <= base


def test_later_inputs_push_the_crossing_later():
    """The property the delay-averaging rule is a surrogate for."""
    weights = np.array([1.5, 1.5])
    early = threshold_crossing(inputs([0.0, 1.0]), weights, P)
    late = threshold_crossing(inputs([0.0, 4.0]), weights, P)
    assert early is not None and late is not None
    assert late > early


@pytest.mark.parametrize("delay, weight", [
    (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.nan), (1.0, np.inf),
])
def test_non_finite_fired_inputs_raise(delay, weight):
    drive = inputs([0.0, delay])
    weights = np.array([1.5, weight])
    with pytest.raises(ConfigError, match="finite"):
        _voltage_trace(drive, weights, P)
    with pytest.raises(ConfigError, match="finite"):
        threshold_crossing(drive, weights, P)


def test_unfired_inputs_may_carry_any_delay():
    drive = inputs([0.0, np.nan], fired=[True, False])
    _, v = _voltage_trace(drive, np.array([1.5, 1.0]), P)
    _, alone = _voltage_trace(inputs([0.0]), np.array([1.5]), P)
    assert np.array_equal(v, alone)


@given(
    fan_in=st.integers(min_value=1, max_value=500),
    tau_rise=st.floats(min_value=0.05, max_value=4.0),
    decay_ratio=st.floats(min_value=1.05, max_value=10.0),
    horizon_ratio=st.floats(min_value=1.0, max_value=2000.0),
    steps=st.integers(min_value=1, max_value=3000),
    threshold=st.floats(min_value=-2.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**31),
    digit_like=st.booleans(),
)
@example(fan_in=300, tau_rise=1.0, decay_ratio=4.0, horizon_ratio=2000.0,
         steps=2000, threshold=1.0, seed=0, digit_like=False)
@example(fan_in=40, tau_rise=1.0, decay_ratio=4.0, horizon_ratio=64.0,
         steps=640, threshold=0.0, seed=1, digit_like=False)
@settings(max_examples=60, deadline=None)
def test_closed_form_trace_matches_the_per_input_sum(
    fan_in, tau_rise, decay_ratio, horizon_ratio, steps, threshold, seed, digit_like
):
    horizon = tau_rise * horizon_ratio
    params = SrmParams(tau_decay=tau_rise * decay_ratio, tau_rise=tau_rise,
                       v_threshold=threshold, dt=horizon / steps, horizon=horizon)
    rng = np.random.default_rng(seed)
    if digit_like:
        # like encoded digits: fan-in 169 or 500, delays on at most 16 of the
        # 17 slots of a 16-unit window (a 64-unit horizon's first quarter),
        # most inputs at one slot
        fan_in = 169 if fan_in <= 250 else 500
        fired = rng.random(fan_in) < rng.uniform(0.2, 1.0)
        slots = rng.choice(17, int(rng.integers(1, 17)), replace=False) * (horizon / 64.0)
        delays = np.where(rng.random(fan_in) < rng.uniform(0.5, 1.0), slots[0],
                          rng.choice(slots, fan_in))
        weights = rng.normal(rng.uniform(-0.5, 1.0), rng.uniform(0.01, 3.0), fan_in)
    else:
        # delays before 0, on grid points, repeated, and past the horizon
        delays = rng.uniform(-0.1 * horizon, 1.2 * horizon, fan_in)
        on_grid = rng.random(fan_in) < 0.3
        delays[on_grid] = np.round(delays[on_grid] / params.dt) * params.dt
        repeated = rng.random(fan_in) < 0.2
        delays[repeated] = rng.choice(delays, int(repeated.sum()))
        delays[rng.random(fan_in) < 0.05] = steps * params.dt  # the grid's last point
        fired = rng.random(fan_in) < rng.uniform(0.2, 1.0)
        weights = rng.normal(rng.uniform(-0.5, 1.0), rng.uniform(0.01, 3.0), fan_in)
        # pairs of fired inputs at one delay whose weights cancel
        pairs = rng.permutation(fan_in)[: 2 * (fan_in // 8)].reshape(2, -1)
        delays[pairs[1]], weights[pairs[1]] = delays[pairs[0]], -weights[pairs[0]]
        fired[pairs[1]] = fired[pairs[0]] = True
    drive = inputs(delays, fired)

    times, v = _voltage_trace(drive, weights, params)
    ref_times, v_ref = reference.voltage_trace(drive, weights, params)
    assert np.array_equal(times, ref_times)
    assert np.all(np.isfinite(v))
    tolerance = 1e-9 * (1.0 + np.abs(weights[fired]).sum())
    assert np.max(np.abs(v - v_ref)) <= tolerance

    # the continuous crossing is exact and fits both traces' grid points
    crossing = threshold_crossing(drive, weights, params)
    _assert_crossing_fits(crossing, drive, weights, params, times, v, tolerance)
    _assert_crossing_fits(crossing, drive, weights, params, times, v_ref, 2 * tolerance)


def test_trace_of_many_slices_stays_near_its_result(monkeypatch):
    """A 1,000,001-point grid, about 15 slices, with spans that cross slice
    ends: the call's temporaries stay within 8 slices of float64 beside the
    returned grid and potential, the values match the per-input sum, and
    they are the bytes of the grid evaluated as one slice."""
    rng = np.random.default_rng(3)
    params = SrmParams(dt=1e-4, horizon=100.0)
    drive = inputs(rng.uniform(-1.0, 95.0, 12))
    weights = rng.normal(0.3, 1.0, 12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        times, v = _voltage_trace(drive, weights, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(times) > 15 * srm._TRACE_SLICE
    assert peak - times.nbytes - v.nbytes <= 8 * 8 * srm._TRACE_SLICE
    ref_times, v_ref = reference.voltage_trace(drive, weights, params)
    assert np.array_equal(times, ref_times)
    assert np.max(np.abs(v - v_ref)) <= 1e-9 * (1.0 + np.abs(weights).sum())
    monkeypatch.setattr(srm, "_TRACE_SLICE", len(times))
    assert v.tobytes() == _voltage_trace(drive, weights, params)[1].tobytes()


def test_crossing_memory_is_bounded_by_fan_in():
    """A 1.28M-point grid is never built: the crossing matches a 20x
    coarser grid's to within its step, in memory set by fan-in, not by the
    grid."""
    rng = np.random.default_rng(0)
    fan_in = 169
    drive = inputs(rng.uniform(0.0, 20.0, fan_in))
    weights = rng.uniform(0.0, 0.2, fan_in)
    coarse = threshold_crossing(drive, weights, SrmParams(dt=1e-3))
    fine = SrmParams(dt=5e-5)
    tracemalloc.start()
    try:
        crossing = threshold_crossing(drive, weights, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coarse is not None and crossing is not None
    assert abs(crossing - coarse) <= 1e-3
    assert peak < 8 * 32 * fan_in


# (drive, weights, params, k): merged input k's segment peaks inside its span;
# in the first, the kernel's peak time (ln 4 * 4/3 for tau 4 and 1) is a grid point
PEAKED_SEGMENTS = [
    (inputs([0.0]), np.array([1.0]), SrmParams(dt=math.log(4.0) * 4.0 / 3.0 / 185), 0),
    (inputs([0.0, 3.0]), np.array([0.6, 0.9]), P, 0),
    (inputs([0.0, 3.0]), np.array([0.6, 0.9]), P, 1),
    (inputs([2.0, 2.0, 9.5, 9.5]), np.array([0.7, -0.2, 1.1, 0.05]), P, 1),
]


@pytest.mark.parametrize("drive, weights, params, k", PEAKED_SEGMENTS)
@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("level", ["closed_form", "grid"])
def test_crossing_at_a_segment_peak_matches_the_trace(drive, weights, params, k, ulps, level):
    """Thresholds at one segment's closed-form peak or its largest grid
    value, and one ulp to either side, where the potential is flattest: the
    crossing is still exact and fits the trace."""
    scale, spans = srm._spans(drive.delays, drive.fired, weights, params)
    onset, a, b = spans[k + 1]  # span 0 carries no input
    td, tr = params.tau_decay, params.tau_rise
    s_star = td * tr / (td - tr) * math.log(b * td / (a * tr))
    end = spans[k + 2][0] if k + 2 < len(spans) else params.horizon
    assert 0.0 < s_star < end - onset  # the peak lies inside the segment
    times, v = _voltage_trace(drive, weights, params)
    if level == "closed_form":
        peak = scale * (a * math.exp(-s_star / td) - b * math.exp(-s_star / tr))
    else:
        peak = float(v[(times > onset) & (times <= end)].max())
    threshold = float(np.nextafter(peak, np.inf * ulps)) if ulps else peak
    params = dataclasses.replace(params, v_threshold=threshold)
    crossing = threshold_crossing(drive, weights, params)
    # float evaluations of a flat peak scatter by an ulp or so, either way
    _assert_crossing_fits(crossing, drive, weights, params, times, v, 1e-12)


def _digit_like_drive(seed):
    """Fan-in 169 or 500, delays on a few of the 17 slots of a 16-unit
    window with most inputs at one slot, weights of either sign."""
    rng = np.random.default_rng([seed, 18])
    fan_in = (169, 500)[seed % 2]
    fired = rng.random(fan_in) < rng.uniform(0.2, 1.0)
    slots = rng.choice(17, int(rng.integers(1, 17)), replace=False).astype(float)
    delays = np.where(rng.random(fan_in) < rng.uniform(0.5, 1.0), slots[0],
                      rng.choice(slots, fan_in))
    weights = rng.normal(rng.uniform(-0.05, 0.1), rng.uniform(0.01, 0.3), fan_in)
    return inputs(delays, fired), weights


def test_digit_like_crossings_are_pinned():
    """200 seeded drives (111 cross, at 111 distinct times): a change that
    moves any crossing by one float changes the digest."""
    crossings = [threshold_crossing(*_digit_like_drive(seed), P) for seed in range(200)]
    assert sum(c is not None for c in crossings) == 111
    text = "\n".join(repr(c) for c in crossings)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "594c01668180492db3537d7f16c0012ffa328a362e06e6a7c4524f43b4e5919f")


def test_byte_delay_rows_cross_like_their_float64_copy():
    """Rows of conv-coded digits, held in bytes, drive the SRM neurons as
    their float64 copies do: the same crossing for every weight column."""
    data = encode_dataset(make_digits(1, seed=9), preset("mt10_mnist_noheu").coding)
    assert data.delays.dtype == np.uint8
    # column means from -0.05 to 0.1: some columns cross, some do not
    weights = np.random.default_rng(4).normal(np.linspace(-0.05, 0.1, 20), 0.2, (169, 20))
    crossed = 0
    for delays, fired in zip(data.delays, data.fired):
        rows = DelayVector(delays, fired), DelayVector(delays.astype(np.float64), fired)
        for column in weights.T:
            got, want = (threshold_crossing(row, column, P) for row in rows)
            assert got == want
            crossed += got is not None
    assert 0 < crossed < weights.shape[1] * len(data)


def _digit_like_sweep(seed, columns=30):
    """A digit-like drive and ``columns`` weight columns of its fan-in."""
    drive, _ = _digit_like_drive(seed)
    rng = np.random.default_rng([seed, 20])
    weights = rng.normal(rng.uniform(-0.05, 0.1), rng.uniform(0.01, 0.3),
                         (drive.delays.size, columns))
    return drive, weights


def test_weight_column_sweeps_are_pinned():
    """50 drives x 30 columns, each drive's columns called in turn as the
    benchmark does (884 cross, at 884 distinct times)."""
    crossings = []
    for seed in range(200, 250):
        drive, weights = _digit_like_sweep(seed)
        crossings += [threshold_crossing(drive, weights[:, j], P) for j in range(30)]
    assert sum(c is not None for c in crossings) == 884
    text = "\n".join(repr(c) for c in crossings)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "867b7f5f1d8411af0468fd06f0dc64ceab41e21b4331fe98f5cb233c8036ed7c")


def test_benchmark_like_crossings_are_pinned():
    """The benchmark's kind of drive: 20 conv-coded digits (fan-in 169) and
    the hidden delays they give a seeded 169-500-10 net with weights in
    (-0.5, 0.5) (fan-in 500, half of them at the window), each drive met by
    the net's weight columns in turn (431 of 1,000 cross, at 431 distinct
    times)."""
    coding = preset("mt10_mnist_noheu").coding
    data = encode_dataset(make_digits(2, seed=11), coding)
    net = init_network([169, 500, 10], np.random.default_rng(33), (-0.5, 0.5),
                       window=coding.params.window)
    hidden = forward_batch(net, data.delays).delays[1]
    assert np.mean(hidden == coding.params.window) > 0.4
    crossings = []
    for delays, fired, row in zip(data.delays, data.fired, hidden):
        for drive, weights in ((DelayVector(delays, fired), net.weights[0][:, :40]),
                               (inputs(row), net.weights[1])):
            crossings += [threshold_crossing(drive, column, P) for column in weights.T]
    assert sum(c is not None for c in crossings) == 431
    text = "\n".join(repr(c) for c in crossings)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3b8df47b6614ce3446a82f138627cc639f8b0bd91b8e35d86ed5b44b9b5d415c")


def _first_qualifying(drive, weights, params):
    times, v = _voltage_trace(drive, weights, params)
    qualifying = np.nonzero((times > drive.delays[drive.fired].min())
                            & (v >= params.v_threshold))[0]
    return float(times[qualifying[0]]) if qualifying.size else None


def test_column_sweeps_match_the_trace():
    """One drive, many weight columns: a merged group's weights cancel in
    some columns and not in others, and every crossing still fits the trace,
    whichever order the columns come in."""
    rng = np.random.default_rng(7)
    drive = inputs([1.0, 1.0, 2.5, 2.5, 2.5, 4.0, 6.0, 90.0])
    columns = rng.uniform(-0.3, 1.5, (40, 8))
    columns[::3, 1] = -columns[::3, 0]  # the group at 1.0 cancels
    columns[1::3, 4] = -(columns[1::3, 2] + columns[1::3, 3])  # the group at 2.5 cancels
    expected = [_first_qualifying(drive, w, P) for w in columns]
    assert sum(c is not None for c in expected[::3]) > 3
    assert sum(c is not None for c in expected[1::3]) > 3
    assert len(set(expected)) > 20
    crossings = [threshold_crossing(drive, w, P) for w in columns]
    for crossing, w in zip(crossings, columns):
        _assert_crossing_fits(crossing, drive, w, P, *_voltage_trace(drive, w, P), 1e-9)
    assert [threshold_crossing(drive, w, P) for w in columns[::-1]] == crossings[::-1]


_UNRELATED = inputs([7.0, 9.0, 11.0])


def _cold(drive, weights, params):
    """Crossing and trace, each computed right after a call on an unrelated drive."""
    copy = DelayVector(drive.delays.copy(), drive.fired.copy())
    threshold_crossing(_UNRELATED, np.ones(3), P)
    crossing = threshold_crossing(copy, weights, params)
    threshold_crossing(_UNRELATED, np.ones(3), P)
    return crossing, _voltage_trace(copy, weights, params)


def _matches_cold(drive, weights, params):
    """Crossing and trace bytes of ``drive`` right after whatever calls came
    before; both must equal a cold call's."""
    crossing = threshold_crossing(drive, weights, params)
    times, v = _voltage_trace(drive, weights, params)
    cold_crossing, (cold_times, cold_v) = _cold(drive, weights, params)
    assert crossing == cold_crossing
    assert np.array_equal(times, cold_times) and np.array_equal(v, cold_v)
    return crossing, v.tobytes()


@pytest.mark.parametrize("edit", ["delays", "fired"])
def test_drive_edited_in_place_matches_cold_calls(edit):
    """The drive stage kept from the last call is reused only for the same
    delays, flags and grid; an array edited in place counts as new."""
    weights = np.array([1.5, 1.0, 1.2, 2.5])
    drive = inputs([0.0, 0.5, 2.0, 5.0])
    before = _matches_cold(drive, weights, P)
    if edit == "delays":
        drive.delays[1] = 2.0
    else:
        drive.fired[1] = False
    assert _matches_cold(drive, weights, P) != before


def test_alternating_drives_match_cold_calls():
    weights = np.array([1.5, 1.0, 1.2, 2.5])
    a, b = inputs([0.0, 1.0, 1.0, 3.0]), inputs([0.0, 2.0, 2.0, 6.0])
    seen = [_matches_cold(drive, weights, P) for drive in (a, b, a)]
    assert seen[0] == seen[2] != seen[1]


@pytest.mark.parametrize("field, value", [
    ("dt", 0.1), ("horizon", 16.0), ("tau_decay", 8.0), ("tau_rise", 2.0),
])
def test_drive_under_other_params_matches_cold_calls(field, value):
    # the input at 20 drives the crossing, and a 16-unit horizon leaves it out
    drive = inputs([1.0, 3.0, 20.0])
    weights = np.array([0.1, 0.1, 3.0])
    base = _matches_cold(drive, weights, P)
    assert _matches_cold(drive, weights, dataclasses.replace(P, **{field: value})) != base


def test_drive_errors_repeat_and_keep_their_order():
    """A rejected drive raises on every call, the weights are checked
    before the delays, and a zero-weight input is dropped before any delay
    is divided by a time constant."""
    bad = inputs([0.0, np.inf])
    for _ in range(2):
        for simulate in (threshold_crossing, _voltage_trace):
            with pytest.raises(ConfigError, match="fired input delays must be finite"):
                simulate(bad, np.array([1.0, 1.0]), P)
            with pytest.raises(ConfigError, match="SRM weights must be finite"):
                simulate(bad, np.array([1.0, np.nan]), P)
    drive = inputs([-1e308, 0.0])
    fast = SrmParams(tau_rise=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            assert 0.47 < threshold_crossing(drive, np.array([0.0, 2.0]), fast) <= 0.48
            assert _first_qualifying(drive, np.array([0.0, 2.0]), fast) == 0.48


def test_fired_delay_over_tau_rise_past_the_float_range_raises():
    """-1e308 / 0.5 overflows: a fired input there with a nonzero weight is
    refused on every call, while with a zero weight, or in a group whose
    weights sum to 0, it drops out and the crossing and trace are those of
    the input at 1 alone."""
    fast = SrmParams(tau_rise=0.5)
    for _ in range(2):
        for simulate in (threshold_crossing, _voltage_trace):
            with pytest.raises(ConfigError, match="fired delay / tau_rise must be finite"):
                simulate(inputs([-1e308, 1.0]), np.array([0.5, 2.0]), fast)
    alone = threshold_crossing(inputs([1.0]), np.array([2.0]), fast)
    _, alone_v = _voltage_trace(inputs([1.0]), np.array([2.0]), fast)
    assert alone is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delays, weights in (([-1e308, 1.0], [0.0, 2.0]),
                                ([-1e308, 1.0, -1e308], [0.75, 2.0, -0.75])):
            for _ in range(2):
                assert threshold_crossing(inputs(delays), np.array(weights), fast) == alone
                _, v = _voltage_trace(inputs(delays), np.array(weights), fast)
                assert v.tobytes() == alone_v.tobytes()


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    idle_share=st.floats(min_value=0.01, max_value=0.9),
    exponent=st.floats(min_value=-300.0, max_value=308.0),
)
@example(seed=0, idle_share=0.5, exponent=308.0)
@settings(max_examples=60, deadline=None)
def test_inputs_that_do_not_act_never_move_a_crossing(seed, idle_share, exponent):
    """Digit-like drives with some inputs unfired or at or past the grid's
    end: weights of up to 1e308 on those inputs leave the crossing and the
    trace's bytes as weights of 0 do, and a NaN among them is still refused."""
    drive, weights = _digit_like_drive(seed)
    rng = np.random.default_rng([seed, 21])
    n = weights.size
    idle = rng.random(n) < idle_share
    idle[rng.integers(n)] = True
    past = idle & (rng.random(n) < 0.5)  # fired, at or past the end; the rest unfired
    end = round(P.horizon / P.dt) * P.dt
    delays = np.where(past, rng.choice([end, end + P.dt, 1e300], n), drive.delays)
    drive = inputs(delays, (drive.fired & ~idle) | past)
    huge, zero = weights.copy(), weights.copy()
    huge[idle] = rng.choice([-1.0, 1.0], n)[idle] * 10.0 ** exponent
    zero[idle] = 0.0
    crossing = threshold_crossing(drive, zero, P)
    assert threshold_crossing(drive, huge, P) == crossing
    assert (_voltage_trace(drive, huge, P)[1].tobytes()
            == _voltage_trace(drive, zero, P)[1].tobytes())
    huge[np.flatnonzero(idle)[0]] = np.nan
    for simulate in (threshold_crossing, _voltage_trace):
        with pytest.raises(ConfigError, match="SRM weights must be finite"):
            simulate(drive, huge, P)


@given(
    fan_in=st.integers(min_value=1, max_value=500),
    tau_rise=st.floats(min_value=0.05, max_value=4.0),
    decay_ratio=st.floats(min_value=1.05, max_value=10.0),
    horizon_ratio=st.floats(min_value=1.0, max_value=200.0),
    steps=st.integers(min_value=1, max_value=3000),
    threshold=st.floats(min_value=-2.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**31),
    digit_like=st.booleans(),
    k=st.integers(min_value=0, max_value=600),
)
@example(fan_in=169, tau_rise=1.0, decay_ratio=4.0, horizon_ratio=64.0,
         steps=6400, threshold=1.0, seed=0, digit_like=True, k=600)
@settings(max_examples=60, deadline=None)
def test_power_of_two_weights_scale_the_potential_exactly(
    fan_in, tau_rise, decay_ratio, horizon_ratio, steps, threshold, seed, digit_like, k
):
    """Weights times ``2**k`` give the trace times ``2**k`` bit for bit, and
    the crossing of threshold times ``2**k``, for k in -600..600.  Horizons
    stay within 200 time constants: further out a potential can fall below
    the normal float range, where a product with ``2**k`` rounds."""
    horizon = tau_rise * horizon_ratio
    params = SrmParams(tau_decay=tau_rise * decay_ratio, tau_rise=tau_rise,
                       v_threshold=threshold, dt=horizon / steps, horizon=horizon)
    rng = np.random.default_rng(seed)
    if digit_like:
        drive, weights = _digit_like_drive(seed)
    else:
        # delays before 0, repeated, on the grid's last point and past it
        delays = rng.uniform(-0.1 * horizon, 1.2 * horizon, fan_in)
        repeated = rng.random(fan_in) < 0.2
        delays[repeated] = rng.choice(delays, int(repeated.sum()))
        delays[rng.random(fan_in) < 0.05] = steps * params.dt
        drive = inputs(delays, rng.random(fan_in) < rng.uniform(0.2, 1.0))
        weights = rng.normal(rng.uniform(-0.5, 1.0), rng.uniform(0.01, 3.0), fan_in)
    times, v = _voltage_trace(drive, weights, params)
    crossing = threshold_crossing(drive, weights, params)
    for power in (2.0 ** k, 2.0 ** -k):
        scaled_times, scaled_v = _voltage_trace(drive, weights * power, params)
        assert scaled_times.tobytes() == times.tobytes()
        assert scaled_v.tobytes() == (v * power).tobytes()
        if threshold * power / power == threshold:  # the scaled threshold is exact
            raised = dataclasses.replace(params, v_threshold=threshold * power)
            assert threshold_crossing(drive, weights * power, raised) == crossing


def test_crossing_past_the_float_range_warns_nothing():
    """The potential of four weights of 1.7e308 at one delay reaches threshold
    one float past the delay and passes the float range soon after; the
    trace refuses such a drive."""
    drive, weights = inputs([2.0] * 4), np.full(4, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert threshold_crossing(drive, weights, P) == math.nextafter(2.0, math.inf)
        with pytest.raises(ConfigError, match="exceeds the float range"):
            _voltage_trace(drive, weights, P)
