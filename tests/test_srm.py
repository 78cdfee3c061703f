"""Reference SRM neuron: kernel shape, voltage traces, threshold crossings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_srm as reference
from mtspike import srm
from mtspike.coding import DelayVector
from mtspike.errors import ConfigError
from mtspike.srm import (
    SrmParams,
    psp_kernel,
    threshold_crossing,
    voltage_trace,
)

P = SrmParams()


def inputs(delays, fired=None):
    delays = np.asarray(delays, dtype=float)
    if fired is None:
        fired = np.ones(delays.shape[0], dtype=bool)
    return DelayVector(delays=delays, fired=np.asarray(fired, dtype=bool))


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
    times, v = voltage_trace(inputs([0.0, 2.0]), np.array([1.0, 0.5]), P)
    assert times[0] == 0.0 and times[-1] == pytest.approx(P.horizon)
    expected = psp_kernel(times, 0.0, P) + 0.5 * psp_kernel(times, 2.0, P)
    assert np.allclose(v, expected)


def test_unfired_inputs_contribute_nothing():
    _, with_all = voltage_trace(inputs([0.0, 1.0]), np.array([1.0, 5.0]), P)
    _, gated = voltage_trace(inputs([0.0, 1.0], fired=[True, False]),
                             np.array([1.0, 5.0]), P)
    _, alone = voltage_trace(inputs([0.0]), np.array([1.0]), P)
    assert np.allclose(gated, alone[: len(gated)])
    assert not np.allclose(with_all, gated)


def test_voltage_trace_weight_shape_check():
    with pytest.raises(ConfigError):
        voltage_trace(inputs([0.0, 1.0]), np.array([1.0]), P)


def test_threshold_crossing_against_fine_grid():
    drive = inputs([0.0, 1.0])
    weights = np.array([1.5, 1.5])
    crossing = threshold_crossing(drive, weights, P)
    assert crossing is not None
    fine = SrmParams(dt=0.0005)
    reference = threshold_crossing(drive, weights, fine)
    assert crossing == pytest.approx(reference, abs=2 * P.dt)
    # the crossing really is the first grid point at or above threshold
    times, v = voltage_trace(drive, weights, P)
    before = v[(times > 0.0) & (times < crossing)]
    assert np.all(before < P.v_threshold)


def test_no_crossing_returns_none():
    assert threshold_crossing(inputs([0.0]), np.array([0.1]), P) is None
    assert threshold_crossing(inputs([0.0], fired=[False]), np.array([9.9]), P) is None


def test_crossing_candidates_start_after_first_spike():
    # a zero threshold must not report a phantom crossing at t = 0
    zero = SrmParams(v_threshold=0.0)
    crossing = threshold_crossing(inputs([5.0]), np.array([1.0]), zero)
    assert crossing is not None
    assert crossing > 5.0


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
        voltage_trace(drive, weights, P)
    with pytest.raises(ConfigError, match="finite"):
        threshold_crossing(drive, weights, P)


def test_unfired_inputs_may_carry_any_delay():
    drive = inputs([0.0, np.nan], fired=[True, False])
    _, v = voltage_trace(drive, np.array([1.5, 1.0]), P)
    _, alone = voltage_trace(inputs([0.0]), np.array([1.5]), P)
    assert np.array_equal(v, alone)


@given(
    fan_in=st.integers(min_value=1, max_value=500),
    tau_rise=st.floats(min_value=0.05, max_value=4.0),
    decay_ratio=st.floats(min_value=1.05, max_value=10.0),
    horizon_ratio=st.floats(min_value=1.0, max_value=2000.0),
    steps=st.integers(min_value=1, max_value=3000),
    threshold=st.floats(min_value=-2.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(fan_in=300, tau_rise=1.0, decay_ratio=4.0, horizon_ratio=2000.0,
         steps=2000, threshold=1.0, seed=0)
@example(fan_in=40, tau_rise=1.0, decay_ratio=4.0, horizon_ratio=64.0,
         steps=640, threshold=0.0, seed=1)
@settings(max_examples=60, deadline=None)
def test_closed_form_trace_matches_the_per_input_sum(
    fan_in, tau_rise, decay_ratio, horizon_ratio, steps, threshold, seed
):
    horizon = tau_rise * horizon_ratio
    params = SrmParams(tau_decay=tau_rise * decay_ratio, tau_rise=tau_rise,
                       v_threshold=threshold, dt=horizon / steps, horizon=horizon)
    rng = np.random.default_rng(seed)
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

    times, v = voltage_trace(drive, weights, params)
    ref_times, v_ref = reference.voltage_trace(drive, weights, params)
    assert np.array_equal(times, ref_times)
    assert np.all(np.isfinite(v))
    tolerance = 1e-9 * (1.0 + np.abs(weights[fired]).sum())
    assert np.max(np.abs(v - v_ref)) <= tolerance

    # the crossing is exactly the first qualifying point of the trace itself
    crossing = threshold_crossing(drive, weights, params)
    qualifying = np.nonzero((times > delays[fired].min()) & (v >= threshold))[0] \
        if fired.any() else []
    assert crossing == (float(times[qualifying[0]]) if len(qualifying) else None)

    ref_crossing = reference.threshold_crossing(drive, weights, params)
    if crossing != ref_crossing:
        # only a grid point the two sums put on either side of threshold
        first = min(c for c in (crossing, ref_crossing) if c is not None)
        at = np.nonzero(times == first)[0][0]
        assert abs(v_ref[at] - threshold) <= 1e-9


def test_crossing_memory_is_bounded_by_fan_in_and_scan_chunk():
    """A 1.28M-point grid is searched, never built: the crossing matches a
    20x coarser grid's to within its step, in memory set by fan-in and the
    scan chunk, not by the grid."""
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
    assert peak < 8 * (32 * fan_in + 8 * srm._SCAN_CHUNK)
