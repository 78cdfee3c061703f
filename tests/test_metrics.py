"""Accuracy, spike counting, and abstract energy."""

import importlib.util
import math
from dataclasses import replace
from fractions import Fraction

import _reference_exact
import _reference_predict
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, make_digits
from mtspike import metrics
from mtspike.config import preset
from mtspike.datasets import EncodedDataset, RawDataset, encode_dataset
from mtspike.errors import ConfigError, StructureError
from mtspike.metrics import (
    _SLICE,
    _summarize,
    dataset_spike_count,
    energy,
    evaluate,
    predict,
)
from mtspike.network import Network, forward_batch, init_network
from mtspike.readout import TargetScheme, read_class_batch

MULTI3 = TargetScheme(mode="multi_neuron", window=16.0, num_classes=3,
                      excitatory_offset=0.0, inhibitory_offset=4.0)
FEWEST = _SLICE // 4  # the fewest rows that predict sweeps in float32
HALF = _SLICE // 2


def identity_net(n):
    """n inputs to n outputs in the readouts' window of 16, each output
    echoing one scaled input 16 later."""
    return Network(layer_sizes=[n, n], weights=[np.eye(n) * n], window=16.0)


def _rows(rng, halves):
    """``halves`` times ``HALF`` rows, plus fewer than ``HALF`` more."""
    return halves * HALF + int(rng.integers(0, HALF))


def test_evaluate_accuracy_and_confusion():
    # outputs equal inputs, so the earliest input delay decides the class
    net = identity_net(3)
    delays = np.array([
        [1.0, 5.0, 5.0],   # class 0, correct
        [5.0, 1.0, 5.0],   # class 1, correct
        [1.0, 5.0, 5.0],   # labelled 2, predicted 0
    ])
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=np.array([0, 1, 2]))
    accuracy, confusion = evaluate(net, data, MULTI3)
    assert accuracy == pytest.approx(2 / 3)
    assert confusion.tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
    assert confusion.sum() == len(data)


def test_evaluate_rejects_a_bad_label_in_the_last_block_only(monkeypatch):
    rows = 2 * _SLICE + 5
    delays = np.tile([1.0, 5.0, 5.0], (rows, 1))
    labels = np.zeros(rows, dtype=int)
    labels[-1] = 3
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool), labels=labels)
    calls = _counted_forward(monkeypatch)
    with pytest.raises(ConfigError, match="label 3 is outside") as caught:
        evaluate(identity_net(3), data, MULTI3)
    assert caught.value.code == "E_CONFIG"
    assert calls == []  # rejected before any row is classified


SCHEMES = {
    "multi_neuron": lambda classes, window=16.0: TargetScheme(
        mode="multi_neuron", window=window, num_classes=classes,
        excitatory_offset=0.0, inhibitory_offset=4.0),
    "single_neuron": lambda classes, window=16.0: TargetScheme(
        mode="single_neuron", window=window, num_classes=classes, excitatory_offset=3.0),
}


@pytest.mark.parametrize("call", [predict, evaluate])
@pytest.mark.parametrize("misfit", ["multi_neuron", "single_neuron", "wide", "window"])
def test_a_set_that_does_not_fit_raises_before_any_forward_pass(monkeypatch, call, misfit):
    """A readout narrower than the 3-neuron output layer, a one-neuron
    readout of 3 classes, rows wider than the input layer, or a readout
    window other than the net's: the sweep path's float32 bound and
    ``readout._scores`` never see them."""
    delays = (5.0 - 4.0 * np.eye(3))[np.arange(FEWEST + 1) % 3]  # classes 0, 1, 2
    scheme, error, match = {
        "multi_neuron": (SCHEMES["multi_neuron"](2), ConfigError, "readout expects 2 output"),
        "single_neuron": (SCHEMES["single_neuron"](3), ConfigError, "readout expects 1 output"),
        "wide": (MULTI3, StructureError, "input width 4 does not match input layer size 3"),
        "window": (replace(MULTI3, window=8.0), ConfigError,
                   "readout window 8.0 differs from coding window 16.0"),
    }[misfit]
    if misfit == "wide":
        delays = np.hstack([delays, delays[:, :1]])
    calls = _counted_forward(monkeypatch)
    with pytest.raises(error, match=match) as caught:
        call(identity_net(3), class0(delays), scheme)
    assert caught.value.code == error.code
    assert calls == []


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    depth=st.integers(min_value=2, max_value=4),
    rows=st.sampled_from([1, FEWEST - 1, FEWEST, _SLICE - 1, _SLICE, _SLICE + 1]),
    mode=st.sampled_from(sorted(SCHEMES)),
    classes=st.integers(min_value=1, max_value=6),
)
@example(seed=0, depth=2, rows=FEWEST, mode="multi_neuron", classes=1)
@example(seed=1, depth=3, rows=_SLICE + 1, mode="single_neuron", classes=1)
@settings(max_examples=60, deadline=None)
def test_predict_matches_one_whole_set_pass(seed, depth, rows, mode, classes):
    """Sliced prediction classifies like one ``forward_batch`` over the set.

    Sets of more than one slice may round each output by an ulp, which can
    only flip a row whose two best scores (delays, or distances to the
    checkpoints) nearly tie; up to one slice, the reference's call is the
    same and so is every class.
    """
    rng = np.random.default_rng(seed)
    scheme = SCHEMES[mode](classes)
    sizes = [int(n) for n in rng.integers(1, 40, depth - 1)] + [scheme.output_size]
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0), window=16.0)
    delays = rng.uniform(0.0, 16.0, (rows, sizes[0]))
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=rng.integers(0, classes, rows))
    predicted = predict(net, data, scheme)
    outputs = forward_batch(net, delays).outputs
    whole = read_class_batch(scheme, outputs)
    assert predicted.shape == (rows,)
    if rows <= _SLICE:
        assert predicted.tolist() == whole.tolist()
        return
    if classes == 1:  # one score per row: nothing to tie
        assert predicted.tolist() == whole.tolist() == [0] * rows
        return
    scores = outputs if mode == "multi_neuron" else np.abs(outputs - scheme.checkpoints)
    best_two = np.sort(scores, axis=1)[:, :2]
    clear = best_two[:, 1] - best_two[:, 0] > 1e-9
    assert (predicted[clear] == whole[clear]).all()


def class0(delays):
    """Every row of ``delays`` labelled 0, every input fired."""
    return EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=np.zeros(len(delays), dtype=int))


def _counted_forward(monkeypatch):
    """Record ``(dtype, rows)`` of the trace of every ``forward_batch`` call
    ``predict`` makes."""
    calls = []

    def counted(net, x):
        trace = forward_batch(net, x)
        calls.append((trace.outputs.dtype, len(x)))
        return trace

    monkeypatch.setattr(metrics, "forward_batch", counted)
    return calls


def _recorded_sweeps(monkeypatch):
    """Record the ``edges`` of every ``metrics._sweep`` call."""
    sweeps = []
    sweep = metrics._sweep

    def recorded(weights, window, x, edges):
        sweeps.append(tuple(edges))
        return sweep(weights, window, x, edges)

    monkeypatch.setattr(metrics, "_sweep", recorded)
    return sweeps


def _shift_columns_negative(net, rng):
    """Push a random half of the first layer's columns below zero: on
    non-negative delays those neurons are silent, and the sweep skips them."""
    first = net.weights[0]
    first[:, rng.random(first.shape[1]) < 0.5] -= 1.5


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    depth=st.integers(min_value=2, max_value=4),
    blocks=st.integers(min_value=2, max_value=4),
    mode=st.sampled_from(sorted(SCHEMES)),
    classes=st.integers(min_value=1, max_value=6),
    power=st.integers(min_value=-45, max_value=40),
    window=st.sampled_from([0.0, 0.5, 16.0, 1e38]),
    negative=st.booleans(),
    tie=st.sampled_from(["none", "exact", "ulp"]),
    shift=st.booleans(),
)
@example(seed=0, depth=2, blocks=2, mode="multi_neuron", classes=3, power=0,
         window=16.0, negative=False, tie="exact", shift=False)
@example(seed=1, depth=3, blocks=3, mode="multi_neuron", classes=4, power=0,
         window=0.0, negative=True, tie="ulp", shift=False)
@example(seed=2, depth=2, blocks=2, mode="single_neuron", classes=3, power=-40,
         window=0.0, negative=False, tie="none", shift=False)
@example(seed=3, depth=4, blocks=2, mode="multi_neuron", classes=3, power=20,
         window=16.0, negative=False, tie="none", shift=False)
# one class: a single score column, settled without comparing scores
@example(seed=4, depth=3, blocks=2, mode="multi_neuron", classes=1, power=0,
         window=16.0, negative=False, tie="exact", shift=False)
@example(seed=5, depth=2, blocks=2, mode="single_neuron", classes=1, power=0,
         window=0.5, negative=True, tie="none", shift=False)
# a one-layer net whose window lies past float32's range: no bound, float64 slices
@example(seed=6, depth=2, blocks=2, mode="multi_neuron", classes=3, power=0,
         window=1e38, negative=False, tie="none", shift=False)
# 12 of the first layer's 27 neurons are silent on every row: the sweep skips them
@example(seed=7, depth=3, blocks=3, mode="multi_neuron", classes=4, power=0,
         window=16.0, negative=False, tie="ulp", shift=True)
@settings(max_examples=80, deadline=None)
def test_predict_classifies_like_the_blocked_float64_reference(
        seed, depth, blocks, mode, classes, power, window, negative, tie, shift):
    """Every class equals the float64 slices' class, for ``blocks`` times
    ``HALF`` rows and fewer than ``HALF`` more, wherever float32
    underflows, overflows or cannot separate two outputs, and wherever the
    sweep skips first-layer neurons that ``shift`` makes silent.

    In the multi-neuron regime, ``tie`` copies output column 0 into column
    1 ("exact"), or with each weight one float32 ulp up or down ("ulp"), so
    that float32 rounding can order the two outputs either way; with one
    class there is no second column to tie.
    """
    rng = np.random.default_rng(seed)
    scheme = SCHEMES[mode](classes, window)
    rows = _rows(rng, blocks)
    sizes = [int(n) for n in rng.integers(1, 40, depth - 1)] + [scheme.output_size]
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0), window=window)
    if shift:
        _shift_columns_negative(net, rng)
    for w in net.weights:
        w *= 10.0 ** power
    if mode == "multi_neuron" and tie != "none" and classes > 1:
        last = net.weights[-1]
        last[:, 1] = last[:, 0]
        if tie == "ulp" and np.abs(last[:, 0]).max() < np.finfo(np.float32).max:
            away = np.where(rng.random(len(last)) < 0.5, -np.inf, np.inf).astype(np.float32)
            last[:, 1] = np.nextafter(last[:, 0].astype(np.float32), away)
    low = -16.0 if negative else 0.0
    delays = rng.uniform(low, 16.0, (rows, sizes[0]))
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=rng.integers(0, classes, rows))
    assert predict(net, data, scheme).tolist() == _reference_predict.predict(
        net, data, scheme).tolist()


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    depth=st.integers(min_value=2, max_value=4),
    blocks=st.integers(min_value=2, max_value=4),
    outputs=st.integers(min_value=1, max_value=6),
    powers=st.lists(st.integers(min_value=-45, max_value=40), min_size=3, max_size=3),
    window=st.sampled_from([0.0, 0.5, 16.0]),
    negative=st.booleans(),
    shift=st.booleans(),
)
# |W| / n below float32's smallest normal: every prescaled weight underflows
@example(seed=0, depth=3, blocks=2, outputs=3, powers=[-40, -40, -40], window=0.0,
         negative=False, shift=False)
# hidden delays near 1e13 through subnormal prescaled weights: their rounding
# moves the outputs past every term of the bound but the underflow term
@example(seed=1, depth=3, blocks=3, outputs=2, powers=[13, -43, 0], window=0.0,
         negative=False, shift=False)
# silent first-layer neurons, skipped by the sweep, beside subnormal prescaled
# weights: 17 of 35 (seed 4) and the only one (seed 5, no live column)
@example(seed=4, depth=3, blocks=2, outputs=3, powers=[0, -43, 0], window=16.0,
         negative=False, shift=True)
@example(seed=5, depth=3, blocks=2, outputs=3, powers=[0, -43, 0], window=16.0,
         negative=False, shift=True)
@settings(max_examples=80, deadline=None)
def test_float32_sweep_lies_within_the_bounds_of_the_float64_blocks(
        seed, depth, blocks, outputs, powers, window, negative, shift):
    """Every output of the float32 sweep, in slices of up to ``_SLICE``
    rows, lies within ``bound32 + bound64`` of the float64
    ``forward_batch`` output of its row in its slice, the two passes
    ``predict``'s certificate compares; layer ``l``'s
    weights are scaled by ``10 ** powers[l]``, and ``shift`` makes some
    first-layer neurons silent, so that the sweep skips them."""
    rng = np.random.default_rng(seed)
    rows = _rows(rng, blocks)
    sizes = [int(n) for n in rng.integers(1, 40, depth - 1)] + [outputs]
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0), window=window)
    if shift:
        _shift_columns_negative(net, rng)
    for w, power in zip(net.weights, powers):
        w *= 10.0 ** power
    low = -16.0 if negative else 0.0
    x = rng.uniform(low, 16.0, (rows, sizes[0]))
    single = metrics._folded(net, x)
    assume(single is not None)
    weights, (bound32, bound64) = single
    slices = metrics._edges(rows, -(-rows // _SLICE))
    swept = metrics._sweep(weights, net.window, x, slices)
    assert swept.dtype == np.float32 and swept.shape == (rows, outputs)
    blocked = np.concatenate([forward_batch(net, x[a:b]).outputs
                              for a, b in zip(slices, slices[1:])])
    assert (np.abs(swept.astype(np.float64) - blocked) <= bound32 + bound64).all()


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=4),
    rows=st.integers(min_value=1, max_value=40),
    powers=st.lists(st.integers(min_value=-45, max_value=40), min_size=3, max_size=3),
    scale=st.integers(min_value=-40, max_value=30),
    window=st.sampled_from([0.0, 0.5, 16.0]),
    delays=st.sampled_from(["float64", "negative", "uint8"]),
    shift=st.booleans(),
)
# 3 of the first layer's 6 neurons folded into one
@example(seed=0, sizes=[5, 6, 3], rows=40, powers=[0, 0, 0], scale=0, window=16.0,
         delays="float64", shift=True)
# subnormal prescaled weights after a fold, and byte delays
@example(seed=1, sizes=[8, 8, 4, 2], rows=33, powers=[0, -43, 0], scale=0, window=0.0,
         delays="uint8", shift=True)
# subnormal float32 delays into large weights
@example(seed=2, sizes=[4, 3], rows=7, powers=[30, 0, 0], scale=-40, window=0.5,
         delays="negative", shift=False)
# hidden delays near 1e13 through subnormal prescaled weights: only the
# underflow term of the bound covers their rounding
@example(seed=1, sizes=[8, 8, 2], rows=40, powers=[13, -43, 0], scale=0, window=0.0,
         delays="float64", shift=False)
@settings(max_examples=60, deadline=None)
def test_each_pass_lies_within_its_own_bound_of_the_exact_outputs(
        seed, sizes, rows, powers, scale, window, delays, shift):
    """Every float32 output of the sweep through ``_folded``'s network lies
    within ``bound32`` of the unfolded net's exact output
    (``_reference_exact``), and every float64 ``forward_batch`` output
    within ``bound64`` of it: each bound alone, against exact arithmetic.
    Layer ``l``'s weights are scaled by ``10 ** powers[l]`` and float
    delays by ``10 ** scale``; ``shift`` makes some first-layer neurons
    silent, so that the sweep folds them."""
    rng = np.random.default_rng(seed)
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0), window=window)
    if shift:
        _shift_columns_negative(net, rng)
    for w, power in zip(net.weights, powers):
        w *= 10.0 ** power
    if delays == "uint8":
        x = rng.integers(0, 256, (rows, sizes[0])).astype(np.uint8)
    else:
        x = rng.uniform(-16.0 if delays == "negative" else 0.0, 16.0, (rows, sizes[0]))
        x *= 10.0 ** scale
    single = metrics._folded(net, x)
    assume(single is not None)
    weights, bounds = single
    exact = _reference_exact.forward(net, x)
    swept = metrics._sweep(weights, net.window, x, [0, rows])
    for outputs, bound in ((swept, bounds[0]), (forward_batch(net, x).outputs, bounds[1])):
        for row, want in zip(outputs.tolist(), exact):
            assert all(abs(Fraction(v) - e) <= Fraction(float(bound)) for v, e in zip(row, want))


_QUARTER = float(np.finfo(np.float32).max) / 4  # float32's range check
_WIDE = 2**22 - 1  # (n + 2) u > 1/4 in float32: views of one value, no memory
_TRIPS = {  # (check, weight matrix): (weights, window, rows) on which that check fails first
    ("fan-in", 0): ([np.broadcast_to(1.0, (_WIDE, 1))], 0.0, np.broadcast_to(1.0, (1, _WIDE))),
    ("inputs", 0): ([np.full((3, 2), 0.1), np.ones((2, 2))], 0.0, np.full((4, 3), 1e38)),
    ("inputs", 1): ([np.ones((3, 2)), np.full((2, 2), 0.1)], 1e38, np.ones((4, 3))),
    ("partial sums", 0): ([np.full((3, 2), 1e10), np.ones((2, 2))], 0.0, np.full((4, 3), 1e30)),
    ("partial sums", 1): ([np.full((3, 2), 1e30), np.full((2, 2), 1e10)], 0.0, np.ones((4, 3))),
    ("column sums", 0): ([np.full((3, 2), 1e38), np.ones((2, 2))], 0.0, np.full((4, 3), 1e-10)),
    ("column sums", 1): ([np.ones((3, 2)), np.full((2, 2), 1e38)], 0.0, np.full((4, 3), 1e-10)),
    ("outputs", 0): ([np.ones((3, 2))], 1e38, np.ones((4, 3))),
    ("outputs", 1): ([np.ones((3, 1)), np.ones((1, 2))], 0.9 * _QUARTER, np.ones((4, 3))),
    # float32's partial sums reach only 1.25 f / 500 here (f its largest
    # number), but the check takes the float64 pass's (ROADMAP item 19(a))
    ("partial sums, 500-3 at f / 6400", 0): (
        [np.full((500, 3), float(np.finfo(np.float32).max) / 6400)], 0.0, np.full((4, 500), 16.0)),
}


@pytest.mark.parametrize("check, layer", sorted(_TRIPS))
def test_each_range_check_names_the_weight_matrix_where_it_trips(check, layer):
    """``_output_bounds`` returns the index of the weight matrix over which
    a value could leave float32's range: the fan-in's ``(n + 2) u``, the
    inputs ``m + e``, the partial sums ``(m + e) |W|``, the column sums of
    ``|W|`` and, after the last matrix, the outputs ``m + e``."""
    weights, window, x = _TRIPS[check, layer]
    sizes = [len(weights[0])] + [w.shape[1] for w in weights]
    bounds = metrics._output_bounds(Network(sizes, weights, window=window), x)
    assert isinstance(bounds, int) and bounds == layer


def _exact_signs(x, w):
    """Signs of ``x @ w`` in exact arithmetic: every value scaled by one
    power of two to a Python integer."""
    def integers(a):
        ratios = [v.as_integer_ratio() for v in a.ravel().tolist()]
        scale = max((den for _, den in ratios), default=1)
        return np.array([num * (scale // den) for num, den in ratios],
                        dtype=object).reshape(a.shape)
    return np.sign(integers(x) @ integers(w)).astype(int)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=_SLICE + HALF),
    inputs=st.integers(min_value=1, max_value=12),
    hidden=st.integers(min_value=1, max_value=16),
    case=st.sampled_from(["random", "shifted", "all", "none", "late", "tight", "unbounded"]),
    delays=st.sampled_from(["float64", "negative", "uint8"]),
)
@example(seed=0, rows=_SLICE + HALF, inputs=12, hidden=16, case="shifted", delays="uint8")
@example(seed=1, rows=HALF, inputs=3, hidden=4, case="all", delays="negative")
@example(seed=2, rows=HALF, inputs=5, hidden=6, case="unbounded", delays="float64")
@example(seed=3, rows=_SLICE + 1, inputs=4, hidden=5, case="late", delays="uint8")
@example(seed=4, rows=2, inputs=7, hidden=3, case="tight", delays="float64")
@settings(max_examples=60, deadline=None)
def test_every_neuron_proved_silent_is_silent_on_every_row(seed, rows, inputs, hidden,
                                                           case, delays):
    """A first-layer neuron that ``_silent`` marks has an exact
    pre-activation below 0 on every row, over more than one 512-row slice.
    Rows close together with weights of the opposite sign prove every
    neuron silent ("all"), unless a row after the first slice is on the
    other side ("late"); weights and delays of one sign prove none
    ("none").  In "tight", the rows lie on the ball around their mean
    and one of them makes neuron 0 fire by 1e-9 of ``|c . w_0|``, so a
    radius short by more than that would mark it.  A set whose output
    bounds do not exist (a second layer past float32's range) runs
    float64 slices and skips no neuron."""
    rng = np.random.default_rng(seed)
    sign = -1.0 if delays == "negative" else 1.0
    if case == "all":  # rows within one unit of 8 * sign, weights of the other sign
        x = 8.0 * sign + rng.uniform(0.0, 1.0, (rows, inputs))
        w = -sign * rng.uniform(0.5, 1.0, (inputs, hidden))
    elif case == "none":  # delays and weights of one sign: no product is below 0
        x = sign * rng.uniform(0.0, 16.0, (rows, inputs))
        w = sign * rng.uniform(0.0, 1.0, (inputs, hidden))
    elif case == "late":  # as "all", but the last row, past the first slice, fires them all
        rows = max(rows, _SLICE + 1)
        x = 8.0 * sign + rng.uniform(0.0, 1.0, (rows, inputs))
        x[-1] *= -1.0
        w = -sign * rng.uniform(0.5, 1.0, (inputs, hidden))
    elif case == "tight":  # rows c +- t w_0 / |w_0|, c a float32 mean: max x . w_0 = 1e-9 |c . w_0|
        c = (rng.uniform(0.0, 16.0, inputs) * sign).astype(np.float32).astype(np.float64)
        w = rng.uniform(-1.0, 1.0, (inputs, hidden))
        w[:, c @ w > 0] *= -1.0
        norm = math.sqrt(w[:, 0] @ w[:, 0])
        step = -(c @ w[:, 0]) / norm * (1.0 + 1e-9) * w[:, 0] / norm
        x = c + np.where(np.arange(rows) % 2 == 0, 1.0, -1.0)[:, None] * step
    else:
        x = rng.uniform(-16.0 if delays == "negative" else 0.0, 16.0, (rows, inputs))
        w = rng.uniform(-1.0, 1.0, (inputs, hidden))
        if case == "shifted":
            w[:, rng.random(hidden) < 0.5] -= 1.5
    if delays == "uint8" and case not in ("late", "tight"):  # those need fractions or signs
        x = np.rint(x).astype(np.uint8)
    if case == "unbounded":
        rows = max(rows, FEWEST)
        x = np.resize(x, (rows, inputs))
        w[:, : hidden // 2 + 1] -= 1.5
        net = Network([inputs, hidden, 3], [w, np.full((hidden, 3), 1e38)], window=16.0)
        data = class0(x)
        assert metrics._folded(net, x) is None
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_silent", lambda *args: calls.append(args))
            assert predict(net, data, MULTI3).tolist() == _reference_predict.predict(
                net, data, MULTI3).tolist()
        assert calls == []
        return
    silent = metrics._silent(w, x)
    assert silent.dtype == bool and silent.shape == (hidden,)
    assert (_exact_signs(x, w[:, silent]) < 0).all()
    if case == "all":
        assert silent.all()
    if case in ("none", "late"):
        assert not silent.any()


def _stored_model(per_class, seed):
    """The stored 169-500-10 benchmark model, its preset, and ``per_class``
    conv-coded benchmark digits of each class drawn with ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_digits",
                                                  REPO_ROOT / "perfbench" / "digits.py")
    digits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digits)
    cfg = preset("mt10_mnist_noheu")
    with np.load(REPO_ROOT / "perfbench" / "mt10_weights.npz") as stored:
        weights = [stored["w0"].astype(np.float64), stored["w1"].astype(np.float64)]
    net = Network(list(cfg.layer_sizes), weights, window=cfg.coding.params.window)
    return net, cfg, encode_dataset(RawDataset(*digits.make_digits(per_class, seed)), cfg.coding)


def test_the_stored_model_skips_most_hidden_neurons_on_the_benchmark_digits(monkeypatch):
    """The stored 169-500-10 benchmark model clips most of its hidden
    neurons to the window: on the 10k conv-coded ``digits_infer`` images
    at least 400 of 500 are proved silent, and the skipping sweep settles
    every row without a float64 ``forward_batch`` call and gives it the
    float64 slices' class."""
    net, cfg, data = _stored_model(1000, [0, 2])
    assert metrics._silent(net.weights[0], data.delays).sum() >= 400
    sweep_weights, _ = metrics._folded(net, data.delays)
    assert sweep_weights[0].shape[1] <= 100
    calls = _counted_forward(monkeypatch)
    classes = predict(net, data, cfg.scheme)
    assert calls == []
    assert classes.tolist() == _reference_predict.predict(net, data, cfg.scheme).tolist()


def test_the_stored_model_sweeps_the_srm_pool_without_a_float64_pass(monkeypatch):
    """The 200-row image pool of the ``srm_fidelity`` benchmark, above the
    cut, runs as one float32 sweep over one slice, which settles every row
    with the float64 pass's class: no ``forward_batch`` call."""
    net, cfg, data = _stored_model(20, [0, 3])
    assert len(data) == 200
    calls = _counted_forward(monkeypatch)
    sweeps = _recorded_sweeps(monkeypatch)
    classes = predict(net, data, cfg.scheme)
    assert sweeps == [(0, 200)] and calls == []
    assert classes.tolist() == read_class_batch(cfg.scheme, forward_batch(net, data.delays).outputs).tolist()


@pytest.mark.parametrize("rows", [FEWEST - 1, FEWEST])
def test_predict_sweeps_from_the_cut_and_passes_float64_below_it(rows, monkeypatch):
    """127 rows make one float64 ``forward_batch`` call over the whole set
    and no sweep; 128 rows one sweep and no float64 call."""
    calls = _counted_forward(monkeypatch)
    sweeps = _recorded_sweeps(monkeypatch)
    delays = np.tile([1.0, 5.0, 5.0], (rows, 1))
    assert predict(identity_net(3), class0(delays), MULTI3).tolist() == [0] * rows
    if rows < FEWEST:
        assert calls == [(np.float64, rows)] and sweeps == []
    else:
        assert calls == [] and sweeps == [(0, rows)]


def test_predict_reruns_only_what_float32_cannot_settle(monkeypatch):
    """A settled set makes no ``forward_batch`` call (its float32 sweep is
    not one); its unsettled rows add one float64 call, and a row that
    float64 cannot settle either adds its slice's float64 call.  In a
    2,000-row set of four 500-row slices, a tie in row 1000 re-runs alone
    and then in its slice, rows 1000-1499, and takes the reference's
    class."""
    net = identity_net(3)  # outputs equal inputs plus 16
    clear = np.tile([1.0, 5.0, 5.0], (HALF, 1))
    calls = _counted_forward(monkeypatch)
    assert predict(net, class0(clear), MULTI3).tolist() == [0] * len(clear)
    assert calls == []

    near = clear.copy()
    near[-1] = [5.0, 1.0 + 1e-9, 1.0]  # float32 rounds both to 1.0
    calls.clear()
    assert predict(net, class0(near), MULTI3).tolist() == [0] * (len(near) - 1) + [2]
    assert calls == [(np.float64, 1)]

    tied = clear.copy()
    tied[-1] = [5.0, 1.0, 1.0]
    calls.clear()
    assert predict(net, class0(tied), MULTI3).tolist() == [0] * (len(tied) - 1) + [1]
    assert calls == [(np.float64, 1), (np.float64, HALF)]  # one slice: the whole set

    rows, tie = 2000, 1000
    apart = np.tile([1.0, 5.0, 5.0], (rows, 1))
    apart[:, 2] += np.arange(rows) / rows  # distinct rows; all but the tie are class 0
    apart[tie] = [5.0, 1.0, 1.0]
    sweeps = _recorded_sweeps(monkeypatch)
    inputs = []
    monkeypatch.setattr(metrics, "forward_batch",
                        lambda net, x: inputs.append(np.array(x)) or forward_batch(net, x))
    classes = predict(net, class0(apart), MULTI3)
    assert sweeps == [(0, 500, 1000, 1500, 2000)]
    assert [x.dtype for x in inputs] == [np.float64, np.float64]
    assert inputs[0].tolist() == [apart[tie].tolist()]
    assert inputs[1].tolist() == apart[1000:1500].tolist()
    assert classes.tolist() == _reference_predict.predict(net, class0(apart), MULTI3).tolist()
    assert classes[tie] == 1 and (np.delete(classes, tie) == 0).all()


def test_predict_runs_float64_blocks_when_float32_could_overflow(monkeypatch):
    """Without a bound every slice, 342 + 342 + 341 of 1,025 rows, runs in float64."""
    net = identity_net(3)
    net.weights[0] *= 1e38  # |W| within float32, its products are not
    delays = np.tile([1.0, 5.0, 5.0], (2 * _SLICE + 1, 1))
    calls = _counted_forward(monkeypatch)
    sweeps = _recorded_sweeps(monkeypatch)
    assert predict(net, class0(delays), MULTI3).tolist() == [0] * len(delays)
    assert calls == [(np.float64, 342), (np.float64, 342), (np.float64, 341)]
    assert sweeps == []


def _random_set(seed, blocks, depth=3, mode="multi_neuron", classes=3):
    """A random net, a set of ``_rows(rng, blocks)`` rows for it and a readout."""
    rng = np.random.default_rng(seed)
    scheme = SCHEMES[mode](classes)
    rows = _rows(rng, blocks)
    sizes = [int(n) for n in rng.integers(1, 40, depth - 1)] + [scheme.output_size]
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0), window=16.0)
    delays = rng.uniform(0.0, 16.0, (rows, sizes[0]))
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=rng.integers(0, classes, rows))
    return net, data, scheme


@pytest.mark.parametrize("rows", [FEWEST, FEWEST + 1, HALF, HALF + 1, _SLICE + 1, 2000,
                                  10 * _SLICE + 3])
def test_predict_slices_a_set_by_its_row_count_alone(rows, monkeypatch):
    """``predict``'s sweep covers every row exactly once, in
    ``ceil(rows / _SLICE)`` contiguous slices of at most ``_SLICE`` rows,
    and its classes equal the float64 reference's."""
    rng = np.random.default_rng(rows)
    net = init_network([12, 20, 3], rng=rng, init_range=(-0.5, 1.0), window=16.0)
    delays = rng.uniform(0.0, 16.0, (rows, 12))
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=rng.integers(0, 3, rows))
    sweeps = _recorded_sweeps(monkeypatch)
    assert predict(net, data, MULTI3).tolist() == _reference_predict.predict(
        net, data, MULTI3).tolist()
    assert len(sweeps) == 1
    edges = sweeps[0]
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == rows and (sizes > 0).all()
    assert len(sizes) == math.ceil(rows / _SLICE) and sizes.max() <= _SLICE


def test_a_slice_that_raises_leaves_predict_and_the_next_call_gets_every_class(monkeypatch):
    """A ``MemoryError`` in one slice's float32 product propagates out of
    ``predict``; the next call gets every class."""
    net, data, scheme = _random_set(seed=11, blocks=3)
    expected = _reference_predict.predict(net, data, scheme).tolist()
    matmul = np.matmul

    def flaky(a, v, **kwargs):
        if kwargs.get("dtype") == np.float32:
            raise MemoryError("no room for a block")
        return matmul(a, v, **kwargs)

    monkeypatch.setattr(np, "matmul", flaky)
    with pytest.raises(MemoryError, match="no room for a block"):
        predict(net, data, scheme)
    monkeypatch.setattr(np, "matmul", matmul)
    assert predict(net, data, scheme).tolist() == expected


@pytest.mark.parametrize("rows", [FEWEST - 1, FEWEST + 44],
                         ids=["float64-pass", "float32-pass"])
def test_byte_delays_classify_like_their_float64_copy(rows, monkeypatch):
    """Conv-coded digits hold their delays in bytes: both of predict's
    passes give them the classes of the float64 copy.  The last row count
    below ``FEWEST`` takes one float64 pass, with no sweep."""
    cfg = preset("mt10_mnist_noheu")
    digits = make_digits(30, seed=3)
    data = encode_dataset(RawDataset(digits.features[:rows], digits.labels[:rows]),
                          cfg.coding)
    assert data.delays.dtype == np.uint8
    copy = EncodedDataset(data.delays.astype(np.float64), data.fired, data.labels)
    # one column per class, from the class's mean delays: several classes come out
    means = [copy.delays[copy.labels == c].mean(axis=0) for c in range(10)]
    net = Network([169, 10], [16.0 - np.stack(means, axis=1)], window=16.0)
    sweeps = _recorded_sweeps(monkeypatch)
    classes = predict(net, data, cfg.scheme)
    assert len(sweeps) == (rows >= FEWEST)
    assert len(set(classes.tolist())) > 1
    assert classes.tolist() == predict(net, copy, cfg.scheme).tolist()


def test_confusion_counts_byte_labels_past_a_byte():
    """Labels held in uint8: with 20 classes the cell of label 19 predicted
    19 is flat index 19 * 20 + 19 = 399, past a byte's range."""
    k = 20
    labels = np.arange(k, dtype=np.uint8).repeat(2)
    predicted = (labels.astype(int) + np.tile([0, 1], k)) % k  # every second row one class on
    delays = 5.0 - 4.0 * np.eye(k)[predicted]
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool), labels=labels)
    assert data.labels.dtype == np.uint8
    accuracy, confusion = evaluate(identity_net(k), data, SCHEMES["multi_neuron"](k))
    want = np.zeros((k, k), dtype=np.int64)
    for true, found in zip(labels.tolist(), predicted.tolist()):
        want[true, found] += 1
    assert accuracy == 0.5
    assert confusion.dtype == np.int64
    assert confusion.tolist() == want.tolist()


def test_spike_count_adds_one_per_downstream_neuron():
    net = init_network([4, 25, 1], rng=np.random.default_rng(0))
    fired = np.array([[1, 1, 1, 1], [1, 0, 0, 1]], bool)
    data = EncodedDataset(delays=np.zeros((2, 4)), fired=fired,
                          labels=np.zeros(2, dtype=int))
    assert dataset_spike_count(data, net) == (4 + 25 + 1) + (2 + 25 + 1)


def test_dataset_spike_count_matches_per_sample_sum():
    rng = np.random.default_rng(0)
    net = init_network([5, 3], rng=rng)
    fired = rng.random((10, 5)) < 0.6
    data = EncodedDataset(delays=np.zeros((10, 5)), fired=fired,
                          labels=np.zeros(10, dtype=int))
    total = dataset_spike_count(data, net)
    per_sample = sum(int(row.sum()) + 3 for row in fired)
    assert total == per_sample
    bad = EncodedDataset(delays=np.zeros((2, 4)), fired=np.ones((2, 4), bool),
                         labels=np.zeros(2, dtype=int))
    with pytest.raises(StructureError):
        dataset_spike_count(bad, net)


def test_energy_scales_with_alpha():
    assert energy(679) == 679.0
    assert energy(100, alpha=0.25) == 25.0
    with pytest.raises(ConfigError):
        energy(100, alpha=0.0)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="alpha"):
            energy(100, alpha=alpha)
    with pytest.raises(ConfigError):
        energy(-1)


def test_summarize_bundles_everything():
    net = identity_net(3)
    delays = np.array([[1.0, 5.0, 5.0], [5.0, 1.0, 5.0]])
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=np.array([0, 1]))
    result = _summarize(net, data, MULTI3, alpha=2.0)
    assert result.test_accuracy == 1.0
    assert result.total_spikes == 2 * (3 + 3)
    assert result.energy == 2.0 * result.total_spikes

