"""Accuracy, spike counting, and abstract energy."""

import importlib.util
import math
import os
import select
import signal
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    PREDICT_BLOCK,
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


def identity_net(n):
    """n inputs to n outputs, each output echoing one scaled input."""
    return Network(layer_sizes=[n, n], weights=[np.eye(n) * n])


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
    rows = 3 * PREDICT_BLOCK + 5
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
    "multi_neuron": lambda classes: TargetScheme(
        mode="multi_neuron", window=16.0, num_classes=classes,
        excitatory_offset=0.0, inhibitory_offset=4.0),
    "single_neuron": lambda classes: TargetScheme(
        mode="single_neuron", window=16.0, num_classes=classes, excitatory_offset=3.0),
}


@pytest.mark.parametrize("call", [predict, evaluate])
@pytest.mark.parametrize("misfit", ["multi_neuron", "single_neuron", "wide"])
def test_a_set_that_does_not_fit_raises_before_any_forward_pass(monkeypatch, call, misfit):
    """A readout narrower than the 3-neuron output layer, a one-neuron
    readout of 3 classes, or rows wider than the input layer: the block path's
    float32 bound and ``readout._scores`` never see them."""
    delays = (5.0 - 4.0 * np.eye(3))[np.arange(2 * PREDICT_BLOCK + 1) % 3]  # classes 0, 1, 2
    scheme, error, match = {
        "multi_neuron": (SCHEMES["multi_neuron"](2), ConfigError, "readout expects 2 output"),
        "single_neuron": (SCHEMES["single_neuron"](3), ConfigError, "readout expects 1 output"),
        "wide": (MULTI3, StructureError, "input width 4 does not match input layer size 3"),
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
    rows=st.sampled_from([1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1,
                          2 * PREDICT_BLOCK - 1, 2 * PREDICT_BLOCK, 3 * PREDICT_BLOCK + 5]),
    mode=st.sampled_from(sorted(SCHEMES)),
    classes=st.integers(min_value=1, max_value=6),
)
@example(seed=0, depth=2, rows=2 * PREDICT_BLOCK, mode="multi_neuron", classes=1)
@example(seed=1, depth=3, rows=3 * PREDICT_BLOCK + 5, mode="single_neuron", classes=1)
@settings(max_examples=60, deadline=None)
def test_predict_matches_one_whole_set_pass(seed, depth, rows, mode, classes):
    """Blocked prediction classifies like one ``forward_batch`` over the set.

    Larger sets may round each output by an ulp, which can only flip a row
    whose two best scores (delays, or distances to the checkpoints) nearly
    tie; below two blocks, the calls are the same and so is every class.
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
    if rows < 2 * PREDICT_BLOCK:
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
    """Record ``(edges, output bytes)`` of every ``metrics._sweep`` call."""
    sweeps = []
    sweep = metrics._sweep

    def recorded(weights, window, x, edges):
        out = sweep(weights, window, x, edges)
        sweeps.append((tuple(edges), out.tobytes()))
        return out

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
# a one-layer net whose window lies past float32's range: no bound, float64 blocks
@example(seed=6, depth=2, blocks=2, mode="multi_neuron", classes=3, power=0,
         window=1e38, negative=False, tie="none", shift=False)
# 12 of the first layer's 27 neurons are silent on every row: the sweep skips them
@example(seed=7, depth=3, blocks=3, mode="multi_neuron", classes=4, power=0,
         window=16.0, negative=False, tie="ulp", shift=True)
@settings(max_examples=80, deadline=None)
def test_predict_classifies_like_the_blocked_float64_reference(
        seed, depth, blocks, mode, classes, power, window, negative, tie, shift):
    """Every class equals the float64 blocks' class, wherever float32
    underflows, overflows or cannot separate two outputs, and wherever the
    sweep skips first-layer neurons that ``shift`` makes silent.

    In the multi-neuron regime, ``tie`` copies output column 0 into column
    1 ("exact"), or with each weight one float32 ulp up or down ("ulp"), so
    that float32 rounding can order the two outputs either way; with one
    class there is no second column to tie.
    """
    rng = np.random.default_rng(seed)
    scheme = SCHEMES[mode](classes)
    rows = blocks * PREDICT_BLOCK + int(rng.integers(0, PREDICT_BLOCK))
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
# weights: 19 of 35 (seed 4) and the only one (seed 5, no live column)
@example(seed=4, depth=3, blocks=2, outputs=3, powers=[0, -43, 0], window=16.0,
         negative=False, shift=True)
@example(seed=5, depth=3, blocks=2, outputs=3, powers=[0, -43, 0], window=16.0,
         negative=False, shift=True)
@settings(max_examples=80, deadline=None)
def test_float32_sweep_lies_within_the_bounds_of_the_float64_blocks(
        seed, depth, blocks, outputs, powers, window, negative, shift):
    """Every output of the float32 sweep, in slices of up to ``_SLICE``
    rows, lies within ``bound32 + bound64`` of the float64
    ``forward_batch`` output of its row in its reference block, the two
    passes ``predict``'s certificate compares; layer ``l``'s
    weights are scaled by ``10 ** powers[l]``, and ``shift`` makes some
    first-layer neurons silent, so that the sweep skips them."""
    rng = np.random.default_rng(seed)
    rows = blocks * PREDICT_BLOCK + int(rng.integers(0, PREDICT_BLOCK))
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
    slices = metrics._edges(rows, -(-rows // metrics._SLICE))
    swept = metrics._sweep(weights, net.window, x, slices)
    assert swept.dtype == np.float32 and swept.shape == (rows, outputs)
    blocked = np.concatenate([forward_batch(net, block).outputs
                              for block in np.array_split(x, rows // PREDICT_BLOCK)])
    assert (np.abs(swept.astype(np.float64) - blocked) <= bound32 + bound64).all()


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
    rows=st.integers(min_value=1, max_value=5 * PREDICT_BLOCK),
    inputs=st.integers(min_value=1, max_value=12),
    hidden=st.integers(min_value=1, max_value=16),
    case=st.sampled_from(["random", "shifted", "all", "none", "late", "tight", "unbounded"]),
    delays=st.sampled_from(["float64", "negative", "uint8"]),
)
@example(seed=0, rows=5 * PREDICT_BLOCK, inputs=12, hidden=16, case="shifted", delays="uint8")
@example(seed=1, rows=2 * PREDICT_BLOCK, inputs=3, hidden=4, case="all", delays="negative")
@example(seed=2, rows=2 * PREDICT_BLOCK, inputs=5, hidden=6, case="unbounded", delays="float64")
@example(seed=3, rows=4 * PREDICT_BLOCK + 1, inputs=4, hidden=5, case="late", delays="uint8")
@example(seed=4, rows=2, inputs=7, hidden=3, case="tight", delays="float64")
@settings(max_examples=60, deadline=None)
def test_every_neuron_proved_silent_is_silent_on_every_row(seed, rows, inputs, hidden,
                                                           case, delays):
    """A first-layer neuron that ``_silent`` marks has an exact
    pre-activation below 0 on every row, over more than one 512-row block.
    Rows close together with weights of the opposite sign prove every
    neuron silent ("all"), unless a row after the first block is on the
    other side ("late"); weights and delays of one sign prove none
    ("none").  In "tight", the rows lie on the ball around their mean
    and one of them makes neuron 0 fire by 1e-9 of ``|c . w_0|``, so a
    radius short by more than that would mark it.  A set whose output
    bounds do not exist (a second layer past float32's range) runs
    float64 blocks and skips no neuron."""
    rng = np.random.default_rng(seed)
    sign = -1.0 if delays == "negative" else 1.0
    if case == "all":  # rows within one unit of 8 * sign, weights of the other sign
        x = 8.0 * sign + rng.uniform(0.0, 1.0, (rows, inputs))
        w = -sign * rng.uniform(0.5, 1.0, (inputs, hidden))
    elif case == "none":  # delays and weights of one sign: no product is below 0
        x = sign * rng.uniform(0.0, 16.0, (rows, inputs))
        w = sign * rng.uniform(0.0, 1.0, (inputs, hidden))
    elif case == "late":  # as "all", but the last row, past the first block, fires them all
        rows = max(rows, 4 * PREDICT_BLOCK + 1)
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
        rows = max(rows, 2 * PREDICT_BLOCK)
        x = np.resize(x, (rows, inputs))
        w[:, : hidden // 2 + 1] -= 1.5
        net = Network([inputs, hidden, 3], [w, np.full((hidden, 3), 1e38)])
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


def test_the_stored_model_skips_most_hidden_neurons_on_the_benchmark_digits():
    """The stored 169-500-10 benchmark model clips most of its hidden
    neurons to the window: on the 10k conv-coded ``digits_infer`` images
    at least 400 of 500 are proved silent, and the skipping sweep gives
    every row the float64 blocks' class."""
    spec = importlib.util.spec_from_file_location("perfbench_digits",
                                                  REPO_ROOT / "perfbench" / "digits.py")
    digits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digits)
    cfg = preset("mt10_mnist_noheu")
    with np.load(REPO_ROOT / "perfbench" / "mt10_weights.npz") as stored:
        weights = [stored["w0"].astype(np.float64), stored["w1"].astype(np.float64)]
    net = Network(list(cfg.layer_sizes), weights, window=cfg.coding.params.window)
    data = encode_dataset(RawDataset(*digits.make_digits(1000, [0, 2])), cfg.coding)
    assert metrics._silent(net.weights[0], data.delays).sum() >= 400
    sweep_weights, _ = metrics._folded(net, data.delays)
    assert sweep_weights[0].shape[1] <= 100
    assert predict(net, data, cfg.scheme).tolist() == _reference_predict.predict(
        net, data, cfg.scheme).tolist()


def test_predict_reruns_only_what_float32_cannot_settle(monkeypatch):
    """A settled set makes no ``forward_batch`` call (its float32 sweep is
    not one); its unsettled rows add one float64 call, and a row that
    float64 cannot settle either adds its reference block's float64 call.
    In a 2,000-row set the sweep's 500-row slices cut across the
    reference's 133-134-row blocks: a tie in row 1000, which sweeps in rows
    1000-1499, re-runs alone and then in its block, rows 936-1068, and
    takes the reference's class."""
    net = identity_net(3)  # outputs equal inputs
    clear = np.tile([1.0, 5.0, 5.0], (2 * PREDICT_BLOCK, 1))
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
    assert calls == [(np.float64, 1), (np.float64, PREDICT_BLOCK)]

    rows, tie = 2000, 1000
    apart = np.tile([1.0, 5.0, 5.0], (rows, 1))
    apart[:, 2] += np.arange(rows) / rows  # distinct rows; all but the tie are class 0
    apart[tie] = [5.0, 1.0, 1.0]
    sweeps = _recorded_sweeps(monkeypatch)
    inputs = []
    monkeypatch.setattr(metrics, "forward_batch",
                        lambda net, x: inputs.append(np.array(x)) or forward_batch(net, x))
    classes = predict(net, class0(apart), MULTI3)
    block = next(b for b in np.array_split(np.arange(rows), rows // PREDICT_BLOCK) if tie in b)
    edges = sweeps[0][0]
    piece = next((a, b) for a, b in zip(edges, edges[1:]) if a <= tie < b)
    assert (block[0], block[-1] + 1) == (936, 1069) and piece == (1000, 1500)
    assert [x.dtype for x in inputs] == [np.float64, np.float64]
    assert inputs[0].tolist() == [apart[tie].tolist()]
    assert inputs[1].tolist() == apart[block].tolist()
    assert classes.tolist() == _reference_predict.predict(net, class0(apart), MULTI3).tolist()
    assert classes[tie] == 1 and (np.delete(classes, tie) == 0).all()


def test_predict_runs_float64_blocks_when_float32_could_overflow(monkeypatch):
    net = identity_net(3)
    net.weights[0] *= 1e38  # |W| within float32, its products are not
    delays = np.tile([1.0, 5.0, 5.0], (2 * PREDICT_BLOCK, 1))
    calls = _counted_forward(monkeypatch)
    assert predict(net, class0(delays), MULTI3).tolist() == [0] * len(delays)
    assert calls == [(np.float64, PREDICT_BLOCK)] * 2


def _random_set(seed, blocks, depth=3, mode="multi_neuron", classes=3):
    """A random net, a set of ``blocks`` blocks of rows for it and a readout."""
    rng = np.random.default_rng(seed)
    scheme = SCHEMES[mode](classes)
    rows = blocks * PREDICT_BLOCK + int(rng.integers(0, PREDICT_BLOCK))
    sizes = [int(n) for n in rng.integers(1, 40, depth - 1)] + [scheme.output_size]
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0))
    delays = rng.uniform(0.0, 16.0, (rows, sizes[0]))
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=rng.integers(0, classes, rows))
    return net, data, scheme


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    depth=st.integers(min_value=2, max_value=4),
    blocks=st.integers(min_value=2, max_value=9),
    mode=st.sampled_from(sorted(SCHEMES)),
    classes=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_predict_gives_the_same_classes_at_any_worker_count(seed, depth, blocks, mode, classes):
    """The caller and the pool's helpers take the sweep's blocks in any
    order, yet the sweep's outputs keep their bytes and the classes equal
    the float64 reference with 1, 2 and 3 workers."""
    net, data, scheme = _random_set(seed, blocks, depth, mode, classes)
    expected = _reference_predict.predict(net, data, scheme).tolist()
    with pytest.MonkeyPatch.context() as patch:
        sweeps = _recorded_sweeps(patch)
        for workers in (1, 2, 3):
            patch.setattr(metrics, "_WORKERS", workers)
            assert predict(net, data, scheme).tolist() == expected
    assert len(sweeps) == 3 and len(set(sweeps)) == 1


@pytest.mark.parametrize("rows", [2 * PREDICT_BLOCK, 2 * PREDICT_BLOCK + 1, 4 * PREDICT_BLOCK + 1,
                                  2000, 40 * PREDICT_BLOCK + 3])
def test_predict_slices_a_set_by_its_row_count_alone(rows, monkeypatch):
    """``predict``'s sweep covers every row exactly once, in contiguous
    slices of at most ``_SLICE`` rows and no fewer than ``min(4, blocks)``:
    at 1, 2 and 8 workers it cuts the same slices and gives the same bytes
    and classes, and a ``2 * PREDICT_BLOCK``-row set has a slice for a
    second thread."""
    rng = np.random.default_rng(rows)
    net = init_network([12, 20, 3], rng=rng, init_range=(-0.5, 1.0))
    delays = rng.uniform(0.0, 16.0, (rows, 12))
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=rng.integers(0, 3, rows))
    expected = _reference_predict.predict(net, data, MULTI3).tolist()
    sweeps = _recorded_sweeps(monkeypatch)
    monkeypatch.setattr(metrics, "_pool", ThreadPoolExecutor(7))  # 7 helpers for 8 workers
    try:
        for workers in (1, 2, 8):
            monkeypatch.setattr(metrics, "_WORKERS", workers)
            assert predict(net, data, MULTI3).tolist() == expected
    finally:
        metrics._pool.shutdown()
    assert len(sweeps) == 3 and len(set(sweeps)) == 1
    edges = sweeps[0][0]
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == rows and (sizes > 0).all()
    assert min(4, rows // PREDICT_BLOCK) <= len(sizes) and sizes.max() <= metrics._SLICE
    assert len(sizes) >= 2


def test_eight_threads_switching_every_microsecond_sweep_each_block_once(monkeypatch):
    """More workers than cores, with a shortened switch interval: a slice
    lost or swept into the wrong rows would leave other bytes behind."""
    net, _, _ = _random_set(seed=3, blocks=40)
    x = np.random.default_rng(3).uniform(0.0, 16.0, (40 * PREDICT_BLOCK, net.layer_sizes[0]))
    weights, _ = metrics._folded(net, x)
    edges = metrics._edges(len(x), 40)
    monkeypatch.setattr(metrics, "_WORKERS", 1)
    serial = metrics._sweep(weights, net.window, x, edges).tobytes()
    monkeypatch.setattr(metrics, "_WORKERS", 8)
    monkeypatch.setattr(metrics, "_pool", ThreadPoolExecutor(7))  # 7 helpers for this test
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert metrics._sweep(weights, net.window, x, edges).tobytes() == serial
    finally:
        sys.setswitchinterval(interval)
        metrics._pool.shutdown()


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_block_that_raises_leaves_predict_and_the_pool_keeps_working(monkeypatch, failing):
    """A ``MemoryError`` in one block's float32 product, on the calling
    thread or on a helper, propagates out of ``predict`` once every other
    block is done; the next call uses the same pool and gets every class."""
    net, data, scheme = _random_set(seed=11, blocks=6)
    expected = _reference_predict.predict(net, data, scheme).tolist()
    monkeypatch.setattr(metrics, "_WORKERS", 2)
    pool = metrics._pool
    failed = threading.Event()
    matmul = np.matmul

    def flaky(a, v, **kwargs):
        if kwargs.get("dtype") == np.float32:
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                failed.set()
                raise MemoryError("no room for a block")
            failed.wait(10)  # let the failing thread take a block first
        return matmul(a, v, **kwargs)

    monkeypatch.setattr(np, "matmul", flaky)
    with pytest.raises(MemoryError, match="no room for a block"):
        predict(net, data, scheme)
    monkeypatch.setattr(np, "matmul", matmul)
    assert predict(net, data, scheme).tolist() == expected
    assert metrics._pool is pool


def test_small_sets_and_one_cpu_never_submit_to_the_pool(monkeypatch):
    """Below ``2 * PREDICT_BLOCK`` rows there is no sweep, and with one
    usable CPU the caller sweeps every block itself."""
    class NoPool:
        def submit(self, *args):
            raise AssertionError("a helper was asked for")

    monkeypatch.setattr(metrics, "_pool", NoPool())
    net, data, scheme = _random_set(seed=5, blocks=8)
    rows = slice(2 * PREDICT_BLOCK - 1)
    small = EncodedDataset(data.delays[rows], data.fired[rows], data.labels[rows])
    for workers, subset in ((2, small), (1, data)):
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        assert predict(net, subset, scheme).tolist() == _reference_predict.predict(
            net, subset, scheme).tolist()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_sweeps_on_its_own_helper(monkeypatch):
    """A forked child has none of its parent's threads, the pool's helper
    included; the fork hook gives it a new pool, so its sweep starts a
    helper of its own and gets the parent's classes."""
    net, data, scheme = _random_set(seed=13, blocks=4)
    monkeypatch.setattr(metrics, "_WORKERS", 2)
    classes = predict(net, data, scheme).tolist()  # starts the parent's helper
    read, write = os.pipe()
    with warnings.catch_warnings():  # Python 3.12+ warns on a fork with threads running
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child reports two flags and never returns into pytest
        try:
            same = predict(net, data, scheme).tolist() == classes
            swept = any(t.name.startswith("mtspike-sweep") for t in threading.enumerate())
            os.write(write, bytes([same, swept]))
        finally:
            os._exit(0)
    os.close(write)
    if not select.select([read], [], [], 60)[0]:  # a hung child reports nothing
        os.kill(pid, signal.SIGKILL)
    flags = os.read(read, 2)
    os.close(read)
    os.waitpid(pid, 0)
    assert flags == bytes([True, True]), "child: [same classes, sweep thread]"


@pytest.mark.parametrize("rows", [2 * PREDICT_BLOCK - 1, 2 * PREDICT_BLOCK + 44],
                         ids=["float64-pass", "float32-pass"])
def test_byte_delays_classify_like_their_float64_copy(rows):
    """Conv-coded digits hold their delays in bytes: both of predict's
    passes give them the classes of the float64 copy."""
    cfg = preset("mt10_mnist_noheu")
    digits = make_digits(30, seed=3)
    data = encode_dataset(RawDataset(digits.features[:rows], digits.labels[:rows]),
                          cfg.coding)
    assert data.delays.dtype == np.uint8
    copy = EncodedDataset(data.delays.astype(np.float64), data.fired, data.labels)
    # one column per class, from the class's mean delays: several classes come out
    means = [copy.delays[copy.labels == c].mean(axis=0) for c in range(10)]
    net = Network([169, 10], [16.0 - np.stack(means, axis=1)])
    classes = predict(net, data, cfg.scheme)
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

