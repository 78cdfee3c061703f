"""Temporal error backpropagation: residuals, gradients, batching, and training."""

import copy
import dataclasses
import math
import tracemalloc

import _reference_train
import numpy as np
import pytest
from conftest import REPO_ROOT, make_digits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtspike import learning, metrics, network
from mtspike.config import preset
from mtspike.datasets import EncodedDataset, RawDataset, encode_dataset
from mtspike.errors import ConfigError, DataError, DivergenceError, StructureError
from mtspike.learning import (
    TrainConfig,
    backward,
    output_residual,
    train,
)
from mtspike.metrics import _SLICE, predict
from mtspike.network import Network, forward_batch, init_network
from mtspike.readout import TargetScheme

MULTI3 = TargetScheme(mode="multi_neuron", window=16.0, num_classes=3,
                      excitatory_offset=0.0, inhibitory_offset=4.0)
SINGLE3 = TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                       excitatory_offset=3.0)
MNIST = preset("mt10_mnist_noheu")


def encoded(delays, labels):
    delays = np.asarray(delays, dtype=float)
    return EncodedDataset(delays=delays,
                         fired=np.ones_like(delays, dtype=bool),
                         labels=np.asarray(labels))


def test_train_config_validation():
    for kwargs in (
        {"learning_rate": -0.1},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"batch_size": 0},
        {"epochs": -1},
        {"gradient_mode": "adam"},
        {"update_gate": "sometimes"},
        {"batch_reduction": "median"},
        {"init_range": (1.0, 1.0)},
        {"init_range": (-1e308, 1e308)},  # width overflows float64
        {"numerics": "float16"},
        {"numerics": "fast", "gradient_mode": "exact"},
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


def test_involved_set_is_path_to_class():
    """Class c involves output neurons 0..c; every other residual is zeroed."""
    outputs = np.full((2, 10), 30.0)
    targets = np.full((2, 10), 20.0)
    resid, terms = output_residual(outputs, targets, np.array([3, 0]), heuristic=True)
    assert np.flatnonzero(resid[0]).tolist() == [0, 1, 2, 3]
    assert np.flatnonzero(resid[1]).tolist() == [0]
    assert terms == 4 + 1


def test_involved_set_size_for_every_class():
    outputs = np.full((10, 10), 30.0)
    resid, terms = output_residual(outputs, np.zeros((10, 10)), np.arange(10), heuristic=True)
    assert np.count_nonzero(resid, axis=1).tolist() == [c + 1 for c in range(10)]
    assert terms == 55


def test_output_delta_and_shape_check():
    resid, terms = output_residual(np.array([[20.0, 17.0]]), np.array([[16.0, 20.0]]),
                                   np.array([0]), heuristic=False)
    assert resid.tolist() == [[4.0, -3.0]]
    assert terms == 2
    with pytest.raises(StructureError):
        output_residual(np.zeros((1, 2)), np.zeros((1, 3)), np.array([0]), heuristic=False)


def test_temporal_error_full_and_restricted():
    actual = np.array([[18.0, 17.0, 25.0]])
    target = np.array([[16.0, 20.0, 20.0]])
    full, terms = output_residual(actual, target, np.array([1]), heuristic=False)
    assert full.tolist() == [[2.0, -3.0, 5.0]]
    assert (float(np.sum(full * full)), terms) == (4 + 9 + 25, 3)
    # class 1 involves neurons {0, 1}
    part, terms = output_residual(actual, target, np.array([1]), heuristic=True)
    assert part.tolist() == [[2.0, -3.0, 0.0]]
    assert (float(np.sum(part * part)), terms) == (4 + 9, 2)


@given(data=st.data(), batch=st.integers(min_value=1, max_value=12),
       classes=st.integers(min_value=1, max_value=10), heuristic=st.booleans())
@settings(max_examples=80)
def test_output_residual_masks_exactly_the_neurons_above_each_label(
        data, batch, classes, heuristic):
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                         min_size=batch, max_size=batch)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    outputs = rng.uniform(0.0, 30.0, (batch, classes))
    targets = rng.uniform(16.0, 20.0, (batch, classes))
    resid, terms = output_residual(outputs, targets, labels, heuristic)
    raw = outputs - targets
    above = np.arange(classes)[np.newaxis, :] > labels[:, np.newaxis]
    if heuristic:
        assert np.all(resid[above] == 0.0)
        assert terms == int(np.sum(labels + 1))
        kept = ~above
    else:
        assert terms == resid.size
        kept = np.ones_like(above)
    assert resid[kept].tobytes() == raw[kept].tobytes()


def test_single_layer_gradient_by_hand():
    """For out = (w1 d1 + w2 d2) / 2 the gradient of the residual is d_i/2."""
    net = Network(layer_sizes=[2, 1], weights=[np.array([[0.5], [0.25]])])
    trace = forward_batch(net, np.array([[10.0, 20.0]]))
    assert trace.outputs.tolist() == [[5.0]]
    delta = trace.outputs - np.array([[3.0]])  # residual 2
    grads = backward(net, trace, delta, mode="paper")
    assert grads[0].tolist() == [[10.0], [20.0]]


def test_exact_mode_gates_clipped_neurons():
    # negative pre-activation: special ReLU derivative is 0, so no gradient
    net = Network(layer_sizes=[2, 1], weights=[np.array([[-1.0], [-1.0]])])
    trace = forward_batch(net, np.array([[10.0, 20.0]]))
    assert trace.outputs.tolist() == [[0.0]]
    grads_exact = backward(net, trace, np.array([[5.0]]), mode="exact")
    grads_paper = backward(net, trace, np.array([[5.0]]), mode="paper")
    assert np.all(grads_exact[0] == 0.0)
    assert np.any(grads_paper[0] != 0.0)


def test_backward_zeroes_uninvolved_columns():
    rng = np.random.default_rng(0)
    net = init_network([4, 3], rng=rng)
    trace = forward_batch(net, rng.uniform(0, 16, (1, 4)))
    targets = trace.outputs - 1.0  # residual 1 on every neuron
    delta, _ = output_residual(trace.outputs, targets, np.array([1]), heuristic=True)
    grads = backward(net, trace, delta)
    assert np.all(grads[0][:, 2] == 0.0)
    assert np.any(grads[0][:, :2] != 0.0)


def test_backward_validates_trace_and_delta():
    rng = np.random.default_rng(0)
    net = init_network([4, 3, 2], rng=rng)
    trace = forward_batch(net, rng.uniform(0, 16, (2, 4)))
    with pytest.raises(ConfigError):
        backward(net, trace, np.zeros((2, 2)), mode="momentum")
    with pytest.raises(StructureError):
        backward(net, trace, np.zeros((2, 3)))
    short = forward_batch(init_network([4, 2], rng=rng), np.zeros((2, 4)))
    with pytest.raises(StructureError):
        backward(net, short, np.zeros((2, 2)))
    wide = forward_batch(init_network([4, 5, 2], rng=rng), np.zeros((2, 4)))
    with pytest.raises(StructureError, match="trace layer 1"):
        backward(net, wide, np.zeros((2, 2)))


def finite_difference(net, delays, targets, step=1e-4):
    """Central-difference gradient of sum((out - target)**2)."""

    def loss():
        out = forward_batch(net, delays).outputs
        return float(np.sum((out - targets) ** 2))

    fd = [np.zeros_like(w) for w in net.weights]
    for l, w in enumerate(net.weights):
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                keep = w[i, j]
                w[i, j] = keep + step
                up = loss()
                w[i, j] = keep - step
                down = loss()
                w[i, j] = keep
                fd[l][i, j] = (up - down) / (2 * step)
    return fd


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = init_network([3, 4, 2], rng=rng, window=16.0)
    delays = rng.uniform(0.0, 16.0, size=(4, 3))
    targets = rng.uniform(16.0, 22.0, size=(4, 2))
    trace = forward_batch(net, delays)
    grads = backward(net, trace, 2.0 * (trace.outputs - targets), mode="exact")
    fd = finite_difference(net, delays, targets)
    for g, f in zip(grads, fd):
        assert np.allclose(g, f, rtol=1e-6, atol=1e-8)


@given(sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=4),
       batch=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       window=st.sampled_from([0.0, 16.0]))
@example(sizes=[1, 1], batch=1, seed=8, window=0.0)  # exact mode: a clipped 1x1 step
@settings(max_examples=60, deadline=None)
def test_forward_and_backward_match_the_reference_bytes(sizes, batch, seed, window):
    """Small products through ``np.dot`` give the reference's ``@`` bytes.

    Widths and batch rows down to 1 reach the one-row and one-column products,
    where BLAS may take another kernel than for the presets' shapes.  The
    weights' dtype picks the rule: float32 working weights give the float32
    reference's V-space bytes in paper mode and raise ``ConfigError`` in
    exact mode, whose special-ReLU mask their trace cannot hold (its
    ``nets`` are the activated delays).
    """
    rng = np.random.default_rng(seed)
    net = init_network(sizes, rng=rng, init_range=(-1.0, 1.0), window=window)
    delays = rng.uniform(0.0, 16.0, (batch, sizes[0]))
    delta = rng.uniform(-4.0, 4.0, (batch, sizes[-1]))
    trace = forward_batch(net, delays)
    ref = _reference_train.forward_batch(net, delays)
    for got, want in zip(trace.nets + trace.delays, ref.nets + ref.delays, strict=True):
        assert got.tobytes() == want.tobytes()
    for mode in ("paper", "exact"):
        grads = backward(net, trace, delta, mode=mode)
        ref_grads = _reference_train.backward(net, ref, delta, mode=mode)
        for got, want in zip(grads, ref_grads, strict=True):
            assert got.tobytes() == want.tobytes(), mode

    work = network._float32_copy(net)
    delta = delta.astype(np.float32)
    trace = forward_batch(work, delays)
    ref = _reference_train.forward32(work.weights, window, delays)
    for got, want in zip(trace.delays, ref.delays, strict=True):
        assert got.tobytes() == want.tobytes()
    grads = backward(work, trace, delta, mode="paper")
    ref_grads = _reference_train.backward32(work.weights, ref, delta)
    for got, want in zip(grads, ref_grads, strict=True):
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    with pytest.raises(ConfigError, match="float32 working weights need the 'paper'"):
        backward(work, trace, delta, mode="exact")


@given(sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=5),
       batch=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       window=st.just(0.0) | st.floats(min_value=1.0, max_value=32.0))
@settings(max_examples=200, deadline=None)
def test_paper_mode_is_the_straight_through_gradient_times_downstream_fan_ins(
        sizes, batch, seed, window):
    """Layer ``l``'s ``paper`` gradient is the chain-rule gradient with the
    special ReLU's derivative taken as 1 (the straight-through estimator),
    times the fan-ins of the layers after it, ``prod(layer_sizes[l + 1:-1])``.

    Each entry agrees to 1e-12 of the same sum over the terms' absolute
    values: the identity is exact, but the two orders of division round
    apart, and a sum of terms that cancel magnifies that relative to itself.
    Float32 weights are the prescaled ``V = fl32(W / n)``, which ``backward``
    takes right to left, and their gradients are V-space steps: times ``n``
    they agree to 1e-5 with the sums over their own float32 trace and the
    weights ``W = V n``.
    """
    rng = np.random.default_rng(seed)
    net = init_network(sizes, rng=rng, init_range=(-1.0, 1.0), window=window)
    delays = rng.uniform(0.0, 16.0, (batch, sizes[0]))
    delta = rng.uniform(-4.0, 4.0, (batch, sizes[-1]))
    for net, tolerance in ((net, 1e-12), (network._float32_copy(net), 1e-5)):
        dtype = net.weights[0].dtype
        trace = forward_batch(net, delays)
        grads = backward(net, trace, delta.astype(dtype), mode="paper")
        # a neuron's pre-activation is the mean of its weighted input delays, so
        # d net_j / d w_ij = delay_i / fan_in and d net_j / d delay_i = w_ij / fan_in;
        # error is d loss / d pre-activation, which the ReLU passes unchanged
        error = size = delta.astype(dtype).astype(np.float64)
        for l in reversed(range(len(net.weights))):
            scale = math.prod(sizes[l + 1:-1]) / sizes[l]
            layer = trace.delays[l].astype(np.float64)
            want = np.einsum("bi,bj->ij", layer, error) * scale
            bound = np.einsum("bi,bj->ij", np.abs(layer), np.abs(size)) * scale
            assert grads[l].dtype == dtype, l
            got = grads[l] * sizes[l] if dtype == np.float32 else grads[l]
            assert np.all(np.abs(got - want) <= tolerance * bound), (l, dtype)
            w = net.weights[l].astype(np.float64)
            if dtype == np.float32:
                w *= sizes[l]
            error = np.einsum("bj,ij->bi", error, w) / sizes[l]
            size = np.einsum("bj,ij->bi", np.abs(size), np.abs(w)) / sizes[l]


def counting(monkeypatch, name, calls, record=None):
    """Replace ``learning.<name>`` with a wrapper that counts its calls."""
    original = getattr(learning, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        if record is not None:
            record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(learning, name, counted)


def test_each_epoch_visits_every_row_once_in_seeded_batches(monkeypatch):
    """Ten distinct rows in batches of 4: sizes 4, 4, 2, a seed-fixed order."""
    seen = []
    counting(monkeypatch, "forward_batch", {},
             record=lambda _net, rows: seen.append(rows[:, 0].tolist()))
    delays = np.arange(20.0).reshape(10, 2)  # row i starts with 2 * i
    data = encoded(delays, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    orders = []
    for _ in range(2):
        seen.clear()
        net = init_network([2, 3], rng=np.random.default_rng(0), window=16.0)
        train(net, data, MULTI3, TrainConfig(learning_rate=0.0, batch_size=4, epochs=1),
              rng=np.random.default_rng(5))
        assert [len(rows) for rows in seen] == [4, 4, 2]
        visited = [v for rows in seen for v in rows]
        assert sorted(visited) == delays[:, 0].tolist()
        orders.append(visited)
    assert orders[0] == orders[1]


def test_train_calls_each_traced_step_through_the_module(monkeypatch):
    """One call per batch of each step, and one ``predict`` per epoch with eval data.

    A tracer wraps these module-level names, so a training loop that inlined
    or bypassed them would vanish from the traced view.
    """
    calls = {}
    for name in ("forward_batch", "output_residual", "read_class_batch", "backward",
                 "predict"):
        counting(monkeypatch, name, calls)
    rng = np.random.default_rng(4)
    data = encoded(rng.uniform(0, 16, (10, 4)), [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    net = init_network([4, 5, 3], rng=rng, window=16.0)
    train(net, data, MULTI3, TrainConfig(batch_size=4, epochs=1), eval_data=data,
          rng=rng)
    assert calls == {"forward_batch": 3, "output_residual": 3, "read_class_batch": 3,
                     "backward": 3, "predict": 1}


def test_train_without_a_generator_draws_from_the_config_seed():
    """``rng`` omitted trains as ``default_rng(cfg.seed)`` does, and the
    shuffles it draws matter: another seed moves the weights elsewhere."""
    rng = np.random.default_rng(4)
    data = encoded(rng.uniform(0, 16, (10, 4)), [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    net = init_network([4, 5, 3], rng=rng, window=16.0)
    cfg = TrainConfig(batch_size=4, epochs=3, seed=7)
    runs = [train(copy.deepcopy(net), data, MULTI3, cfg, **given)
            for given in ({}, {"rng": np.random.default_rng(7)}, {"rng": np.random.default_rng(8)})]
    (omitted, omitted_history), (seeded, seeded_history), (other, _) = runs
    assert [w.tobytes() for w in omitted.weights] == [w.tobytes() for w in seeded.weights]
    assert omitted_history == seeded_history
    assert [w.tobytes() for w in other.weights] != [w.tobytes() for w in seeded.weights]


def test_zero_learning_rate_keeps_weights_bit_identical():
    rng = np.random.default_rng(2)
    net = init_network([4, 3], rng=rng, window=16.0)
    before = [w.copy() for w in net.weights]
    data = encoded(rng.uniform(0, 16, (6, 4)), [0, 1, 2, 0, 1, 2])
    cfg = TrainConfig(learning_rate=0.0, batch_size=3, epochs=4)
    _, history = train(net, data, MULTI3, cfg, rng=rng)
    assert len(history) == 4
    for w, b in zip(net.weights, before):
        assert w.tobytes() == b.tobytes()


def test_zero_epochs_returns_empty_history():
    rng = np.random.default_rng(2)
    net = init_network([4, 3], rng=rng, window=16.0)
    before = [w.copy() for w in net.weights]
    data = encoded(rng.uniform(0, 16, (3, 4)), [0, 1, 2])
    _, history = train(net, data, MULTI3, TrainConfig(epochs=0), rng=rng)
    assert history == []
    for w, b in zip(net.weights, before):
        assert np.array_equal(w, b)


def test_mean_reduction_scales_the_sum_step():
    """On one full batch, the mean step is exactly the sum step over n."""
    rng = np.random.default_rng(9)
    init = init_network([4, 3], rng=rng, window=16.0)
    data = encoded(np.random.default_rng(1).uniform(0, 16, (6, 4)), [0, 1, 2] * 2)
    nets = {}
    for reduction in ("sum", "mean"):
        net = copy.deepcopy(init)
        cfg = TrainConfig(learning_rate=0.01, batch_size=6, epochs=1,
                          batch_reduction=reduction)
        train(net, data, MULTI3, cfg, rng=np.random.default_rng(0))
        nets[reduction] = net
    step_sum = nets["sum"].weights[0] - init.weights[0]
    step_mean = nets["mean"].weights[0] - init.weights[0]
    assert np.allclose(step_sum, 6.0 * step_mean)


def test_train_input_validation():
    rng = np.random.default_rng(0)
    net = init_network([4, 3], rng=rng, window=16.0)
    data = encoded(rng.uniform(0, 16, (3, 4)), [0, 1, 2])
    with pytest.raises(ConfigError, match="empty"):
        train(net, encoded(np.zeros((0, 4)), []), MULTI3, TrainConfig())
    with pytest.raises(ConfigError, match="evaluation dataset is empty"):
        train(net, data, MULTI3, TrainConfig(), eval_data=encoded(np.zeros((0, 4)), []))
    single = TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                          excitatory_offset=3.0)
    with pytest.raises(ConfigError, match="output neurons"):
        train(net, data, single, TrainConfig())
    with pytest.raises(StructureError, match="input"):
        train(net, encoded(np.zeros((3, 5)), [0, 1, 2]), MULTI3, TrainConfig())
    with pytest.raises(ConfigError, match="heuristic"):
        train(init_network([4, 1], rng=rng), encoded(np.zeros((2, 4)), [0, 0]),
              TargetScheme(mode="single_neuron", window=16.0, num_classes=1),
              TrainConfig(heuristic=True))


@pytest.mark.parametrize("where,bad", [
    (where, bad)
    for where in ("data", "eval_data", "evaluate")
    for bad in (np.nan, np.inf, -np.inf, "wide", "label", "readout", "empty")
    # evaluate checks no delay: a non-finite one raises E_EVAL from its forward pass
    if where != "evaluate" or isinstance(bad, str)
])
def test_train_rejects_non_finite_delays_before_the_first_epoch(monkeypatch, bad, where):
    """A non-finite delay, a width other than the input layer's, a label
    beyond the readout, an empty set or a readout that does not fit the
    output layer, in either set, raises before any weight moves; all but the
    delays raise from ``metrics.evaluate`` too, before any row is classified."""
    rng = np.random.default_rng(0)
    net = init_network([4, 3], rng=rng, window=16.0)
    data = encoded(rng.uniform(0, 16, (3, 4)), [0, 1, 2])
    name = "training" if where == "data" else "evaluation"
    broken, scheme = data, MULTI3
    if bad == "wide":
        broken = encoded(np.hstack([data.delays, data.delays[:, :1]]), [0, 1, 2])
        error, match = StructureError, f"{name} input width 5 does not match input layer size 4"
    elif bad == "label":
        broken = encoded(data.delays, [0, 7, 2])
        error, match = ConfigError, f"{name} label 7 is outside the readout's 3 classes"
    elif bad == "readout":
        scheme = SINGLE3
        error, match = ConfigError, "readout expects 1 output neurons, network has 3"
    elif bad == "empty":
        broken = encoded(np.zeros((0, 4)), [])
        error, match = ConfigError, f"{name} dataset is empty"
    else:
        broken = encoded(data.delays.copy(), [0, 1, 2])
        broken.delays[1, 2] = bad
        error, match = DataError, f"{name} delays must be finite"
    sets = {"data": data, "eval_data": data, where: broken}
    calls = {}
    counting(monkeypatch, "forward_batch", calls)
    monkeypatch.setattr(metrics, "forward_batch", learning.forward_batch)  # evaluate counts too
    before = copy.deepcopy(net.weights)
    with pytest.raises(error, match=match) as excinfo:
        if where == "evaluate":
            metrics.evaluate(net, broken, scheme)
        else:
            train(net, sets["data"], scheme, TrainConfig(), eval_data=sets["eval_data"])
    assert excinfo.value.code == error.code
    assert calls == {}
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, before))


def test_train_rejects_labels_outside_the_readout():
    rng = np.random.default_rng(0)
    net = init_network([4, 3], rng=rng, window=16.0)
    with pytest.raises(ConfigError, match="label 3 is outside the readout's 3 classes"):
        train(net, encoded(np.zeros((3, 4)), [0, 1, 3]), MULTI3, TrainConfig())


def test_train_rejects_a_readout_window_other_than_the_nets_before_any_step():
    """``slmt3_iris``'s 4-3 net has the coding window 16; a readout of
    window 5 would put every target out of reach, so ``train`` refuses it
    with ``RunConfig``'s message and leaves the weights as they were."""
    cfg = preset("slmt3_iris")
    rng = np.random.default_rng(0)
    net = init_network(cfg.layer_sizes, rng=rng, init_range=cfg.train.init_range,
                       window=cfg.coding.params.window)
    before = copy.deepcopy(net.weights)
    data = encoded(rng.uniform(0, 16, (6, 4)), [0, 1, 2] * 2)
    scheme = dataclasses.replace(cfg.scheme, window=5.0)
    with pytest.raises(ConfigError, match="readout window 5.0 differs from coding window 16.0"):
        train(net, data, scheme, cfg.train, eval_data=data, rng=rng)
    assert [w.tobytes() for w in net.weights] == [w.tobytes() for w in before]


def test_divergence_raises_instead_of_looping():
    """Huge steps grow the special-ReLU net's weights until the outputs overflow."""
    net = init_network([2, 3, 1], rng=np.random.default_rng(0), init_range=(0.0, 5.0),
                       window=16.0)
    data = encoded([[16.0, 16.0]], [1])
    scheme = TargetScheme(mode="single_neuron", window=16.0, num_classes=2,
                          excitatory_offset=3.0)
    cfg = TrainConfig(learning_rate=1e8, batch_size=1, epochs=200)
    with pytest.raises(DivergenceError, match="epoch 180, batch 1"):
        train(net, data, scheme, cfg, rng=np.random.default_rng(0))


def test_divergence_hidden_by_the_heuristic_mask_still_raises():
    """An uninvolved output overflows while the masked squared error stays finite."""
    w = np.ones((2, 3))
    w[:, 2] = 1e308
    net = Network(layer_sizes=[2, 3], weights=[w], window=16.0)
    cfg = TrainConfig(batch_size=1, epochs=1, heuristic=True)
    with pytest.raises(DivergenceError, match="epoch 1, batch 1: output delays"):
        train(net, encoded([[16.0, 16.0]], [0]), MULTI3, cfg, rng=np.random.default_rng(0))


def test_divergence_in_the_last_eval_block_names_the_epoch():
    """Every evaluation slice is checked, not only the first ones: the 5
    overflowing rows lie in the last of three."""
    w = np.ones((2, 3))
    w[:, 2] = 1e308
    net = Network(layer_sizes=[2, 3], weights=[w], window=16.0)
    rows = 2 * _SLICE + 5
    delays = np.zeros((rows, 2))
    delays[-5:] = 16.0  # 16 * 1e308 overflows, 0 * 1e308 does not
    eval_data = encoded(delays, [0] * rows)
    predict(net, encoded(delays[:-5], [0] * (rows - 5)), MULTI3)  # finite slices
    cfg = TrainConfig(learning_rate=0.0, batch_size=1, epochs=2)
    with pytest.raises(DivergenceError, match="epoch 1, batch 1: output delays"):
        train(net, encoded([[0.0, 0.0]], [0]), MULTI3, cfg, eval_data=eval_data,
              rng=np.random.default_rng(0))


def test_overflowing_error_sum_names_its_batch():
    """Each batch's squared error is finite, but their running sum overflows."""
    net = Network(layer_sizes=[2, 1], weights=[np.full((2, 1), 6.25e152)], window=16.0)
    scheme = TargetScheme(mode="single_neuron", window=16.0, num_classes=2,
                          excitatory_offset=3.0)
    cfg = TrainConfig(learning_rate=0.0, batch_size=1, epochs=1)
    with pytest.raises(DivergenceError, match="epoch 1, batch 2: squared error"):
        train(net, encoded([[16.0, 16.0]] * 2, [0, 1]), scheme, cfg,
              rng=np.random.default_rng(0))


def test_fast_divergence_leaves_the_last_completed_epoch():
    """A step that takes float32 weights to -inf clips every later output to
    the window, so only the epoch's weight check catches it; float64 holds
    the same step."""
    net = Network(layer_sizes=[1, 1, 1], weights=[[[-1.0]], [[1.0]]], window=16.0)
    data = encoded([[16.0]], [1])
    cfg = TrainConfig(learning_rate=1e37, batch_size=1, epochs=2)
    trained, _ = train(copy.deepcopy(net), data, SINGLE3, cfg, rng=np.random.default_rng(0))
    assert all(np.isfinite(w).all() for w in trained.weights)
    fast = dataclasses.replace(cfg, numerics="fast")
    with pytest.raises(DivergenceError, match="epoch 1: a weight left float32's range"):
        train(net, data, SINGLE3, fast, rng=np.random.default_rng(0))
    assert [w.tolist() for w in net.weights] == [[[-1.0]], [[1.0]]]
    assert all(w.dtype == np.float64 for w in net.weights)


@given(sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
       classes=st.integers(min_value=1, max_value=5),
       batch_size=st.integers(min_value=2, max_value=16),
       full_batches=st.integers(min_value=0, max_value=3),
       short=st.integers(min_value=1, max_value=15),
       learning_rate=st.floats(min_value=0.0, max_value=0.01),
       mean=st.booleans(), heuristic=st.booleans(), gated=st.booleans(),
       window=st.sampled_from([0.0, 16.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fast_numerics_train_close_to_exact64(sizes, classes, batch_size, full_batches,
                                              short, learning_rate, mean, heuristic,
                                              gated, window, seed):
    """One paper-mode epoch of 1-3 weight layers, ending in a short batch:
    the float32 working copies give outputs within 1e-4 of the float64 run's
    scale, written back as float64.  Exact mode is left out: a special-ReLU
    mask that flips at the kink moves outputs by far more."""
    layer_sizes = [*sizes, classes]
    scheme = TargetScheme(mode="multi_neuron", window=window, num_classes=classes,
                          excitatory_offset=0.0, inhibitory_offset=4.0)
    rng = np.random.default_rng(seed)
    rows = full_batches * batch_size + 1 + (short - 1) % (batch_size - 1)
    data = encoded(rng.uniform(0.0, 16.0, (rows, sizes[0])), rng.integers(0, classes, rows))
    start = init_network(layer_sizes, rng=rng, init_range=(-1.0, 1.0), window=window)
    outputs = []
    for numerics in ("exact64", "fast"):
        cfg = TrainConfig(learning_rate=learning_rate, batch_size=batch_size, epochs=1,
                          heuristic=heuristic, batch_reduction="mean" if mean else "sum",
                          update_gate="on_misclassification" if gated else "always",
                          numerics=numerics)
        net, _ = train(copy.deepcopy(start), data, scheme, cfg,
                       rng=np.random.default_rng(seed))
        assert all(w.dtype == np.float64 for w in net.weights)
        outputs.append(forward_batch(net, data.delays).outputs)
    exact, fast = outputs
    assert np.abs(fast - exact).max() <= 1e-4 * max(np.abs(exact).max(), 1.0)


@pytest.mark.parametrize("layer", [0, 1])
def test_fast_rejects_weights_float32_cannot_hold_before_any_step(layer):
    """Weights near 1e38 in a 4-5-3 net: float64 trains them, but their
    float32 products over delays up to 16 would overflow, so ``fast`` raises
    ``ConfigError`` naming the matrix and leaves the network as it was."""
    rng = np.random.default_rng(0)
    net = init_network([4, 5, 3], rng=rng, init_range=(0.5, 1.0), window=16.0)
    net.weights[layer] *= 1e38
    data = encoded(rng.uniform(0.0, 16.0, (12, 4)), rng.integers(0, 3, 12))
    cfg = TrainConfig(learning_rate=0.0, batch_size=4, epochs=1)
    trained, _ = train(copy.deepcopy(net), data, MULTI3, cfg, rng=np.random.default_rng(0))
    assert all(np.isfinite(w).all() for w in trained.weights)
    before = [w.tobytes() for w in net.weights]
    with pytest.raises(ConfigError, match=f"numerics 'fast' cannot hold weight matrix {layer}:"):
        train(net, data, MULTI3, dataclasses.replace(cfg, numerics="fast"),
              rng=np.random.default_rng(0))
    assert [w.tobytes() for w in net.weights] == before


@pytest.mark.parametrize("layer", [0, 1])
def test_fast_refuses_values_past_a_quarter_of_float32s_range(layer):
    """Positive weights in a 4-5-3 net whose layer ``layer`` reaches 0.3 of
    float32's largest number on the largest delays: float32 would hold it
    and ``exact64`` trains, but ``fast``'s range certificate,
    ``metrics._output_bounds``, stops at a quarter of the range, so it
    raises ``ConfigError`` naming the matrix before any step."""
    rng = np.random.default_rng(1)
    net = init_network([4, 5, 3], rng=rng, init_range=(0.5, 1.0), window=16.0)
    data = encoded(rng.uniform(0.0, 16.0, (12, 4)), rng.integers(0, 3, 12))
    top = np.full((1, 4), 16.0)  # the largest delays: with positive weights, the largest outputs
    net.weights[layer] *= 0.3 * float(np.finfo(np.float32).max) / (
        forward_batch(net, top).delays[layer + 1].max() - 16.0)
    reach = forward_batch(net, top).delays[layer + 1].max()
    assert np.finfo(np.float32).max / 4 < reach < np.finfo(np.float32).max / 2
    cfg = TrainConfig(learning_rate=0.0, batch_size=4, epochs=1)
    trained, _ = train(copy.deepcopy(net), data, MULTI3, cfg, rng=np.random.default_rng(0))
    assert all(np.isfinite(w).all() for w in trained.weights)
    with pytest.raises(ConfigError, match=f"numerics 'fast' cannot hold weight matrix {layer}:"):
        train(net, data, MULTI3, dataclasses.replace(cfg, numerics="fast"),
              rng=np.random.default_rng(0))


def _same_bytes_per_row(net, x, split):
    """Assert that ``metrics._sweep`` over ``x`` sliced at the rows
    ``split`` gives each row the output bytes of ``forward_batch`` on its
    slice through ``net``'s working copy."""
    work = network._float32_copy(net)
    expected = np.concatenate([forward_batch(work, block).outputs for block in np.split(x, split)])
    assert expected.dtype == np.float32 and expected.shape == (len(x), net.layer_sizes[-1])
    edges = [0, *split, len(x)]
    assert metrics._sweep(work.weights, net.window, x, edges).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 32, 128, 150, 200])
def test_fast_forward_runs_the_float32_sweeps_arithmetic(rows):
    """``forward_batch`` on the prescaled working copy of the stored
    169-500-10 benchmark model gives the output bytes of ``metrics._sweep``
    over conv-coded digits cut into one to three blocks: training and
    evaluation share one float32 layer rule."""
    with np.load(REPO_ROOT / "perfbench" / "mt10_weights.npz") as stored:
        weights = [stored["w0"].astype(np.float64), stored["w1"].astype(np.float64)]
    net = Network([169, 500, 10], weights, window=MNIST.coding.params.window)
    digits = make_digits(20, seed=5)
    x = encode_dataset(RawDataset(digits.features[:rows], digits.labels[:rows]),
                       MNIST.coding).delays
    for blocks in range(1, min(rows, 3) + 1):
        _same_bytes_per_row(net, x, [rows * b // blocks for b in range(1, blocks)])


@given(seed=st.integers(min_value=0, max_value=2**31),
       depth=st.integers(min_value=1, max_value=4),
       rows=st.integers(min_value=1, max_value=_SLICE),
       cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
       delays=st.sampled_from(["float64", "negative", "uint8"]),
       window=st.sampled_from([0.0, 16.0]))
@settings(max_examples=60, deadline=None)
def test_float32_sweep_gives_each_row_the_bytes_of_its_blocks_forward(
        seed, depth, rows, cuts, delays, window):
    """Over random 1-4-layer nets and any split of up to 512 rows into
    blocks, ``metrics._sweep`` through the working weights gives each row
    the bytes ``forward_batch`` gives it in its block."""
    rng = np.random.default_rng(seed)
    sizes = [int(n) for n in rng.integers(1, 40, depth + 1)]
    net = init_network(sizes, rng=rng, init_range=(-0.5, 1.0), window=window)
    x = rng.uniform(-16.0 if delays == "negative" else 0.0, 16.0, (rows, sizes[0]))
    if delays == "uint8":
        x = np.rint(x).astype(np.uint8)
    _same_bytes_per_row(net, x, sorted({int(c * rows) for c in cuts} - {0, rows}))


@given(sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=2, max_size=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(sizes=[169, 500, 10], seed=0)
@settings(max_examples=50, deadline=None)
def test_prescaled_copy_of_a_write_back_is_the_working_weights(sizes, seed):
    """``W = float64(V) n`` is exact for every finite float32 ``V``
    (subnormal, near float32's largest, -0.0) and any fan-in ``n``, so
    prescaling the written-back weights gives ``V`` back bit for bit."""
    rng = np.random.default_rng(seed)
    net = init_network(sizes, rng=rng)
    work = network._float32_copy(net)
    for v in work.weights:
        bits = rng.integers(0, 2**32, v.shape, dtype=np.uint32).view(np.float32)
        v[...] = np.where(np.isfinite(bits), bits, np.float32(0))
    network._write_back(work, net)
    assert all(w.dtype == np.float64 for w in net.weights)
    again = network._float32_copy(net)
    assert [v.tobytes() for v in again.weights] == [v.tobytes() for v in work.weights]


def test_fast_epochs_one_call_at_a_time_write_the_same_weights():
    """Each call starts from prescaled float32 copies of float64 weights
    written back exactly from them, so the calls do not drift."""
    data = digits(16, 5)
    cfg = TrainConfig(learning_rate=0.1, batch_size=32, batch_reduction="mean",
                      init_range=(-0.5, 0.5), numerics="fast", epochs=3)
    runs = []
    for calls, epochs in ((1, 3), (3, 1)):
        rng = np.random.default_rng(3)
        net = init_network([169, 40, 10], rng=rng, init_range=cfg.init_range, window=16.0)
        history = []
        for _ in range(calls):
            net, stats = train(net, data, MNIST.scheme, dataclasses.replace(cfg, epochs=epochs),
                               eval_data=data, rng=rng)
            history += [(s.mse, s.train_accuracy, s.test_accuracy) for s in stats]
        runs.append(([w.tobytes() for w in net.weights], history))
    assert runs[0] == runs[1]


def test_heuristic_moves_only_involved_output_columns():
    rng = np.random.default_rng(8)
    net = init_network([5, 4, 3], rng=rng, window=16.0)
    before = [w.copy() for w in net.weights]
    data = encoded(rng.uniform(0, 16, (1, 5)), [1])  # involved set {0, 1}
    cfg = TrainConfig(learning_rate=0.5, batch_size=1, epochs=1, heuristic=True)
    train(net, data, MULTI3, cfg, rng=rng)
    out_w, out_before = net.weights[-1], before[-1]
    assert out_w[:, 2].tobytes() == out_before[:, 2].copy().tobytes()
    assert np.any(out_w[:, 0] != out_before[:, 0])
    assert np.any(out_w[:, 1] != out_before[:, 1])


def test_heuristic_mse_counts_involved_terms_only():
    rng = np.random.default_rng(4)
    net = init_network([4, 3], rng=rng, window=16.0)
    data = encoded(rng.uniform(0, 16, (1, 4)), [0])
    cfg = TrainConfig(learning_rate=0.0, batch_size=1, epochs=1, heuristic=True)
    _, history = train(net, data, MULTI3, cfg, rng=rng)
    out = forward_batch(net, data.delays).outputs[0]
    assert history[0].mse == pytest.approx((out[0] - 16.0) ** 2)


def test_misclassification_gate_freezes_correct_samples():
    weights = [np.array([[1.0, 2.0], [1.0, 2.0]])]
    scheme = TargetScheme(mode="multi_neuron", window=16.0, num_classes=2,
                          excitatory_offset=0.0, inhibitory_offset=4.0)
    data = encoded([[4.0, 4.0]], [0])  # neuron 0 already fires first
    gated = Network(layer_sizes=[2, 2], weights=[weights[0].copy()], window=16.0)
    cfg = TrainConfig(learning_rate=0.5, batch_size=1, epochs=3,
                      update_gate="on_misclassification")
    _, history = train(gated, data, scheme, cfg, rng=np.random.default_rng(0))
    assert gated.weights[0].tobytes() == weights[0].tobytes()
    assert history[-1].train_accuracy == 1.0
    free = Network(layer_sizes=[2, 2], weights=[weights[0].copy()], window=16.0)
    train(free, data, scheme, TrainConfig(learning_rate=0.5, batch_size=1, epochs=3),
          rng=np.random.default_rng(0))
    assert free.weights[0].tobytes() != weights[0].tobytes()


def test_history_records_eval_accuracy_when_given():
    rng = np.random.default_rng(6)
    net = init_network([4, 3], rng=rng, window=16.0)
    data = encoded(rng.uniform(0, 16, (6, 4)), [0, 1, 2] * 2)
    _, history = train(net, data, MULTI3, TrainConfig(epochs=2, batch_size=6),
                       eval_data=data, rng=rng)
    assert all(h.test_accuracy is not None for h in history)
    _, history = train(net, data, MULTI3, TrainConfig(epochs=2, batch_size=6),
                       rng=rng)
    assert all(h.test_accuracy is None for h in history)


def test_xor_shaped_delays_are_learnable_with_a_hidden_layer():
    """The classic non-separable case: solved by 2-3-1 within a few hundred epochs."""
    delays = np.array([[16.0, 16.0], [16.0, 0.0], [0.0, 16.0], [0.0, 0.0]])
    data = encoded(delays, [0, 1, 1, 0])
    scheme = TargetScheme(mode="single_neuron", window=16.0, num_classes=2,
                          excitatory_offset=3.0)
    rng = np.random.default_rng(7)
    net = init_network([2, 3, 1], rng=rng, window=16.0)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, epochs=300, seed=7,
                      batch_reduction="mean")
    _, history = train(net, data, scheme, cfg, rng=rng)
    first_perfect = next(h.epoch for h in history if h.train_accuracy == 1.0)
    assert first_perfect <= 150
    assert all(h.train_accuracy == 1.0 for h in history[first_perfect - 1:])


def digits(n_per_class, seed):
    """Synthetic digits through the 169-input conv coding of ``mt10_mnist_noheu``."""
    return encode_dataset(make_digits(n_per_class, seed=seed), MNIST.coding)


def random_data(seed, n, width, classes):
    rng = np.random.default_rng(seed)
    return encoded(rng.uniform(0.0, 16.0, (n, width)), rng.integers(0, classes, n))


# (layer sizes, scheme, train data, eval data, TrainConfig fields)
REFERENCE_CASES = {
    "paper_169_500_10": ([169, 500, 10], MNIST.scheme,
                         lambda: digits(32, 5), lambda: digits(10, 6),
                         {"learning_rate": 1.0, "batch_size": 32,
                          "batch_reduction": "mean"}),
    "exact_169_500_10": ([169, 500, 10], MNIST.scheme,
                         lambda: digits(32, 5), lambda: digits(10, 6),
                         {"learning_rate": 1.0, "batch_size": 32,
                          "batch_reduction": "mean", "gradient_mode": "exact"}),
    "heuristic": ([6, 5, 3], MULTI3,
                  lambda: random_data(1, 40, 6, 3), lambda: random_data(2, 12, 6, 3),
                  {"learning_rate": 0.2, "batch_size": 8, "heuristic": True,
                   "batch_reduction": "mean"}),
    "on_misclassification": ([6, 5, 3], MULTI3,
                             lambda: random_data(3, 40, 6, 3), lambda: None,
                             {"learning_rate": 0.02, "batch_size": 8,
                              "update_gate": "on_misclassification"}),
    "sum_exact": ([6, 5, 3], MULTI3,
                  lambda: random_data(4, 40, 6, 3), lambda: random_data(5, 12, 6, 3),
                  {"learning_rate": 0.02, "batch_size": 8, "gradient_mode": "exact"}),
    "single_neuron": ([4, 5, 1], SINGLE3,
                      lambda: random_data(6, 30, 4, 3), lambda: random_data(7, 9, 4, 3),
                      {"learning_rate": 0.001, "batch_size": 10}),
    "ragged_last_batch": ([6, 5, 3], MULTI3,
                          lambda: random_data(8, 50, 6, 3), lambda: None,
                          {"learning_rate": 0.2, "batch_size": 16,
                           "batch_reduction": "mean"}),
    "batch_larger_than_data": ([6, 3], MULTI3,
                               lambda: random_data(9, 20, 6, 3),
                               lambda: random_data(10, 6, 6, 3),
                               {"learning_rate": 0.2, "batch_size": 64,
                                "batch_reduction": "mean"}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_training_matches_the_allocating_reference_bit_for_bit(case):
    sizes, scheme, make_train, make_eval, fields = REFERENCE_CASES[case]
    data, eval_data = make_train(), make_eval()
    cfg = TrainConfig(epochs=3, **fields)
    runs = []
    for trainer in (train, _reference_train.train):
        rng = np.random.default_rng(11)
        net = init_network(sizes, rng=rng, window=16.0)
        runs.append(trainer(net, data, scheme, cfg, eval_data=eval_data, rng=rng))
    (net, history), (ref_net, ref_history) = runs
    for w, ref in zip(net.weights, ref_net.weights, strict=True):
        assert w.tobytes() == ref.tobytes()
    assert history == ref_history
    for stats in history:
        assert type(stats.epoch) is int
        assert type(stats.mse) is float
        assert type(stats.train_accuracy) is float
        assert stats.test_accuracy is None if eval_data is None \
            else type(stats.test_accuracy) is float


@pytest.mark.parametrize("case", sorted(
    name for name, case in REFERENCE_CASES.items()
    if case[-1].get("gradient_mode", "paper") == "paper"))
def test_fast_training_matches_the_allocating_float32_reference_bit_for_bit(case):
    """``numerics="fast"`` writes the float32 reference trainer's weights and
    epoch history byte for byte: the prescale, the layer rule, the V-space
    gradients and their products' layouts, and the exact write-back."""
    sizes, scheme, make_train, make_eval, fields = REFERENCE_CASES[case]
    data, eval_data = make_train(), make_eval()
    cfg = TrainConfig(epochs=3, numerics="fast", **fields)
    runs = []
    for trainer in (train, _reference_train.train_fast):
        rng = np.random.default_rng(11)
        net = init_network(sizes, rng=rng, window=16.0)
        runs.append(trainer(net, data, scheme, cfg, eval_data=eval_data, rng=rng))
    (net, history), (ref_net, ref_history) = runs
    for w, ref in zip(net.weights, ref_net.weights, strict=True):
        assert w.dtype == np.float64 and w.tobytes() == ref.tobytes()
    assert history == ref_history


def test_byte_delays_train_like_their_float64_copy():
    """Conv coding stores the preset's delays as bytes; training on them
    gives the float64 copy's weights and epoch stats bit for bit."""
    sets = digits(32, 5), digits(10, 6)
    assert all(data.delays.dtype == np.uint8 for data in sets)
    copies = [EncodedDataset(data.delays.astype(np.float64), data.fired, data.labels)
              for data in sets]
    cfg = TrainConfig(epochs=2, learning_rate=1.0, batch_size=32, batch_reduction="mean")
    runs = []
    for data, eval_data in (sets, copies):
        rng = np.random.default_rng(11)
        net = init_network([169, 50, 10], rng=rng, init_range=(-0.5, 0.5), window=16.0)
        runs.append(train(net, data, MNIST.scheme, cfg, eval_data=eval_data, rng=rng))
    (net, history), (copy_net, copy_history) = runs
    for w, copy_w in zip(net.weights, copy_net.weights, strict=True):
        assert w.tobytes() == copy_w.tobytes()
    assert history == copy_history


def test_train_peak_allocation_stays_below_two_weight_matrices():
    """One batch's trace and gradients are alive at a time, in either gradient mode.

    A trainer that copies the 169x500 gradient for its fan-in quotient and
    scaled step peaked at ~2.8x that matrix, and one that keeps the previous
    batch's gradients alive while the next batch allocates at ~2.8x too.
    Exact mode's extra hidden-delta temporaries must fit the same bound.
    The epoch counts may differ by interpreter bookkeeping, far below one
    array.
    """
    data = digits(32, 5)
    for mode in ("paper", "exact"):
        cfg = dict(learning_rate=1.0, batch_size=32, batch_reduction="mean",
                   gradient_mode=mode)
        peaks = {}
        for epochs in (1, 3):
            net = init_network([169, 500, 10], rng=np.random.default_rng(1), window=16.0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train(net, data, MNIST.scheme, TrainConfig(epochs=epochs, **cfg),
                      rng=np.random.default_rng(2))
                peaks[epochs] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        limit = 2 * net.weights[0].nbytes
        assert peaks[1] <= limit and peaks[3] <= limit, (mode, peaks, limit)
        assert abs(peaks[3] - peaks[1]) < 8192, (mode, peaks)
