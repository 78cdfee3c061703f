"""Average-delay propagation: single neurons, layered passes, the response window.

Single samples go through ``forward_batch`` as one-row delay matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtspike.errors import StructureError
from mtspike.network import Network, _weight_count, forward_batch, init_network


def row(*delays):
    return np.array([delays], dtype=float)


def neuron(weights, window=0.0):
    """One output neuron with the given input weights."""
    w = np.array(weights, dtype=float)[:, np.newaxis]
    return Network(layer_sizes=[w.shape[0], 1], weights=[w], window=window)


def test_special_relu_clips_at_zero():
    """Through one unit weight, each output is its pre-activation floored at 0."""
    net = Network(layer_sizes=[1, 1], weights=[np.ones((1, 1))])
    trace = forward_batch(net, np.array([[-2.0], [0.0], [3.5]]))
    assert trace.nets[0].ravel().tolist() == [-2.0, 0.0, 3.5]
    assert trace.outputs.ravel().tolist() == [0.0, 0.0, 3.5]


def test_adr_neuron_known_value():
    # (0.5*4 + 1.0*8) / 2 = 5
    assert forward_batch(neuron([0.5, 1.0]), row(4.0, 8.0)).outputs.tolist() == [[5.0]]
    shifted = forward_batch(neuron([0.5, 1.0], window=16.0), row(4.0, 8.0))
    assert shifted.outputs.tolist() == [[21.0]]


def test_adr_neuron_negative_net_clips_then_offsets():
    out = forward_batch(neuron([-1.0, -1.0], window=16.0), row(4.0, 8.0)).outputs
    assert out.tolist() == [[16.0]]  # clipped response fires exactly at the window


def test_adr_neuron_shape_checks():
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 1], weights=[np.ones((1, 1))])
    with pytest.raises(StructureError):
        neuron([])  # zero fan-in
    with pytest.raises(StructureError):
        forward_batch(neuron([1.0]), row(1.0, 2.0))


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=16.0), min_size=1, max_size=6),
)
@settings(max_examples=60)
def test_identity_weights_average_the_delays(delays):
    out = forward_batch(neuron(np.ones(len(delays))), row(*delays)).outputs[0, 0]
    assert out == pytest.approx(np.mean(delays))


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=16.0), min_size=1, max_size=6),
    scale=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=60)
def test_outputs_bounded_by_scaled_max_delay(delays, scale):
    """With uniform non-negative weight w, the output is at most w * max delay."""
    out = forward_batch(neuron(np.full(len(delays), scale)), row(*delays)).outputs[0, 0]
    assert 0.0 <= out <= scale * max(delays) + 1e-9


def test_network_shape_validation():
    with pytest.raises(StructureError):
        Network(layer_sizes=[3], weights=[])
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 0], weights=[np.zeros((2, 0))])
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 3], weights=[])
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 3], weights=[np.zeros((3, 2))])
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 3], weights=[np.full((2, 3), np.nan)])
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 3], weights=[np.zeros((2, 3))], activation="softmax")
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 3], weights=[np.zeros((2, 3))], window=-1.0)
    with pytest.raises(StructureError):
        Network(layer_sizes=[2, 3], weights=[np.zeros((2, 3))], window=np.inf)


def test_network_widens_every_dtype_to_float64():
    tenth = np.full((2, 3), 0.1, np.float32)  # widens to 0.100000001490116..., not 0.1
    for weights in ([tenth, np.full((3, 1), 0.2, np.float32)],
                    [np.ones((2, 3), np.int64), np.ones((3, 1), np.int64)],
                    [np.ones((2, 3), np.float16), np.ones((3, 1), np.float16)],
                    [[[1, 2, 3], [4, 5, 6]], [[1.5], [2.5], [3.5]]],
                    [tenth, np.ones((3, 1))]):
        net = Network([2, 3, 1], weights)
        for w, given in zip(net.weights, weights):
            assert w.dtype == np.float64
            assert w.tobytes() == np.asarray(given).astype(np.float64).tobytes()
    assert not hasattr(net, "dtype")
    listed = Network([2, 1], [[[0.1], [0.2]]])
    assert listed.weights[0].tobytes() == np.array([[0.1], [0.2]]).tobytes()


@pytest.mark.parametrize("size", [2.5, 2.0, "2", None, np.inf, np.nan, True, np.bool_(True),
                                  np.float64(2.0)])
def test_network_rejects_layer_sizes_that_are_not_integers(size):
    with pytest.raises(StructureError, match="layer sizes must be integers"):
        Network([size, 1], [np.ones((2, 1))])


def test_network_takes_numpy_integer_layer_sizes():
    net = Network([np.int64(2), np.uint8(1)], [np.ones((2, 1))])
    assert net.layer_sizes == [2, 1] and all(type(s) is int for s in net.layer_sizes)


def test_forward_batch_computes_in_float64_whatever_the_input_dtype():
    rng = np.random.default_rng(3)
    net = init_network([4, 6, 3], rng=rng, window=16.0)
    delays = rng.uniform(0.0, 16.0, (5, 4))
    for inputs in (delays.astype(np.uint8), delays > 8, delays.astype(np.float32), delays):
        trace = forward_batch(net, inputs)
        assert all(a.dtype == np.float64 for a in trace.nets + trace.delays)
        wide = forward_batch(net, inputs.astype(np.float64))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(trace.nets + trace.delays, wide.nets + wide.delays))


def test_num_weights_counts_every_entry():
    net = init_network([4, 25, 1], rng=np.random.default_rng(0))
    assert _weight_count(net.layer_sizes) == sum(w.size for w in net.weights) == 125
    assert _weight_count([169, 500, 10]) == 89500


def test_init_network_is_deterministic_and_in_range():
    a = init_network([3, 5, 2], rng=np.random.default_rng(42), init_range=(0.2, 0.4))
    b = init_network([3, 5, 2], rng=np.random.default_rng(42), init_range=(0.2, 0.4))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
        assert wa.min() >= 0.2 and wa.max() <= 0.4


def test_forward_records_nets_and_delays():
    w = [np.array([[0.5], [1.0]])]
    net = Network(layer_sizes=[2, 1], weights=w)
    trace = forward_batch(net, row(4.0, 8.0))
    assert trace.nets[0].tolist() == [[5.0]]
    assert trace.delays[0].tolist() == [[4.0, 8.0]]
    assert trace.outputs.tolist() == [[5.0]]


def test_forward_window_shifts_every_layer():
    w = [np.ones((2, 2)), np.ones((2, 1))]
    plain = Network(layer_sizes=[2, 2, 1], weights=[m.copy() for m in w])
    shifted = Network(layer_sizes=[2, 2, 1], weights=[m.copy() for m in w], window=16.0)
    out0 = forward_batch(plain, row(2.0, 6.0)).outputs[0, 0]
    out1 = forward_batch(shifted, row(2.0, 6.0)).outputs[0, 0]
    # hidden delays gain the window, which then averages straight through,
    # and the output layer adds its own window on top
    assert out0 == pytest.approx(4.0)
    assert out1 == pytest.approx(4.0 + 16.0 + 16.0)


@given(seed=st.integers(min_value=0, max_value=2**31),
       batch=st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_forward_batch_matches_single_sample(seed, batch):
    """Row i of a batched pass equals the one-row pass of sample i.

    BLAS may round a one-row product differently, so this is allclose,
    not byte equality.
    """
    rng = np.random.default_rng(seed)
    net = init_network([3, 4, 2], rng=rng, window=16.0)
    inputs = rng.uniform(0.0, 16.0, size=(batch, 3))
    batched = forward_batch(net, inputs)
    for i in range(batch):
        single = forward_batch(net, inputs[i:i + 1])
        for l in range(len(net.weights)):
            assert single.nets[l].shape == (1, net.layer_sizes[l + 1])
            assert np.allclose(single.nets[l][0], batched.nets[l][i])
            assert np.allclose(single.delays[l + 1][0], batched.delays[l + 1][i])


def test_forward_input_size_mismatch():
    net = init_network([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(StructureError):
        forward_batch(net, np.zeros((4, 2)))
    with pytest.raises(StructureError):
        forward_batch(net, np.zeros(3))


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_outputs_never_precede_the_window(seed):
    """Every non-input spike happens at or after the response window."""
    rng = np.random.default_rng(seed)
    net = init_network([4, 6, 3], rng=rng, window=16.0)
    batch = rng.uniform(0.0, 16.0, size=(3, 4))
    trace = forward_batch(net, batch)
    for layer in trace.delays[1:]:
        assert np.all(layer >= 16.0)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_plain_rule_outputs_are_non_negative(seed):
    rng = np.random.default_rng(seed)
    net = init_network([4, 6, 3], rng=rng)
    batch = rng.uniform(0.0, 16.0, size=(3, 4))
    trace = forward_batch(net, batch)
    for layer in trace.delays[1:]:
        assert np.all(layer >= 0.0)
