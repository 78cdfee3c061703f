"""Accuracy, spike counting, and abstract energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtspike.datasets import EncodedDataset
from mtspike.errors import ConfigError, StructureError
from mtspike.metrics import (
    PREDICT_BLOCK,
    dataset_spike_count,
    energy,
    evaluate,
    predict,
    summarize,
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


def test_evaluate_rejects_labels_outside_the_readout():
    scheme = TargetScheme(mode="multi_neuron", window=16.0, num_classes=2,
                          excitatory_offset=0.0, inhibitory_offset=4.0)
    delays = np.array([[1.0, 5.0], [5.0, 1.0], [1.0, 5.0]])
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool),
                          labels=np.array([0, 1, 2]))
    with pytest.raises(ConfigError, match="label 2 is outside the readout's 2 classes"):
        evaluate(identity_net(2), data, scheme)


def test_evaluate_rejects_an_empty_set():
    scheme = TargetScheme(mode="multi_neuron", window=16.0, num_classes=2,
                          excitatory_offset=0.0, inhibitory_offset=4.0)
    empty = EncodedDataset(delays=np.zeros((0, 2)), fired=np.zeros((0, 2), bool),
                           labels=[])
    with pytest.raises(ConfigError, match="evaluation dataset is empty"):
        evaluate(identity_net(2), empty, scheme)


def test_evaluate_checks_width():
    net = init_network([4, 3], rng=np.random.default_rng(0))
    data = EncodedDataset(delays=np.zeros((2, 3)), fired=np.ones((2, 3), bool),
                          labels=np.zeros(2, dtype=int))
    with pytest.raises(StructureError):
        evaluate(net, data, MULTI3)


def test_evaluate_rejects_a_bad_label_in_the_last_block_only():
    rows = 3 * PREDICT_BLOCK + 5
    delays = np.tile([1.0, 5.0, 5.0], (rows, 1))
    labels = np.zeros(rows, dtype=int)
    labels[-1] = 3
    data = EncodedDataset(delays=delays, fired=np.ones_like(delays, bool), labels=labels)
    with pytest.raises(ConfigError, match="label 3 is outside") as caught:
        evaluate(identity_net(3), data, MULTI3)
    assert caught.value.code == "E_CONFIG"


SCHEMES = {
    "multi_neuron": lambda classes: TargetScheme(
        mode="multi_neuron", window=16.0, num_classes=classes,
        excitatory_offset=0.0, inhibitory_offset=4.0),
    "single_neuron": lambda classes: TargetScheme(
        mode="single_neuron", window=16.0, num_classes=classes, excitatory_offset=3.0),
}


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    depth=st.integers(min_value=2, max_value=4),
    rows=st.sampled_from([1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1,
                          2 * PREDICT_BLOCK - 1, 2 * PREDICT_BLOCK, 3 * PREDICT_BLOCK + 5]),
    mode=st.sampled_from(sorted(SCHEMES)),
    classes=st.integers(min_value=2, max_value=6),
)
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
    scores = outputs if mode == "multi_neuron" else np.abs(outputs - scheme.checkpoints)
    best_two = np.sort(scores, axis=1)[:, :2]
    clear = best_two[:, 1] - best_two[:, 0] > 1e-9
    assert (predicted[clear] == whole[clear]).all()


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
    result = summarize(net, data, MULTI3, alpha=2.0)
    assert result.test_accuracy == 1.0
    assert result.total_spikes == 2 * (3 + 3)
    assert result.energy == 2.0 * result.total_spikes

