"""Target assignment and class readout in both output regimes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtspike.errors import ConfigError, EvaluationError
from mtspike.readout import (
    TargetScheme,
    read_class_batch,
    target_matrix,
)

SINGLE3 = TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                       excitatory_offset=3.0)
MULTI3 = TargetScheme(mode="multi_neuron", window=16.0, num_classes=3,
                      excitatory_offset=0.0, inhibitory_offset=4.0)


def test_checkpoints_spacing():
    assert SINGLE3.checkpoints.tolist() == [16.0, 19.0, 22.0]
    ten = TargetScheme(mode="single_neuron", window=16.0, num_classes=10,
                       excitatory_offset=1.0)
    assert ten.checkpoints.tolist() == [16.0 + i for i in range(10)]


def test_output_size_per_mode():
    assert SINGLE3.output_size == 1
    assert MULTI3.output_size == 3


def test_single_neuron_targets():
    assert target_matrix(SINGLE3).tolist() == [[16.0], [19.0], [22.0]]


def test_multi_neuron_targets():
    # the class's own neuron gets the short target, the rest the long one
    m = target_matrix(MULTI3)
    assert m.shape == (3, 3)
    assert m[1].tolist() == [20.0, 16.0, 20.0]
    assert m[0].tolist() == [16.0, 20.0, 20.0]


def test_target_matrix_stacks_rows():
    """Row c is checkpoint c, or the excitatory target on neuron c among inhibitory ones."""
    schemes = [
        SINGLE3,
        MULTI3,
        TargetScheme(mode="single_neuron", window=16.0, num_classes=10,
                     excitatory_offset=0.7),
        TargetScheme(mode="multi_neuron", window=16.0, num_classes=10,
                     excitatory_offset=0.3, inhibitory_offset=4.1),
    ]
    for scheme in schemes:
        m = target_matrix(scheme)
        assert m.shape == (scheme.num_classes, scheme.output_size)
        for c in range(scheme.num_classes):
            if scheme.mode == "single_neuron":
                want = [scheme.window + c * scheme.excitatory_offset]
            else:
                want = [scheme.window + scheme.inhibitory_offset] * scheme.num_classes
                want[c] = scheme.window + scheme.excitatory_offset
            assert m[c].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("scheme", [SINGLE3, MULTI3])
def test_reading_a_target_returns_its_class(scheme):
    got = read_class_batch(scheme, target_matrix(scheme))
    assert got.tolist() == list(range(scheme.num_classes))


def test_single_neuron_picks_nearest_checkpoint():
    # 17.5 is the midpoint between the first two checkpoints
    got = read_class_batch(SINGLE3, np.array([[17.2], [18.0], [40.0], [0.0]]))
    assert got.tolist() == [0, 1, 2, 0]


def test_single_neuron_midpoint_tie_breaks_low():
    assert read_class_batch(SINGLE3, np.array([[17.5]])).tolist() == [0]


def test_multi_neuron_picks_earliest_spike():
    got = read_class_batch(MULTI3, np.array([[19.0, 16.5, 21.0], [16.0, 16.0, 21.0]]))
    assert got.tolist() == [1, 0]  # the tie goes to the low index


def test_multi_neuron_readout_ignores_common_shift():
    rng = np.random.default_rng(5)
    outs = rng.uniform(16.0, 24.0, size=(20, 3))
    base = read_class_batch(MULTI3, outs)
    assert np.array_equal(base, read_class_batch(MULTI3, outs + 7.5))


def test_batch_readout_shape_and_errors():
    got = read_class_batch(MULTI3, np.array([[16.0, 20.0, 20.0], [20.0, 20.0, 16.0]]))
    assert got.tolist() == [0, 2]
    with pytest.raises(EvaluationError):
        read_class_batch(MULTI3, np.zeros((2, 2)))
    with pytest.raises(EvaluationError):
        read_class_batch(SINGLE3, np.zeros(3))
    with pytest.raises(EvaluationError):
        read_class_batch(MULTI3, np.full((1, 3), np.nan))


def test_scheme_validation():
    with pytest.raises(ConfigError):
        TargetScheme(mode="argmax", window=16.0, num_classes=3)
    with pytest.raises(ConfigError):
        TargetScheme(mode="single_neuron", window=16.0, num_classes=0)
    with pytest.raises(ConfigError):
        TargetScheme(mode="single_neuron", window=-1.0, num_classes=3,
                     excitatory_offset=3.0)
    with pytest.raises(ConfigError):
        TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                     excitatory_offset=-1.0)
    # several classes on one neuron need distinct checkpoints
    with pytest.raises(ConfigError):
        TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                     excitatory_offset=0.0)
    # excitatory target must come before the inhibitory one
    with pytest.raises(ConfigError):
        TargetScheme(mode="multi_neuron", window=16.0, num_classes=3,
                     excitatory_offset=4.0, inhibitory_offset=4.0)
    # targets must be finite numbers
    for kwargs in (
        {"mode": "multi_neuron", "window": np.nan},
        {"mode": "multi_neuron", "window": np.inf},
        {"mode": "multi_neuron", "window": 16.0, "inhibitory_offset": np.inf},
        {"mode": "single_neuron", "window": 16.0, "excitatory_offset": np.nan},
    ):
        with pytest.raises(ConfigError, match="finite"):
            TargetScheme(num_classes=3, **kwargs)


def test_single_class_single_neuron_allows_zero_offset():
    scheme = TargetScheme(mode="single_neuron", window=16.0, num_classes=1)
    assert scheme.checkpoints.tolist() == [16.0]


@given(
    num_classes=st.integers(min_value=2, max_value=10),
    offset=st.floats(min_value=0.5, max_value=4.0),
    jitter=st.floats(min_value=-0.2, max_value=0.2),
    c=st.data(),
)
@settings(max_examples=60)
def test_nearest_checkpoint_survives_small_jitter(num_classes, offset, jitter, c):
    scheme = TargetScheme(mode="single_neuron", window=16.0,
                          num_classes=num_classes, excitatory_offset=offset)
    cls = c.draw(st.integers(min_value=0, max_value=num_classes - 1))
    actual = scheme.checkpoints[cls] + jitter * offset
    assert read_class_batch(scheme, np.array([[actual]])).tolist() == [cls]


def test_all_targets_sit_at_or_after_the_window():
    for scheme in (SINGLE3, MULTI3):
        assert np.all(target_matrix(scheme) >= scheme.window)
