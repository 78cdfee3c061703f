"""Sliced float64 prediction: ``metrics.predict`` must classify exactly like it.

A set of ``n`` rows is cut into ``ceil(n / _SLICE)`` near-equal slices, the
partition of ``predict``'s float32 sweep, so a set of up to ``_SLICE`` rows is
one slice.  Every slice goes through one float64 ``forward_batch`` call and
``read_class_batch``.
"""

import numpy as np

from mtspike.errors import ConfigError
from mtspike.metrics import _SLICE
from mtspike.network import forward_batch
from mtspike.readout import read_class_batch


def predict(net, data, scheme) -> np.ndarray:
    if len(data) == 0:
        raise ConfigError("evaluation dataset is empty")
    x = data.delays
    return np.concatenate([
        read_class_batch(scheme, forward_batch(net, block).outputs)
        for block in np.array_split(x, -(-len(x) // _SLICE))
    ])
