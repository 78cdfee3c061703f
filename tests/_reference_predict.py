"""Blocked float64 prediction: ``metrics.predict`` must classify exactly like it.

This is ``predict`` as it was before its float32 pass, kept unchanged except
for imports: every block of a set of at least two blocks goes through one
float64 ``forward_batch`` call and ``read_class_batch``.
"""

import numpy as np

from mtspike.errors import ConfigError
from mtspike.metrics import PREDICT_BLOCK
from mtspike.network import forward_batch
from mtspike.readout import read_class_batch


def predict(net, data, scheme) -> np.ndarray:
    if len(data) == 0:
        raise ConfigError("evaluation dataset is empty")
    x = data.delays
    blocks = len(x) // PREDICT_BLOCK
    if blocks < 2:
        return read_class_batch(scheme, forward_batch(net, x).outputs)
    return np.concatenate([
        read_class_batch(scheme, forward_batch(net, block).outputs)
        for block in np.array_split(x, blocks)
    ])
