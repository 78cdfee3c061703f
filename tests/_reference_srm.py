"""Per-input reference SRM potential: the closed-form trace must match it.

This is the original loop that summed one difference-of-exponentials
kernel per fired input over the whole grid, kept unchanged except for
imports.  It costs O(inputs x grid points) and exists only so that tests
can compare ``mtspike.srm.voltage_trace`` against it, and the continuous
crossing against its grid points.
"""

import numpy as np

from mtspike.coding import DelayVector
from mtspike.errors import ConfigError
from mtspike.srm import SrmParams, psp_kernel


def voltage_trace(
    inputs: DelayVector, weights: np.ndarray, params: SrmParams
) -> tuple[np.ndarray, np.ndarray]:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(inputs),):
        raise ConfigError(
            f"expected {len(inputs)} weights, got shape {weights.shape}"
        )
    steps = int(round(params.horizon / params.dt))
    times = np.arange(steps + 1, dtype=np.float64) * params.dt
    voltage = np.zeros_like(times)
    for delay, fired, w in zip(inputs.delays, inputs.fired, weights):
        if fired:
            voltage += w * psp_kernel(times, float(delay), params)
    return times, voltage

