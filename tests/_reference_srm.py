"""Per-input reference SRM potential: the closed-form trace must match it.

This is the original loop that summed one difference-of-exponentials
kernel per fired input over the whole grid, kept unchanged except for
imports, with the single kernel it sums, ``psp_kernel``, on which the
tests check the kernel's shape.  It costs O(inputs x grid points) and
exists only so that tests can compare ``mtspike.srm.voltage_trace``
against it, and the continuous crossing against its grid points.
"""

import numpy as np

from mtspike.coding import DelayVector
from mtspike.errors import ConfigError
from mtspike.srm import SrmParams


def psp_kernel(t: np.ndarray, delay: float, params: SrmParams) -> np.ndarray:
    """Postsynaptic potential of one spike arriving at ``delay``.

    ``exp(-(t - d)/tau_decay) - exp(-(t - d)/tau_rise)`` for ``t >= d``,
    zero before.  The kernel is exactly zero at ``t == d``, rises to a
    single peak, then decays back toward zero.
    """
    t = np.asarray(t, dtype=np.float64)
    s = t - delay
    active = s >= 0
    s = np.where(active, s, 0.0)
    value = np.exp(-s / params.tau_decay) - np.exp(-s / params.tau_rise)
    return np.where(active, value, 0.0)


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

