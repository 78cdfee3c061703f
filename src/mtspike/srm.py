"""Reference spike-response-model neuron.

A conventional SRM neuron driven by the same weighted delayed spikes the
delay-response network uses.  Each fired input contributes a difference of
exponentials starting at its delay; the membrane potential is the weighted
sum of those kernels, and the neuron fires when the potential first crosses
threshold.  The delay-response rule is the cheap surrogate for this neuron;
this module exists so that surrogate behaviour (later inputs push the output
spike later) can be checked against the real dynamics.

The potential lives on a fixed grid ``0, dt, ..., horizon`` and a crossing
is the first grid point after the earliest fired input where it reaches
threshold.  It is not summed kernel by kernel: between two consecutive
input delays every kernel decays by the same two exponentials, so the whole
trace follows from one prefix sum per time constant over the inputs sorted
by delay (see ``voltage_trace``), kept in log space so that long horizons
or short time constants cannot overflow while ``horizon / tau_rise`` and
``|d| / tau_rise`` stay finite; larger ratios are rejected.  ``psp_kernel``
is the single kernel, kept for the properties checked on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .coding import DelayVector
from .errors import ConfigError

__all__ = [
    "SrmParams",
    "psp_kernel",
    "voltage_trace",
    "threshold_crossing",
]


@dataclass(frozen=True)
class SrmParams:
    """Kernel time constants and simulation grid for one SRM neuron."""

    tau_decay: float = 4.0
    tau_rise: float = 1.0
    v_threshold: float = 1.0
    dt: float = 0.01
    horizon: float = 64.0

    def __post_init__(self):
        if not all(isfinite(v) for v in (self.tau_decay, self.tau_rise,
                                         self.v_threshold, self.dt, self.horizon)):
            raise ConfigError("SRM parameters must be finite")
        if not self.tau_rise > 0:
            raise ConfigError("tau_rise must be positive")
        if not self.tau_decay > self.tau_rise:
            raise ConfigError("tau_decay must exceed tau_rise")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        if not isfinite(self.horizon / self.tau_rise):
            raise ConfigError("horizon / tau_rise must be finite")
        if not self.horizon / self.dt <= np.iinfo(np.intp).max // 8:
            raise ConfigError("horizon / dt is more grid steps than numpy can address")


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
    """Membrane potential on the simulation grid.

    Returns ``(times, voltage)`` with ``times = 0, dt, ..., horizon``.  Only
    fired inputs contribute; an input that never spiked adds nothing
    regardless of its delay slot.  Fired delays, their ratio to ``tau_rise``
    and all weights must be finite and the grid must fit in memory
    (``ConfigError`` otherwise).

    The potential is evaluated in closed form, not one kernel per input.
    With the acting inputs sorted by delay, a grid point ``t`` between the
    k-th and the next delay sees exactly inputs ``0..k`` (a kernel is zero at
    its own onset, so an input acts only where ``t > d``), and for each time
    constant ``tau``

        sum_{i<=k} w_i exp(-(t - d_i)/tau) = R_k exp(-(t - d_k)/tau),
        R_k = sum_{i<=k} w_i exp(-(d_k - d_i)/tau),

    so the trace is one prefix sum ``R`` per time constant, looked up per
    grid point with ``searchsorted``: O(F log F + T) work for F inputs and T
    grid points instead of O(F T).  ``R`` comes from log-sum-exp prefixes of
    ``log|w_i| + d_i/tau``, one for positive and one for negative weights,
    because ``exp(d_i/tau)`` itself overflows once ``d/tau`` passes ~700
    (``horizon=2000, tau_rise=1`` is valid); weights are scaled by their
    largest magnitude first, so no intermediate exceeds the fan-in.  Inputs
    whose delay is at or past the grid's end never act on it and are
    dropped.  The result equals the per-input sum up to rounding; the
    tests hold it to 1e-9 of the total absolute weight.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(inputs),):
        raise ConfigError(
            f"expected {len(inputs)} weights, got shape {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise ConfigError("SRM weights must be finite")
    delays, w = inputs.delays[inputs.fired], weights[inputs.fired]
    if not np.all(np.isfinite(delays)):
        raise ConfigError("fired input delays must be finite")
    steps = int(round(params.horizon / params.dt))
    try:
        times = np.arange(steps + 1, dtype=np.float64) * params.dt
        voltage = np.zeros_like(times)
        # a zero weight adds nothing and has no logarithm
        acting = (delays < times[-1]) & (w != 0.0)
        if not np.any(acting):
            return times, voltage
        order = np.argsort(delays[acting])
        delays, w = delays[acting][order], w[acting][order]
        if not isfinite(float(max(-delays[0], delays[-1])) / params.tau_rise):
            raise ConfigError("fired delay / tau_rise must be finite")
        # inputs acting at each grid point, and the time since the latest of them
        began = np.searchsorted(delays, times, side="left")
        since = times - np.concatenate([[0.0], delays])[began]
        scale = np.max(np.abs(w))
        log_w = np.log(np.abs(w)) - np.log(scale)
        signs = np.stack([w > 0, w < 0])
        for tau, kernel_sign in ((params.tau_decay, 1.0), (params.tau_rise, -1.0)):
            at_input = delays / tau
            prefix = np.logaddexp.accumulate(np.where(signs, log_w + at_input, -np.inf), axis=1)
            rebased = np.exp(prefix[0] - at_input) - np.exp(prefix[1] - at_input)
            rebased = np.concatenate([[0.0], rebased])
            voltage += kernel_sign * rebased[began] * np.exp(-since / tau)
        return times, scale * voltage
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate the {steps + 1}-point SRM grid") from exc


def threshold_crossing(
    inputs: DelayVector, weights: np.ndarray, params: SrmParams
) -> float | None:
    """First time the potential reaches threshold, or None if it never does.

    Candidate times start strictly after the earliest fired input spike:
    every kernel is zero at its own onset, so the potential cannot
    meaningfully cross before any input has begun to act.  This also keeps a
    zero threshold from reporting a phantom crossing at t = 0.
    """
    return _first_crossing(inputs, *voltage_trace(inputs, weights, params), params)


def _first_crossing(inputs, times, voltage, params) -> float | None:
    """:func:`threshold_crossing` on the trace :func:`voltage_trace` returned for ``inputs``."""
    if not np.any(inputs.fired):
        return None
    earliest = float(np.min(inputs.delays[inputs.fired]))
    candidates = (times > earliest) & (voltage >= params.v_threshold)
    hits = np.nonzero(candidates)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0]])
