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
threshold.  It is not summed kernel by kernel.  Inputs that share a delay
act as one input with their summed weight, and between two consecutive
distinct delays every kernel decays by the same two exponentials, so on
each such segment the potential is ``A e^{-s/tau_decay} - B e^{-s/tau_rise}``
in the time ``s`` since the segment's onset.  ``A`` and ``B`` come from one
prefix sum per time constant over the merged inputs sorted by delay (see
``voltage_trace``), kept in log space so that long horizons or short time
constants cannot overflow while ``horizon / tau_rise`` and
``|d| / tau_rise`` stay finite; larger ratios are rejected.

Both entry points run in two stages.  The first is numpy work over the
fan-in: validation, the fired and acting inputs, the stable sort and merge
of equal delays, and the log-space prefix sums that give every segment's
``A`` and ``B``.  The merge pays because real drives have few distinct
delays: for the benchmark model's neurons on encoded digits, fan-in 169
inputs arrive at a median of 10 distinct delays (at most 13) and fan-in 500
inputs at a median of 7 (at most 9, 98.9% of them at the window edge
t = 16).  The second stage walks those few segments in Python floats: on
ten elements a numpy call costs more overhead than the scalar arithmetic.
``voltage_trace`` spreads the coefficients over every grid point.
``threshold_crossing`` never builds the grid: a segment's potential has at
most one extremum, so its peak is known in closed form and most segments
are skipped outright; each of the rest is scanned from its first grid
point in bounded numpy chunks until the potential reaches threshold.  Both
evaluate a grid point with the same numpy arithmetic, so the crossing is
exactly the first qualifying point of the trace.
``psp_kernel`` is the single kernel, kept for the properties checked on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, floor, isfinite, log
from typing import NamedTuple

import numpy as np

from .coding import DelayVector
from .errors import ConfigError

__all__ = [
    "SrmParams",
    "psp_kernel",
    "voltage_trace",
    "threshold_crossing",
]

# most grid points one step of the crossing scan evaluates at once
_SCAN_CHUNK = 4096
# bound on how far a computed potential may sit from the exact one, per unit
# of scale * (|A| + |B|); a few ulps would do, this leaves a wide margin
_SLACK = 2.0 ** -32


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
        if not self.tau_decay > self.tau_rise or not 1.0 / self.tau_decay < 1.0 / self.tau_rise:
            raise ConfigError("tau_decay must exceed tau_rise, also after taking reciprocals")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        if not isfinite(self.horizon / self.tau_rise):
            raise ConfigError("horizon / tau_rise must be finite")
        if not self.horizon / self.dt <= np.iinfo(np.intp).max // 8:
            raise ConfigError("horizon / dt is more grid steps than numpy can address")
        if not isfinite(round(self.horizon / self.dt) * self.dt):
            raise ConfigError("the last grid time round(horizon / dt) * dt must be finite")


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


class _Segments(NamedTuple):
    """The merged inputs in delay order, as Python floats.

    Input ``i`` acts from the first grid point past ``onsets[i]`` up to, not
    including, the first grid point past ``onsets[i + 1]`` (or through the
    grid's last point ``steps``); there the potential is
    ``_potential(decay[i], rise[i], t_j - onsets[i])`` with ``t_j = j * dt``.
    Before the first input acts the potential is exactly 0.
    """

    onsets: list[float]
    decay: list[float]
    rise: list[float]
    scale: float
    steps: int


def _segments(inputs: DelayVector, weights: np.ndarray, params: SrmParams) -> _Segments:
    """Validate the drive and reduce it to one closed form per merged input."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(inputs),):
        raise ConfigError(f"expected {len(inputs)} weights, got shape {weights.shape}")
    if not np.isfinite(weights).all():
        raise ConfigError("SRM weights must be finite")
    delays, w = inputs.delays[inputs.fired], weights[inputs.fired]
    if not np.isfinite(delays).all():
        raise ConfigError("fired input delays must be finite")
    steps = int(round(params.horizon / params.dt))
    acting = delays < steps * params.dt
    delays, w = delays[acting], w[acting]
    order = delays.argsort(kind="stable")
    delays, w = delays[order], w[order]
    if delays.size:
        # inputs that share a delay act as one input with their summed weight
        new = np.empty(delays.size, dtype=bool)
        new[0] = True
        np.not_equal(delays[1:], delays[:-1], out=new[1:])
        if not new.all():
            first = new.nonzero()[0]
            delays, w = delays[first], np.add.reduceat(w, first)
    # a zero weight adds nothing and has no logarithm
    acting = w != 0.0
    if not acting.all():
        delays, w = delays[acting], w[acting]
    if delays.size and not isfinite(float(max(-delays[0], delays[-1])) / params.tau_rise):
        raise ConfigError("fired delay / tau_rise must be finite")
    scale = float(np.abs(w).max()) if w.size else 1.0
    log_w = np.log(np.abs(w)) - np.log(scale)
    # one row per time constant: log|w_i| + d_i/tau, split by the sign of w_i
    at_input = delays / np.array([[params.tau_decay], [params.tau_rise]])
    positive = w > 0
    signed = np.where(np.array((positive, ~positive)), (log_w + at_input)[:, np.newaxis], -np.inf)
    prefix = np.logaddexp.accumulate(signed, axis=2)
    decay, rise = (np.exp(prefix[:, 0] - at_input) - np.exp(prefix[:, 1] - at_input)).tolist()
    return _Segments(delays.tolist(), decay, rise, scale, steps)


def _index_after(x: float, dt: float) -> int:
    """Smallest ``j >= 0`` with ``j * dt > x``, on the same float products as
    the grid: ``0..steps + 1`` for ``x <= steps * dt``.

    While ``x / dt`` is far below ``2**52`` (true of every grid that fits in
    memory) the quotient and the products round by much less than a step,
    so the answer is ``floor(x / dt) + 1`` or one step to either side.
    """
    x = max(x, -dt)
    j = floor(x / dt) + 1
    if (j - 1) * dt > x:
        return j - 1
    return j + 1 if j * dt <= x else j


def _potential(decay, rise, since, params: SrmParams, scale: float):
    """``scale * (decay e^{-since/tau_decay} - rise e^{-since/tau_rise})``."""
    # 0.0 + turns a -0.0 decay term into +0.0, so a zero potential prints as 0
    return scale * ((0.0 + decay * np.exp(-since / params.tau_decay))
                    - rise * np.exp(-since / params.tau_rise))


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
    Inputs that share a delay are merged into one with their summed weight
    (inputs whose summed weight is zero drop out).  With the merged inputs
    sorted by delay, a grid point ``t`` between the k-th and the next delay
    sees exactly inputs ``0..k`` (a kernel is zero at its own onset, so an
    input acts only where ``t > d``), and for each time constant ``tau``

        sum_{i<=k} w_i exp(-(t - d_i)/tau) = R_k exp(-(t - d_k)/tau),
        R_k = sum_{i<=k} w_i exp(-(d_k - d_i)/tau),

    so the trace is one prefix sum ``R`` per time constant, spread over each
    segment's grid points: O(F log F + T) work for F inputs and T grid
    points instead of O(F T).  ``R`` comes from log-sum-exp prefixes of
    ``log|w_i| + d_i/tau``, one for positive and one for negative weights,
    because ``exp(d_i/tau)`` itself overflows once ``d/tau`` passes ~700
    (``horizon=2000, tau_rise=1`` is valid); weights are scaled by their
    largest magnitude first, so no intermediate exceeds the fan-in.  Inputs
    whose delay is at or past the grid's end never act on it and are
    dropped.  The result equals the per-input sum up to rounding; the
    tests hold it to 1e-9 of the total absolute weight.
    """
    seg = _segments(inputs, weights, params)
    steps, dt = seg.steps, params.dt
    try:
        times = np.arange(steps + 1, dtype=np.float64) * dt
        counts = np.diff([0] + [_index_after(d, dt) for d in seg.onsets] + [steps + 1])
        since = times - np.repeat([0.0] + seg.onsets, counts)
        voltage = _potential(np.repeat([0.0] + seg.decay, counts),
                             np.repeat([0.0] + seg.rise, counts), since, params, seg.scale)
        return times, voltage
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate the {steps + 1}-point SRM grid") from exc


def threshold_crossing(
    inputs: DelayVector, weights: np.ndarray, params: SrmParams
) -> float | None:
    """First time the potential reaches threshold, or None if it never does.

    Candidate times start strictly after the earliest fired input spike:
    every kernel is zero at its own onset, so the potential cannot
    meaningfully cross before any input has begun to act.  This also keeps a
    zero threshold from reporting a phantom crossing at t = 0.  Inputs are
    checked as in :func:`voltage_trace`.

    The result is exactly the first grid point of ``voltage_trace``'s trace
    past that spike with ``v >= v_threshold``, but the grid is never built.
    After the numpy stage shared with :func:`voltage_trace`, the merged
    segments are walked in time order as Python floats.  On a segment the
    potential has at most one extremum, at
    ``s* = tau_d tau_r / (tau_d - tau_r) ln(B tau_d / (A tau_r))``, so its
    peak is the largest of the potential at the span's two ends and at
    ``s*`` clipped to the span, found with ``math``.  Segments whose peak
    falls short of threshold by more than a rounding slack (proportional to
    ``scale (|A| + |B|)``, far above any gap between ``math`` and numpy) are
    skipped.  The rest are scanned with numpy from their first grid point in
    chunks of 64 points doubling up to 4,096, so time is linear in the points
    between a reached segment's start and its hit (or its end), while memory
    stays bounded by fan-in and chunk size, not by the grid.  On the
    benchmark's digit drives 93% of hits lie within the first chunk of their
    segment.
    """
    seg = _segments(inputs, weights, params)
    onsets, steps, scale = seg.onsets, seg.steps, seg.scale
    dt, threshold = params.dt, params.v_threshold
    end = _index_after(onsets[0], dt) if onsets else steps + 1
    if threshold <= 0.0 and inputs.fired.any():
        # before any input acts the potential is an exact 0: the first point past the
        # earliest spike crosses; clamped, a spike at or past the grid's end finds none
        hit = _index_after(min(float(inputs.delays[inputs.fired].min()), steps * dt), dt)
        if hit < end:
            return hit * dt
    tau_decay, tau_rise = params.tau_decay, params.tau_rise
    log_ratio, rate = log(tau_decay / tau_rise), 1.0 / tau_rise - 1.0 / tau_decay
    # every input's span starts after the earliest fired spike
    for onset, after, a, b in zip(onsets, onsets[1:] + [steps * dt], seg.decay, seg.rise):
        begin, end = end, _index_after(after, dt)
        if begin == end:
            continue
        first, last = begin * dt - onset, (end - 1) * dt - onset
        # the derivative vanishes at most once, at s*, when A and B share a sign;
        # otherwise s* is some point of the span, which leaves the bound valid
        stationary = (log(abs(b)) - log(abs(a)) + log_ratio) / rate if a and b else last
        bound = max(scale * (a * exp(-s / tau_decay) - b * exp(-s / tau_rise))
                    for s in (first, last, min(last, max(first, stationary))))
        if bound < threshold - 2.0 * _SLACK * scale * (abs(a) + abs(b)):
            continue
        # a hit is usually near the span's start: begin with a small chunk
        size = 64
        while begin < end:
            since = np.arange(begin, min(begin + size, end), dtype=np.float64) * dt - onset
            hits = (_potential(a, b, since, params, scale) >= threshold).nonzero()[0]
            if hits.size:
                return (begin + int(hits[0])) * dt
            begin, size = begin + size, min(2 * size, _SCAN_CHUNK)
    return None
