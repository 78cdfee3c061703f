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
act as one input with their summed weight (zero sums drop out).  With the
merged inputs sorted by delay, a point ``t`` between the k-th and the next
delay sees exactly inputs ``0..k`` (a kernel is zero at its own onset), and
for each time constant ``tau``

    sum_{i<=k} w_i exp(-(t - d_i)/tau) = R_k exp(-(t - d_k)/tau),
    R_k = sum_{i<=k} w_i exp(-(d_k - d_i)/tau),

so the grid splits into spans, one per merged input, on each of which the
potential is ``A e^{-s/tau_decay} - B e^{-s/tau_rise}`` in the time ``s``
since the span's onset: O(F log F + T) work for F inputs and T grid points
instead of O(F T).  ``R`` comes from log-sum-exp prefixes of
``log|w_i| + d_i/tau``, one per weight sign, because ``exp(d_i/tau)``
overflows once ``d/tau`` passes ~700 (``horizon=2000, tau_rise=1`` is
valid); weights are divided by their largest magnitude first, so no
intermediate exceeds the fan-in.  ``horizon / tau_rise`` and
``|d| / tau_rise`` must stay finite.

``_spans`` builds the spans for both entry points, in numpy over
the fan-in, and hands them over as Python floats: drives have few distinct
delays (for the benchmark model's neurons on encoded digits, a median of 10
at fan-in 169 and of 7 at fan-in 500, 98.9% of the latter at t = 16), and
on ten elements a numpy call costs more than the scalar arithmetic.
``voltage_trace`` evaluates each span on a zeroed grid;
``threshold_crossing`` skips spans whose closed-form peak stays below
threshold and scans the rest in bounded numpy chunks, never building the
grid.  Both evaluate a point with the same ``_potential`` arithmetic, so the
crossing is exactly the first qualifying point of the trace.
``psp_kernel`` is the single kernel, kept for the properties checked on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import tee
from math import exp, floor, isfinite, log

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


def _spans(delays: np.ndarray, fired: np.ndarray, weights: np.ndarray, params: SrmParams):
    """Validate a drive and return ``(scale, spans)``: an iterator over its
    grid's spans in time order, each grid index computed when reached.

    Span ``(begin, end, onset, decay, rise)`` covers grid points
    ``begin <= j < end``, where the potential is
    ``_potential(decay, rise, j * dt - onset, params, scale)``.  The first
    span has no input (``decay = rise = 0``): it runs from the first point
    past the earliest fired spike on the grid (``steps * dt`` if none) up to
    the first merged input, and every point before it is an exact 0.  Merged
    input ``k`` is span ``k + 1``, and the last span runs through the grid's
    last point.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(delays),):
        raise ConfigError(f"expected {len(delays)} weights, got shape {weights.shape}")
    if not np.isfinite(weights).all():
        raise ConfigError("SRM weights must be finite")
    delays, w = delays[fired], weights[fired]
    if not np.isfinite(delays).all():
        raise ConfigError("fired input delays must be finite")
    dt = params.dt
    steps = int(round(params.horizon / dt))
    acting = delays < steps * dt
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
    earliest = float(delays[0]) if delays.size else steps * dt
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
    onsets = delays.tolist()
    # grid indices on demand: a crossing scan mostly stops before the last span
    begins, ends = tee(_index_after(x, dt) for x in [earliest, *onsets, steps * dt])
    next(ends)
    return scale, zip(begins, ends, [0.0, *onsets], [0.0, *decay], [0.0, *rise])


def _index_after(x: float, dt: float) -> int:
    """Smallest ``j >= 0`` with ``j * dt > x``, on the same float products as
    the grid: ``0..steps + 1`` for ``x <= steps * dt``.

    While ``x / dt`` is far below ``2**52`` (true of every grid that fits in
    memory) the quotient and the products round by much less than a step,
    so the answer is ``floor(x / dt) + 1`` or one step to either side.
    """
    if x < -dt:
        x = -dt
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

    Each span is evaluated in closed form on its grid points.  The result
    equals the per-input sum up to rounding; the tests hold it to 1e-9 of
    the total absolute weight.
    """
    scale, spans = _spans(inputs.delays, inputs.fired, weights, params)
    steps = int(round(params.horizon / params.dt))
    try:
        times = np.arange(steps + 1, dtype=np.float64) * params.dt
        voltage = np.zeros(steps + 1)
        for begin, end, onset, a, b in spans:
            voltage[begin:end] = _potential(a, b, times[begin:end] - onset, params, scale)
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
    On a span the potential has at most one extremum, at
    ``s* = tau_d tau_r / (tau_d - tau_r) ln(B tau_d / (A tau_r))``, so its
    peak is the largest of the potential at the span's two ends and at
    ``s*`` clipped to the span, found with ``math``.  Spans whose peak
    falls short of threshold by more than a rounding slack (proportional to
    ``scale (|A| + |B|)``, far above any gap between ``math`` and numpy) are
    skipped.  The rest are scanned with numpy from their first grid point in
    chunks of 64 points doubling up to 4,096, so time is linear in the points
    between a reached span's start and its hit (or its end), while memory
    stays bounded by fan-in and chunk size, not by the grid.  On the
    benchmark's digit drives 93% of hits lie within the first chunk of their
    span.
    """
    scale, spans = _spans(inputs.delays, inputs.fired, weights, params)
    dt, threshold = params.dt, params.v_threshold
    tau_decay, tau_rise = params.tau_decay, params.tau_rise
    log_ratio, rate = log(tau_decay / tau_rise), 1.0 / tau_rise - 1.0 / tau_decay
    for begin, end, onset, a, b in spans:
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
