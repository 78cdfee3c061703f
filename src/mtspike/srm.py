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

``voltage_trace`` evaluates every grid point from those coefficients.
``threshold_crossing`` never builds the grid: a segment's potential has at
most one extremum, so its peak over the segment is known in closed form and
most segments are skipped outright; the rest are searched piece by
monotone piece, scanning in bounded chunks only where the potential can be
within rounding of threshold.  Both evaluate a grid point with the same
arithmetic, so the crossing is exactly the first qualifying point of the
trace.  The merge pays because real drives have few distinct delays: for
the benchmark model's neurons on encoded digits, fan-in 169 inputs arrive at
a median of 10 distinct delays (at most 13) and fan-in 500 inputs at a
median of 7 (at most 9, with 98.9% of them at the window edge t = 16).
``psp_kernel`` is the single kernel, kept for the properties checked on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log
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
    """The potential between consecutive distinct input delays.

    Segment ``k`` holds the grid indices ``starts[k] <= j < ends[k]``; there
    the potential is ``_potential(decay[k], rise[k], t_j - onsets[k])`` with
    ``t_j = j * dt``.  Segment 0 lies before the first acting input and has
    zero coefficients, so its potential is exactly 0.
    """

    onsets: np.ndarray
    decay: np.ndarray
    rise: np.ndarray
    scale: float
    starts: np.ndarray
    ends: np.ndarray


def _segments(inputs: DelayVector, weights: np.ndarray, params: SrmParams) -> _Segments:
    """Validate the drive and reduce it to one closed form per segment."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(inputs),):
        raise ConfigError(
            f"expected {len(inputs)} weights, got shape {weights.shape}"
        )
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
    coefficients = np.zeros((2, delays.size + 1))
    coefficients[:, 1:] = np.exp(prefix[:, 0] - at_input) - np.exp(prefix[:, 1] - at_input)
    bounds = _index_after(delays, params.dt, steps)
    return _Segments(np.concatenate(([0.0], delays)), *coefficients, scale,
                     np.concatenate(([0], bounds)), np.concatenate((bounds, [steps + 1])))


def _index_after(x: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Smallest ``j`` in ``0..steps + 1`` with ``j * dt > x``, elementwise,
    on the same float products as the grid, for ``x < steps * dt``.

    While ``x / dt`` is far below ``2**52`` (true of every grid that fits in
    memory) the quotient and the products round by much less than a step,
    so the answer is ``floor(x / dt) + 1`` or one step to either side.
    """
    x = np.maximum(x, -dt)
    j = np.floor(x / dt) + 1.0
    j -= (j - 1.0) * dt > x
    j += j * dt <= x
    return j.astype(np.int64)


def _bisect(below: int, above: int, reached) -> int:
    """First ``j`` in ``below + 1 .. above`` with ``reached(j)``, for a
    ``reached`` that stays true once true; ``above`` counts as reached."""
    while above - below > 1:
        mid = (below + above) // 2
        if reached(mid):
            above = mid
        else:
            below = mid
    return above


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
    steps = int(seg.ends[-1]) - 1
    try:
        times = np.arange(steps + 1, dtype=np.float64) * params.dt
        counts = seg.ends - seg.starts
        since = times - np.repeat(seg.onsets, counts)
        voltage = _potential(np.repeat(seg.decay, counts), np.repeat(seg.rise, counts),
                             since, params, seg.scale)
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
    On a segment the potential has at most one extremum, at
    ``s* = tau_d tau_r / (tau_d - tau_r) ln(B tau_d / (A tau_r))``, so the
    segment's peak is the largest of the potential at the span's two ends
    and at ``s*`` clipped to the span.  Segments whose peak falls short of
    threshold by more than a rounding slack (proportional to
    ``scale (|A| + |B|)``) are skipped.  The rest are taken in time order
    and split at ``s*`` into two monotone pieces, the earlier one first; in
    each, bisection on the grid index finds the points where the potential
    may be within the slack of threshold, and only those are evaluated, in
    chunks of at most 4,096 points.  Memory is bounded by fan-in and chunk
    size, not by the grid.
    """
    seg = _segments(inputs, weights, params)
    dt, threshold = params.dt, params.v_threshold
    if threshold <= 0.0 and inputs.fired.any():
        # segment 0 holds an exact 0: its first point past the earliest spike crosses
        earliest = float(inputs.delays[inputs.fired].min())
        hit = _bisect(-1, int(seg.ends[0]), lambda j: j * dt > earliest)
        if hit < seg.ends[0]:
            return float(hit * dt)
    # every later segment starts after the earliest fired spike
    onsets, decay, rise = seg.onsets[1:], seg.decay[1:], seg.rise[1:]
    lo, hi = seg.starts[1:], seg.ends[1:] - 1
    first = lo * dt - onsets
    # an empty span's last point precedes its onset; 0 keeps exp finite there
    last = np.maximum(hi * dt - onsets, 0.0)
    # the derivative vanishes once, at s*, when A and B share a sign; elsewhere
    # the potential is monotone and the span's end stands in for s*
    extremum = (np.sign(decay) == np.sign(rise)) & (decay != 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        stationary = ((np.log(rise / decay) + log(params.tau_decay / params.tau_rise))
                      / np.float64(1.0 / params.tau_rise - 1.0 / params.tau_decay))
    peak = np.where(extremum, np.fmin(np.fmax(stationary, first), last), last)
    bound = _potential(decay, rise, np.array((first, last, peak)), params, seg.scale).max(axis=0)
    slack = _SLACK * seg.scale * (np.abs(decay) + np.abs(rise))
    reach = ((lo <= hi) & (bound >= threshold - 2.0 * slack)).nonzero()[0]
    for k in reach.tolist():
        hit = _first_hit(int(lo[k]), int(hi[k]), float(onsets[k]), float(decay[k]),
                         float(rise[k]), float(peak[k]), seg.scale, params)
        if hit is not None:
            return float(hit * dt)
    return None


def _first_hit(lo, hi, onset, decay, rise, peak, scale, params) -> int | None:
    """First grid index in ``lo..hi`` of one segment where the potential
    reaches threshold, given the time ``peak`` of its extremum since onset."""
    dt, target = params.dt, params.v_threshold - 2.0 * _SLACK * scale * (abs(decay) + abs(rise))

    def near(j):
        """Whether the potential at grid index ``j`` may be within the slack of threshold."""
        s = j * dt - onset
        return scale * (decay * exp(-s / params.tau_decay)
                        - rise * exp(-s / params.tau_rise)) >= target

    # monotone pieces: up to s*, the potential moves the way the tau_rise
    # term pulls it; past s*, the other way
    split = _bisect(lo - 1, hi + 1, lambda j: j * dt - onset > peak)
    rising = rise > 0.0 if rise != 0.0 else decay < 0.0
    for a, b in ((lo, split - 1), (split, hi)):
        # no point before the first near one (rising) or after the last
        # near one (falling) can reach threshold
        if a <= b and near(b if rising else a):
            if rising:
                a = _bisect(a - 1, b, near)
            else:
                b = _bisect(a, b + 1, lambda j: not near(j)) - 1
            # a hit is usually near a: start with a small chunk
            size = 64
            while a <= b:
                end = min(a + size, b + 1)
                since = np.arange(a, end, dtype=np.float64) * dt - onset
                hits = (_potential(decay, rise, since, params, scale)
                        >= params.v_threshold).nonzero()[0]
                if hits.size:
                    return a + int(hits[0])
                a, size = end, min(2 * size, _SCAN_CHUNK)
        rising = not rising
    return None
