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
threshold.  Inputs that share a delay act as one input with their summed
weight (zero sums drop out).  With the merged inputs sorted by delay, a
point ``t`` between the k-th and the next delay sees exactly inputs
``0..k`` (a kernel is zero at its own onset), and for each time constant
``tau``

    sum_{i<=k} w_i exp(-(t - d_i)/tau) = R_k exp(-(t - d_k)/tau),
    R_k = R_{k-1} exp(-(d_k - d_{k-1})/tau) + w_k,

so the grid splits into spans, one per merged input, on each of which the
potential is ``A e^{-s/tau_decay} - B e^{-s/tau_rise}`` in the time ``s``
since the span's onset: O(F log F + T) work for F inputs and T grid points
instead of O(F T).  The recurrence never exponentiates a positive number,
so any finite ``d/tau`` is safe (``horizon=2000, tau_rise=1`` is valid).
The weights are first divided by ``scale``, the power of two that leaves
the largest below 2 in magnitude; the division is exact, a merged sum stays
below twice the fan-in, and scaling all weights by a power of two scales
the potential by it exactly while values stay in the normal float range.

``_spans`` builds the spans for both entry points.  Drives have few
distinct delays (for the benchmark model's neurons on encoded digits, a
median of 10 at fan-in 169 and of 7 at fan-in 500, 98.9% of the latter at
t = 16), so only the sort, the merge and the weight sums run in numpy; the
recurrence walks the merged inputs in Python floats, cheaper than a numpy
call on ten elements.  ``_drive`` needs only the drive and the grid: it
checks the fired delays, orders the fired inputs that act on the grid by
delay (stable), groups equal delays and places each merged onset on the
grid.  The weight stage checks the weights (before the drive's check, so a
bad weight is reported first), sums them per group and walks the sums,
skipping a zero sum before its delay is divided by a time constant, so a
dropped input's delay never overflows.  A layer's neurons share one input
vector, so ``_drive`` keeps its last result under the key ``(delays bytes,
fired bytes, dt, horizon)``, everything it reads, and a sweep over weight
columns builds the drive stage once.  The key is content, not identity
(arrays are mutable and ids are reused): an edit in place, a recycled
address or another grid recomputes the stage; a rejected drive is never kept.
``voltage_trace`` evaluates each span on a zeroed grid;
``threshold_crossing`` skips spans whose closed-form peak stays below
threshold and scans the rest in bounded numpy chunks, never building the
grid.  Both take ``scale`` times the same ``_potential`` arithmetic at a
point, so the crossing is exactly the first qualifying point of the trace.
``horizon / tau_rise``, ``|d| / tau_rise`` and the potential must be finite.
``psp_kernel`` is the single kernel, kept for the properties checked on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, floor, frexp, isfinite, ldexp, log

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
# ``_drive``'s last result: ((delays bytes, fired bytes, dt, horizon), stage),
# one tuple so that a thread never reads one call's key with another's stage
_last_drive: tuple = (None, None)


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


def _drive(delays: np.ndarray, fired: np.ndarray, params: SrmParams):
    """The part of ``_spans`` that depends on the drive and the grid, not on
    the weights: ``(chosen, starts, onsets, inner, first, last)``.

    ``chosen`` indexes the fired inputs that act on the grid in stable delay
    order; ``starts`` are the positions in ``chosen`` where a new delay
    begins (None when all delays differ); ``onsets`` are the merged delays
    and ``inner`` their grid indices, both lists, ``first`` the grid index
    past the earliest fired spike and ``last`` the one past the grid's end.
    """
    global _last_drive
    key = (delays.tobytes(), fired.tobytes(), params.dt, params.horizon)
    last_key, stage = _last_drive
    if last_key == key:
        return stage
    chosen = fired.nonzero()[0]
    delays = delays[chosen]
    if not np.isfinite(delays).all():
        raise ConfigError("fired input delays must be finite")
    dt = params.dt
    steps = int(round(params.horizon / dt))
    acting = delays < steps * dt
    chosen, delays = chosen[acting], delays[acting]
    order = delays.argsort(kind="stable")
    chosen, delays = chosen[order], delays[order]
    starts = None
    if delays.size:
        # inputs that share a delay act as one input with their summed weight
        new = np.empty(delays.size, dtype=bool)
        new[0] = True
        np.not_equal(delays[1:], delays[:-1], out=new[1:])
        if not new.all():
            starts = new.nonzero()[0]
            delays = delays[starts]
    inner = [_index_after(x, dt) for x in delays.tolist()]
    last = _index_after(steps * dt, dt)
    stage = chosen, starts, delays.tolist(), inner, inner[0] if inner else last, last
    _last_drive = key, stage
    return stage


def _spans(delays: np.ndarray, fired: np.ndarray, weights: np.ndarray, params: SrmParams):
    """Validate a drive and return ``(scale, spans)``, its grid's spans in time order.

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
    chosen, starts, onsets, inner, first, last = _drive(delays, fired, params)
    w = weights[chosen]
    # exact: every |w| / scale is below 2, so a merged sum stays below 2 * fan-in
    scale = ldexp(1.0, frexp(float(np.abs(w).max(initial=0.0)))[1] - 1)
    w = w / scale if starts is None else np.add.reduceat(w / scale, starts)
    spans, begin, onset, decay, rise = [], first, 0.0, 0.0, 0.0
    for at, end, x in zip(onsets, inner, w.tolist()):
        if not x:
            continue  # a zero sum adds nothing, and its delay is never divided
        if not isfinite(at / params.tau_rise):
            raise ConfigError("fired delay / tau_rise must be finite")
        spans.append((begin, end, onset, decay, rise))
        if len(spans) > 1:  # after an earlier input: decay its sums to this onset
            decay *= exp((onset - at) / params.tau_decay)
            rise *= exp((onset - at) / params.tau_rise)
        begin, onset, decay, rise = end, at, decay + x, rise + x
    return scale, [*spans, (begin, last, onset, decay, rise)]


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
    regardless of its delay slot.  Fired delays, their ratio to ``tau_rise``,
    all weights and the potential must be finite and the grid must fit in
    memory (``ConfigError`` otherwise).

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
            voltage[begin:end] = _potential(a, b, times[begin:end] - onset, params, 1.0)
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate the {steps + 1}-point SRM grid") from exc
    # scale is a power of two: scaling afterwards keeps _potential's bits
    if not isfinite(scale * float(max(voltage.max(), -voltage.min()))):
        raise ConfigError("the SRM potential exceeds the float range")
    voltage *= scale
    return times, voltage


def threshold_crossing(
    inputs: DelayVector, weights: np.ndarray, params: SrmParams
) -> float | None:
    """First time the potential reaches threshold, or None if it never does.

    Candidate times start strictly after the earliest fired input spike:
    every kernel is zero at its own onset, so the potential cannot
    meaningfully cross before any input has begun to act.  This also keeps a
    zero threshold from reporting a phantom crossing at t = 0.  Inputs are
    checked as in :func:`voltage_trace`, but not the potential's range: a
    span whose ``scale (|A| + |B|)`` is not finite is scanned with numpy's
    overflow warning off, and a potential past the float range compares
    as +-inf, so +inf reaches threshold.  Four inputs at delay 2 with
    weight 1.7e308, which ``voltage_trace`` refuses, cross at 2.01 (the
    potential there is still ~5e306; it overflows a few points later).

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
        inside = min(last, max(first, stationary))
        bound = scale * max(a * exp(-first / tau_decay) - b * exp(-first / tau_rise),
                            a * exp(-last / tau_decay) - b * exp(-last / tau_rise),
                            a * exp(-inside / tau_decay) - b * exp(-inside / tau_rise))
        reach = scale * (abs(a) + abs(b))
        if bound < threshold - 2.0 * _SLACK * reach:
            continue
        if isfinite(reach):
            hit = _scan(begin, end, onset, a, b, params, scale)
        else:  # the potential may pass the float range: +-inf compares fine
            with np.errstate(over="ignore"):
                hit = _scan(begin, end, onset, a, b, params, scale)
        if hit is not None:
            return hit
    return None


def _scan(begin, end, onset, a, b, params: SrmParams, scale: float) -> float | None:
    """First grid point ``begin <= j < end`` of a span with potential >= threshold."""
    dt = params.dt
    # a hit is usually near the span's start: begin with a small chunk
    size = 64
    while begin < end:
        since = np.arange(begin, min(begin + size, end), dtype=np.float64) * dt - onset
        hits = (_potential(a, b, since, params, scale) >= params.v_threshold).nonzero()[0]
        if hits.size:
            return (begin + int(hits[0])) * dt
        begin, size = begin + size, min(2 * size, _SCAN_CHUNK)
    return None
