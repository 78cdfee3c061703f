"""Reference spike-response-model neuron.

A conventional SRM neuron driven by the same weighted delayed spikes the
delay-response network uses.  Each fired input contributes a difference of
exponentials starting at its delay; the membrane potential is the weighted
sum of those kernels, and the neuron fires when the potential first crosses
threshold.  The delay-response rule is the cheap surrogate for this neuron;
this module exists so that surrogate behaviour (later inputs push the output
spike later) can be checked against the real dynamics.

Only fired inputs before the grid's last time ``end = round(horizon/dt)*dt``
act.  Inputs that share a delay act as one input with their summed weight
(zero sums drop out).  With the merged inputs sorted by delay, a time ``t``
after the k-th delay and up to the next one sees exactly inputs ``0..k`` (a
kernel is zero at its own onset), and for each time constant ``tau``

    sum_{i<=k} w_i exp(-(t - d_i)/tau) = R_k exp(-(t - d_k)/tau),
    R_k = R_{k-1} exp(-(d_k - d_{k-1})/tau) + w_k,

so time splits into spans, one per merged input, on each of which the
potential is ``A e^{-s/tau_decay} - B e^{-s/tau_rise}`` in the time ``s``
since the span's onset.  The recurrence never exponentiates a positive
number, so any finite ``d/tau`` is safe (``horizon=2000, tau_rise=1`` is
valid).  The acting weights are first divided by ``scale``, the power of
two that leaves the largest below 2 in magnitude; the division is exact, a
merged sum stays below twice the fan-in, and scaling all weights by a power
of two scales the potential by it exactly while values stay in the normal
float range.

``_spans`` builds the spans for both entry points.  Drives have few
distinct delays (for the benchmark model's neurons on encoded digits, a
median of 10 at fan-in 169 and of 7 at fan-in 500, 98.9% of the latter at
t = 16), so only the sort, the merge and the weight sums run in numpy; the
recurrence walks the merged inputs in Python floats, cheaper than a numpy
call on ten elements.  ``_drive`` needs only the drive and the grid's end:
it checks the fired delays, orders the fired inputs that act by delay
(stable) and groups equal delays.  The weight stage's one max of ``|w|``,
which NaN and inf reach, checks the weights before the drive's check (a bad
weight is reported first) and gives the scale when every input acts; else
one more max, over the acting weights, does.  It divides the gathered
weights in place, sums them per group and walks the sums.  ``|d|/tau_rise``
is checked at the two ends of the sorted delays, and at each delay with a
nonzero sum only where an end overflows, so a dropped input's delay never
raises.  A layer's neurons share one input vector, so ``_drive`` keeps its
last result under the key ``(delays bytes, fired bytes, dt, horizon)``,
everything it reads, and a sweep over weight columns builds the drive stage
once.  The key is content, not identity (arrays are mutable and ids are
reused): an edit in place, a recycled address or another grid recomputes the
stage; a rejected drive is never kept.

``_voltage_trace`` evaluates each span on the grid points ``0, dt, ...,
end`` it covers: O(F log F + T) work for F inputs and T grid points instead
of O(F T), in slices of ``_TRACE_SLICE`` points written straight into the
result, so its temporaries stay small beside the grid.
``threshold_crossing`` never builds the grid: it returns the continuous
crossing, the infimum of the times ``t`` in ``[0, end]`` with ``t > d0`` at
which the potential is at or above threshold, where ``d0`` is the earliest
acting input.  The potential is an exact 0 at ``d0``, so a threshold
below 0 is reached at ``d0`` itself, and so is a threshold of 0 unless the
inputs at ``d0`` sum to a negative weight; inputs before 0 act, but the
crossing is never before 0.  A span's potential has at most one
extremum, so the span splits into at most two monotone pieces; the first
piece whose end reaches threshold holds the crossing, found to adjacent
floats.  ``horizon / tau_rise``, ``|d| / tau_rise`` and the trace must be
finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, frexp, isfinite, ldexp, log, nextafter

import numpy as np

from .coding import DelayVector
from .errors import ConfigError

__all__ = ["SrmParams", "threshold_crossing"]

# grid points that _voltage_trace evaluates, and srm-demo formats, at a time
_TRACE_SLICE = 1 << 16

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


def _drive(delays: np.ndarray, fired: np.ndarray, params: SrmParams):
    """The part of ``_spans`` that depends on the drive and the grid's end,
    not on the weights: ``(chosen, starts, onsets)``.

    ``chosen`` indexes the fired inputs that act (delay below the grid's
    last time ``end``) in stable delay order; ``starts`` are the positions
    in ``chosen`` where a new delay begins, one per merged input; ``onsets``
    are the merged delays, a list.  Its first entry is ``d0``, after which
    the crossing is sought; an input before 0 acts like any other, and only
    the crossing waits for 0.
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
    acting = delays < round(params.horizon / params.dt) * params.dt
    chosen, delays = chosen[acting], delays[acting]
    order = delays.argsort(kind="stable")
    chosen, delays = chosen[order], delays[order]
    # inputs that share a delay act as one input with their summed weight
    new = np.ones(delays.size, dtype=bool)
    np.not_equal(delays[1:], delays[:-1], out=new[1:])
    starts = new.nonzero()[0]
    stage = chosen, starts, delays[starts].tolist()
    _last_drive = key, stage
    return stage


def _spans(delays: np.ndarray, fired: np.ndarray, weights: np.ndarray, params: SrmParams):
    """Validate a drive and return ``(scale, spans)``, its spans in time order.

    Span ``(onset, decay, rise)`` covers the times after ``onset`` up to and
    including the next span's onset (the grid's last time ``end`` for the
    last span), where the potential at ``t`` is ``scale * (decay
    e^{-(t - onset)/tau_decay} - rise e^{-(t - onset)/tau_rise})``.  The first
    span has no input (``decay = rise = 0``): it runs from the earliest
    acting input ``d0``, whatever its weight, to the first merged input with
    a nonzero sum, and the potential is an exact 0 there and before it.
    Merged input ``k`` with a nonzero sum is span ``k + 1``.  No acting input
    gives no spans.  ``threshold_crossing`` reads ``d0`` as the first span's
    onset.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(delays),):
        raise ConfigError(f"expected {len(delays)} weights, got shape {weights.shape}")
    top = float(np.abs(weights).max(initial=0.0))
    if not isfinite(top):
        raise ConfigError("SRM weights must be finite")
    chosen, starts, onsets = _drive(delays, fired, params)
    w = weights[chosen]
    if chosen.size < weights.size:  # unfired or past-the-end inputs
        top = float(np.abs(w).max(initial=0.0))
    # exact: every |w| / scale is below 2, so a merged sum stays below 2 * fan-in
    scale = ldexp(1.0, frexp(top)[1] - 1)
    w /= scale
    sums = np.add.reduceat(w, starts).tolist()
    tau_decay, tau_rise = params.tau_decay, params.tau_rise
    if onsets and not isfinite(max(-onsets[0], onsets[-1]) / tau_rise):  # the largest |onset|
        if any(x and not isfinite(at / tau_rise) for at, x in zip(onsets, sums)):
            raise ConfigError("fired delay / tau_rise must be finite")
    spans, onset, decay, rise = [], onsets[0] if onsets else None, 0.0, 0.0
    for at, x in zip(onsets, sums):
        if x:  # a zero sum adds nothing; the first input decays sums of 0
            spans.append((onset, decay, rise))
            gap, onset = onset - at, at
            decay, rise = decay * exp(gap / tau_decay) + x, rise * exp(gap / tau_rise) + x
    return scale, [*spans, (onset, decay, rise)] if onsets else []


def _voltage_trace(
    inputs: DelayVector, weights: np.ndarray, params: SrmParams
) -> tuple[np.ndarray, np.ndarray]:
    """Membrane potential on the simulation grid.

    Returns ``(times, voltage)`` with ``times = 0, dt, ..., horizon``.  Only
    fired inputs contribute; an input that never spiked adds nothing
    regardless of its delay slot.  Fired delays, their ratio to ``tau_rise``,
    all weights and the potential must be finite and the grid must fit in
    memory (``ConfigError`` otherwise).

    Each span is evaluated in closed form on the grid points it covers:
    from the first ``j`` with ``j * dt`` past its onset (``np.searchsorted``
    on the grid's own products, ``side="right"``) up to the next span's.
    The result equals the per-input sum up to rounding; the tests hold it
    to 1e-9 of the total absolute weight.
    """
    scale, spans = _spans(inputs.delays, inputs.fired, weights, params)
    steps = int(round(params.horizon / params.dt))
    try:
        times = np.arange(steps + 1, dtype=np.float64) * params.dt
        voltage = np.zeros(steps + 1)
        bounds = np.searchsorted(times, [span[0] for span in spans], side="right").tolist()
        # the first span carries no input: its points stay 0
        for (onset, a, b), begin, end in zip(spans[1:], bounds[1:], bounds[2:] + [steps + 1]):
            for lo in range(begin, end, _TRACE_SLICE):
                hi = min(lo + _TRACE_SLICE, end)
                since = times[lo:hi] - onset
                # 0.0 + turns a -0.0 decay term into +0.0, so a zero potential prints as 0
                voltage[lo:hi] = ((0.0 + a * np.exp(-since / params.tau_decay))
                                  - b * np.exp(-since / params.tau_rise))
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate the {steps + 1}-point SRM grid") from exc
    # scale is a power of two: scaling afterwards changes no other bit
    if not isfinite(scale * float(max(voltage.max(), -voltage.min()))):
        raise ConfigError("the SRM potential exceeds the float range")
    voltage *= scale
    return times, voltage


def threshold_crossing(
    inputs: DelayVector, weights: np.ndarray, params: SrmParams
) -> float | None:
    """When the potential first reaches threshold, or None if it never does.

    The crossing is the infimum of the times ``t`` in ``[0, end]``, ``end =
    round(horizon/dt)*dt``, with ``t > d0`` at which the potential is at or
    above ``v_threshold``, where ``d0`` is the earliest fired input before
    ``end``; with no such input there is none.  Every kernel is zero at its
    own onset, so the potential is an exact 0 at ``d0``.  If ``d0 >= 0``, a
    negative threshold is therefore reached at ``d0``, and so is a zero
    threshold unless the inputs at ``d0`` sum to a negative weight, which
    takes the potential below 0 at once.  Inputs before 0 act, but the
    crossing is not earlier than 0, and it is 0 when the potential at 0
    reaches threshold.  Inputs are checked as in :func:`_voltage_trace`, but
    not the potential's range: past it the potential is +-inf, and +inf
    reaches threshold.  Four inputs at delay 2 with weight 1.7e308, which
    ``_voltage_trace`` refuses, cross one float after 2.

    On a span the potential has at most one extremum, at ``s* = tau_d tau_r
    / (tau_d - tau_r) ln(B tau_d / (A tau_r))`` after its onset, and only
    where ``A`` and ``B`` share a sign, so the span splits into at most two
    monotone pieces.  The first piece whose end reaches threshold holds the
    crossing (its potential at its start is the previous piece's end).
    There, Illinois regula falsi in ``math`` floats, halving the bracket
    where a secant step stalls, returns the float at which the potential
    reaches threshold while at the float below it does not (except at
    ``d0`` or 0).  Time and memory grow with the spans, not with the grid.
    The trace's first qualifying grid point past ``d0`` is the first grid
    point at or after the crossing, up to rounding, unless the potential
    reaches threshold only on a peak between grid points.
    """
    scale, spans = _spans(inputs.delays, inputs.fired, weights, params)
    if not spans:
        return None
    theta, tau_decay, tau_rise = params.v_threshold, params.tau_decay, params.tau_rise
    # the potential is an exact 0 at d0, then 0 or of the sign of the sum at d0
    start = spans[0][0]
    slope = spans[1][1] if len(spans) > 1 and spans[1][0] == start else 0.0
    if start >= 0.0 and (theta < 0.0 or theta == 0.0 <= slope):
        return start
    log_ratio, rate = log(tau_decay / tau_rise), 1.0 / tau_rise - 1.0 / tau_decay
    stops = [span[0] for span in spans[1:]] + [round(params.horizon / params.dt) * params.dt]
    below = -theta  # the potential minus threshold at the current piece's start

    def excess(t):  # on the walk's current span (onset, a, b): called only inside the walk
        since = t - onset
        return scale * (a * exp(-since / tau_decay) - b * exp(-since / tau_rise)) - theta
    for (onset, a, b), stop in zip(spans, stops):
        if onset < 0.0 <= stop:  # the span that holds 0, where the crossing can start
            below = excess(0.0)
            if below >= 0.0:
                return 0.0
        lo = onset if onset >= 0.0 else 0.0  # max(onset, 0.0): a -0.0 onset stays
        if not lo < stop:
            continue
        # the potential's one extremum, where A and B share a sign, splits the span
        peak = onset + (log(abs(b)) - log(abs(a)) + log_ratio) / rate \
            if 0.0 < a and 0.0 < b or a < 0.0 and b < 0.0 else stop
        for end in (peak, stop) if lo < peak < stop else (stop,):
            since = end - onset  # excess(end), inline
            above = scale * (a * exp(-since / tau_decay) - b * exp(-since / tau_rise)) - theta
            if above >= 0.0:
                return _root(excess, lo, end, below, above)
            lo, below = end, above
    return None


def _root(excess, lo: float, hi: float, below: float, above: float) -> float:
    """Smallest float ``t`` in ``(lo, hi]`` with ``excess(t) >= 0``, for
    ``excess`` monotone there with ``excess(hi) = above >= 0`` and
    ``excess(lo) = below <= 0``."""
    side, clamped = 0, False  # side: the end the last step moved, 1 for hi
    while True:
        # a secant step, or halving where the values allow none or the last
        # step was clamped; a step that rounds onto an end moves an ulp inside,
        # since that end is then within rounding of the crossing
        step = lo + (hi - lo) / 2
        if below < 0.0 and isfinite(above - below) and not clamped:
            step = hi - (hi - lo) * (above / (above - below))
        clamped = not lo < step < hi
        t = (nextafter(lo, hi) if step <= lo else nextafter(hi, lo)) if clamped else step
        if not lo < t < hi:  # adjacent floats
            return hi
        # Illinois: an end kept for a second step in a row has its value halved
        value = excess(t)
        if value >= 0.0:
            hi, above, below, side = t, value, below / 2 if side > 0 else below, 1
        else:
            lo, below, above, side = t, value, above / 2 if side < 0 else above, -1
