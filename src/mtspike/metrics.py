"""Prediction, accuracy, confusion matrices, spike counting, and energy accounting.

:func:`predict` is the one evaluation path: :func:`evaluate` and
``learning.train``'s per-epoch test accuracy both classify through it.  It
runs a set in consecutive blocks of 128 to 255 rows, so each block's hidden
arrays stay in cache between the layer steps instead of streaming a
whole-set array through memory.  A set of fewer than 256 rows makes exactly
one ``forward_batch`` and one ``read_class_batch`` call; a larger set's
outputs can differ from a single whole-set pass by one ulp, because BLAS
rounds products of different row counts differently.  A larger set's
blocks run first in one float32 sweep, on every usable CPU, and a class is
taken from float32 only where a rounding-error bound proves that the
float64 ``forward_batch`` blocks give the same one (see :func:`predict`).

Spike counts follow the single-spike discipline: every fired input entry is
one spike, and every hidden and output neuron emits exactly one spike per
inference (a clipped neuron firing at delay 0 still fires).  Energy is
``alpha`` abstract units per spike, so cross-model energy ratios are exact
and independent of the physical per-spike cost.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datasets import EncodedDataset
from .errors import ConfigError, StructureError
from .network import Network, forward_batch
from .readout import TargetScheme, _scores, read_class_batch

__all__ = [
    "RunMetrics",
    "predict",
    "evaluate",
    "dataset_spike_count",
    "energy",
    "summarize",
]


@dataclass
class RunMetrics:
    """Summary of one trained model on one evaluation set."""

    test_accuracy: float
    confusion: np.ndarray
    total_spikes: int
    energy: float


# Fewest rows per block in ``predict``: a set of n rows runs as
# n // PREDICT_BLOCK near-equal blocks, so one of fewer than two blocks is a
# single pass.  Stored 169-500-10 model, conv-coded digits, 2-vCPU x86-64,
# numpy 2.4, one BLAS thread: 10k float64 rows took ~94 ms in one pass and
# ~57-65 ms in blocks of 128-192 rows, whose 500-wide hidden arrays stay in
# the 2 MB L2 beside the 169x500 weights (224-320 rows: 4-7% slower); 200
# rows took 5-10% longer as 128 + 72 rows than as one pass.  The float32
# sweep (half the bytes per block) read within noise from 128 to 512 rows
# per block, 5-10% slower at 64 and 15-25% slower as one pass.
PREDICT_BLOCK = 128

# Threads that sweep float32 blocks: the caller and _WORKERS - 1 helpers (_sweep).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _new_pool():  # an executor starts no thread until the first submit
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS - 1 or 1, thread_name_prefix="mtspike-sweep")


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_new_pool)


# Unit roundoff u and smallest normal number eta as columns, and a quarter
# of the largest number: row or entry 0 float32, 1 float64.
_FLOATS = np.finfo(np.float32), np.finfo(np.float64)
_UNIT = np.array([[float(f.eps) / 2] for f in _FLOATS])
_TINY = np.array([[float(f.tiny)] for f in _FLOATS])
_LIMIT = np.array([float(f.max) / 4 for f in _FLOATS])
# Covers the bounds' own float64 rounding: each is a few thousand operations
# on non-negative numbers, a relative error below 2**-40.
_SAFETY = 1.0 + 2.0 ** -20


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN bound returns None
def _output_bounds(net: Network, magnitude: np.ndarray) -> np.ndarray | None:
    """Bounds on how far any output of a float32 and of a float64 pass of
    ``net`` lies from its exact value, for inputs with ``|x[:, i]| <=
    magnitude[i]``: ``[bound32, bound64]``, or None when a value of either
    pass could leave its format's range (see :func:`predict`)."""
    m = magnitude  # bound on |a|, the exact inputs of the layer
    e = _UNIT * m + _TINY  # bound on |a^ - a|, per format: input rounding
    for w in net.weights:
        n = w.shape[0]
        if not (n + 2) * _UNIT[0, 0] <= 0.25:
            return None
        gamma = (n + 2) * _UNIT / (1 - (n + 2) * _UNIT)
        w_abs = np.abs(w)
        reach, spread = m @ w_abs, e @ w_abs
        inputs, col = m + e, w_abs.sum(axis=0)
        big = reach + spread  # (m + e) |W|, bounds every partial sum of a^ W^
        if not ((inputs.max(axis=1) < _LIMIT).all() and (big.max(axis=1) < _LIMIT).all()
                and col.max() < _LIMIT[0]):
            return None
        z = reach / n
        error_z = ((spread + gamma * big) / n
                   + 2 * _TINY * (2 * n + col / n + inputs.sum(axis=1, keepdims=True)))
        e = error_z + 2 * _UNIT * (z + error_z + net.window) + _TINY
        m = z + net.window
    if not ((m + e).max(axis=1) < _LIMIT).all():
        return None
    return _SAFETY * e.max(axis=1)


def _settled(scores: np.ndarray, bound: float) -> np.ndarray:
    """Rows whose class is the same for every output within ``bound`` of these.

    ``scores`` come from outputs through ``readout._scores`` in float64.
    """
    if scores.shape[1] < 2:
        return np.ones(len(scores), dtype=bool)
    best = second = np.full(len(scores), np.inf)
    for column in scores.T:  # 10k rows of 10: 2.5x faster than np.partition by rows
        second = np.minimum(second, np.maximum(best, column))
        best = np.minimum(best, column)
    u = _UNIT[1, 0]
    return second - best > _SAFETY * 2 * (bound + u * (bound + 2 * second))


def _float32_copy(net: Network, x: np.ndarray):
    """``(fan-in-prescaled float32 weights fl32(W / n), output bounds over
    x)``, or None when the bounds do not exist (see :func:`predict`)."""
    # one bound for every input column: half the time of per-column ones
    magnitude = max(-float(x.min()), float(x.max()))  # NaN if x holds one
    bounds = _output_bounds(net, np.full(x.shape[1], magnitude))
    if bounds is None:
        return None
    return [(w / w.shape[0]).astype(np.float32) for w in net.weights], bounds


def _sweep(weights: list[np.ndarray], window: float, blocks: list[np.ndarray]) -> np.ndarray:
    """float32 outputs of every row of ``blocks`` through the prescaled
    ``weights``: per block and layer ``z = a v``, then ``max(z, 0) + window`` in
    place.  The caller and up to ``_WORKERS - 1`` helpers, each with its own
    hidden buffers, take the next unclaimed block and write its rows of the result."""
    stops = np.cumsum([len(block) for block in blocks]).tolist()
    out = np.empty((stops[-1], weights[-1].shape[1]), np.float32)
    claims = iter([(a, out[stop - len(a):stop]) for a, stop in zip(blocks, stops)])  # shared
    most = max(map(len, blocks))

    def work():
        hidden = [np.empty((most, v.shape[1]), np.float32) for v in weights[:-1]]
        for a, rows in claims:
            for v, z in zip(weights, [h[:len(a)] for h in hidden] + [rows]):
                a = np.matmul(a, v, out=z, dtype=np.float32)  # casts the input block
                np.maximum(a, 0, out=a)
                a += window

    helpers = [_pool.submit(work) for _ in range(min(_WORKERS, len(blocks)) - 1)]
    try:
        work()
    finally:  # a helper that has not started would find no block left
        for helper in helpers:
            helper.cancel() or helper.result()
    return out


def _check_shape(net: Network, data: EncodedDataset, scheme: TargetScheme, name: str):
    """The O(1) checks of :func:`_check_set`, which :func:`predict` runs on every call."""
    if scheme.output_size != net.layer_sizes[-1]:
        raise ConfigError(f"readout expects {scheme.output_size} output neurons, "
                          f"network has {net.layer_sizes[-1]}")
    if len(data) == 0:
        raise ConfigError(f"{name} dataset is empty")
    if data.delays.shape[1] != net.layer_sizes[0]:
        raise StructureError(f"encoded {name} input width {data.delays.shape[1]} "
                             f"does not match input layer size {net.layer_sizes[0]}")


def _check_set(net: Network, data: EncodedDataset, scheme: TargetScheme, name: str):
    """Whether the ``name`` set ``data`` fits ``net`` and ``scheme``; raises, in
    this order, ``ConfigError`` when the readout's output size is not the net's
    last layer size and for an empty set, ``StructureError`` for a width other
    than the input layer's, and ``ConfigError`` for a label at or past
    ``scheme.num_classes``.  It reads the labels, never the delays."""
    _check_shape(net, data, scheme, name)
    if data.labels.max() >= scheme.num_classes:
        raise ConfigError(f"{name} label {data.labels.max()} is outside the "
                          f"readout's {scheme.num_classes} classes")


def predict(net: Network, data: EncodedDataset, scheme: TargetScheme) -> np.ndarray:
    """One class per row of ``data.delays``, read out block by block.

    A set of fewer than ``2 * PREDICT_BLOCK`` rows makes one float64
    ``forward_batch`` call.  A larger set runs as near-equal blocks, and
    each row's class equals that of ``read_class_batch`` on its block's
    float64 ``forward_batch`` outputs, but most come from one float32
    sweep over every block (:func:`_sweep`, through the fan-in-prescaled
    weights ``fl32(W / n)`` on up to one thread per usable CPU, with the
    same bytes at any thread count), certified by a rounding-error bound:

    * A row takes its float32 class when its two best scores (output
      delays, or distances to the checkpoints) are further apart than
      twice the float32 bound plus twice the float64 bound: both passes then
      lie within their bound of the exact outputs, so no score can swap
      places between them.
    * The other rows of the set run through float64 in one call; their
      outputs lie within twice the float64 bound of the block pass's.
    * If one of them is still that close to a tie, its whole block runs
      through ``forward_batch`` in float64 and ``read_class_batch``.

    The bound, with ``u`` the unit roundoff of the format and ``eta`` its
    smallest normal number, per output column of each layer ``z = a W / n``,
    ``out = max(z, 0) + T``: take bounds ``m_i >= |a_i|`` on the exact
    inputs and ``e_i >= |a^_i - a_i|`` on the computed ones.  The first
    layer starts from ``m`` = the largest input magnitude in the set and
    ``e = u m + eta`` (rounding the inputs to the format).  A dot
    product of length ``n`` in any summation order satisfies ``a^ . w^ =
    sum a^_i w^_i (1 + t_i)`` with ``|t_i| <= gamma_n = n u / (1 - n u)``
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, §3.1).
    The float64 pass computes ``(a^ . W) / n``; the sweep computes ``a^ .
    fl32(fl64(W / n))``, rounding each weight twice.  Either way the factor
    becomes ``gamma_{n+2}``, so

        |z^_j - z_j| <= ((e |W|)_j + gamma_{n+2} ((m + e) |W|)_j) / n + U_j,

    where ``U_j = 2 eta (2 n + sum_i |W_ij| / n + sum_i (m_i + e_i))``
    bounds underflow: each of the ``2 n - 1`` products and sums may be off
    by up to ``eta`` (the float64 pass divides these by ``n`` and adds a
    quotient's), an input flushed to zero moves a product by ``eta |W_ij| /
    n``, and a prescaled weight below ``eta``, rounded or flushed, by
    ``eta`` times the input.  The special ReLU is 1-Lipschitz, and adding
    the window ``T`` (itself rounded to the format) adds ``2 u (|z| +
    |z^_j - z_j| + T) + eta``; the next layer takes ``m = (m |W|) / n + T``
    and this error as its ``e``.  The bound is the largest ``e`` over the
    output columns, computed once per call in float64 with a relative
    margin of ``2**-20`` for its own rounding; it holds for any summation
    order, so the sweep need not repeat ``forward_batch``'s steps.  A
    score's float64 subtraction of a checkpoint adds ``u`` times the score.
    When ``(m + e) |W|``, ``|W|`` or a layer's ``m + e`` could reach a
    quarter of a format's largest number, or ``(n + 2) u > 1/4``, no value
    is certain to stay finite and every block runs in float64.

    Before any ``forward_batch`` call, a readout whose ``output_size`` is
    not the net's last layer size or an empty ``data`` raises ``ConfigError``,
    a width other than the input layer's ``StructureError``.  Non-finite
    outputs in any block raise ``EvaluationError``.
    """
    _check_shape(net, data, scheme, "evaluation")
    x = data.delays
    if len(x) < 2 * PREDICT_BLOCK:
        return read_class_batch(scheme, forward_batch(net, x).outputs)
    blocks = np.array_split(x, len(x) // PREDICT_BLOCK)
    single = _float32_copy(net, x)
    if single is None:
        return np.concatenate([read_class_batch(scheme, forward_batch(net, block).outputs)
                               for block in blocks])
    weights, (bound32, bound64) = single
    scores = _scores(scheme, _sweep(weights, net.window, blocks).astype(np.float64))
    classes = scores.argmin(axis=1)
    unsure = np.flatnonzero(~_settled(scores, bound32 + bound64))
    if len(unsure):
        scores = _scores(scheme, forward_batch(net, x[unsure]).outputs)
        classes[unsure] = scores.argmin(axis=1)
        ends = np.cumsum([len(block) for block in blocks])
        for b in np.unique(ends.searchsorted(unsure[~_settled(scores, 2 * bound64)], "right")):
            classes[ends[b] - len(blocks[b]):ends[b]] = read_class_batch(
                scheme, forward_batch(net, blocks[b]).outputs)
    return classes


def evaluate(
    net: Network, data: EncodedDataset, scheme: TargetScheme
) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows true class, columns predicted).

    Before any row is classified, ``_check_set`` raises ``ConfigError`` for a
    readout whose ``output_size`` is not the net's last layer size, an empty
    ``data`` or a label at or above ``scheme.num_classes``, and
    ``StructureError`` for a width other than the input layer's.
    """
    _check_set(net, data, scheme, "evaluation")
    predicted = predict(net, data, scheme)
    accuracy = int(np.count_nonzero(predicted == data.labels)) / len(data)
    k = scheme.num_classes
    confusion = np.bincount(data.labels.astype(np.intp, copy=False) * k + predicted,
                            minlength=k * k).reshape(k, k)
    return accuracy, confusion


def dataset_spike_count(data: EncodedDataset, net: Network) -> int:
    """Total spikes over every inference in ``data``."""
    if data.fired.shape[1] != net.layer_sizes[0]:
        raise StructureError("encoded width does not match the input layer")
    per_inference_overhead = sum(net.layer_sizes[1:])
    return int(np.count_nonzero(data.fired)) + per_inference_overhead * len(data)


def energy(total_spikes: int, alpha: float = 1.0) -> float:
    """Abstract energy of a spike total: ``alpha`` units per spike."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError("alpha must be finite and positive")
    if total_spikes < 0:
        raise ConfigError("spike count cannot be negative")
    return alpha * total_spikes


def summarize(
    net: Network,
    data: EncodedDataset,
    scheme: TargetScheme,
    alpha: float = 1.0,
) -> RunMetrics:
    accuracy, confusion = evaluate(net, data, scheme)
    spikes = dataset_spike_count(data, net)
    return RunMetrics(
        test_accuracy=accuracy,
        confusion=confusion,
        total_spikes=spikes,
        energy=energy(spikes, alpha),
    )

