"""Prediction, accuracy, confusion matrices, spike counting, and energy accounting.

:func:`predict` is the one evaluation path: :func:`evaluate` and
``learning.train``'s per-epoch test accuracy both classify through it.  A
set of fewer than 128 rows makes exactly one ``forward_batch`` and one
``read_class_batch`` call.  A larger set is cut once, into consecutive
slices of about 512 rows, and runs first in one float32 sweep over them,
which folds the first-layer neurons that a bound proves silent on every
row into one.  A class is taken from float32 only where a rounding-error
bound proves that the float64 reference gives the same one:
``forward_batch`` on the same slices, whose outputs can differ from a
single whole-set pass by one ulp, because BLAS rounds products of
different row counts differently (see :func:`predict`).

Spike counts follow the single-spike discipline: every fired input entry is
one spike, and every hidden and output neuron emits exactly one spike per
inference (a clipped neuron firing at delay 0 still fires).  Energy is
``alpha`` abstract units per spike, so cross-model energy ratios are exact
and independent of the physical per-spike cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import EncodedDataset
from .errors import ConfigError, StructureError
from .network import Network, _forward32, _prescaled, forward_batch
from .readout import TargetScheme, _scores, read_class_batch

__all__ = [
    "RunMetrics",
    "predict",
    "evaluate",
    "dataset_spike_count",
    "energy",
]


@dataclass
class RunMetrics:
    """Summary of one trained model on one evaluation set."""

    test_accuracy: float
    confusion: np.ndarray
    total_spikes: int
    energy: float


# Rows per slice, the one partition of a set in ``predict``: n rows run as
# ceil(n / _SLICE) near-equal slices, through the float32 sweep and through
# every float64 pass of the reference.  Stored 169-500-10 model, conv-coded
# digits, 2-vCPU x86-64, numpy 2.4, one BLAS thread, the 10k digits (medians
# of 30 interleaved rounds): with the 80 columns left once 421 silent neurons
# are folded (4.7 ms at 128 rows), 384-1,024 rows took 33-39% less time, 64
# rows 25% more and one pass 30% less; with all 500 columns (8 rounds),
# 192-1,024 rows took 10-24% less than 128.  A set of fewer than
# _SLICE // 4 rows runs as one float64 pass: with its bounds and silence
# proof, the sweep took 1.50x that pass's time at 64 rows, 1.06x at 128,
# 0.95x at 144, 0.76x at 200 and 0.62x at 256 (medians of 80 interleaved
# rounds), so the cut sits just below the crossover.  On a tiny net the
# sweep costs several float64 passes (4-25-1 at 128 rows: 0.12 against 0.02
# ms), but no CLI or benchmark path evaluates such a net on 128 rows or more:
# iris has 150 rows, its test split 30.
_SLICE = 512


# Unit roundoff u and smallest normal number eta as columns, and a quarter
# of the largest number: row or entry 0 float32, 1 float64.
_FLOATS = np.finfo(np.float32), np.finfo(np.float64)
_UNIT = np.array([[float(f.eps) / 2] for f in _FLOATS])
_TINY = np.array([[float(f.tiny)] for f in _FLOATS])
_LIMIT = np.array([float(f.max) / 4 for f in _FLOATS])
# Covers the bounds' own float64 rounding: every term is a sum or product of
# non-negative numbers, within a relative (n + 16) u of exact per layer of
# fan-in n <= 2**22, below 2**-30 (_silent's sums of n squares: the same).
_SAFETY = 1.0 + 2.0 ** -20


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN fails the range checks
def _output_bounds(net: Network, x: np.ndarray) -> np.ndarray | int:
    """Bounds on how far any output of a float32 and of a float64 pass of
    ``net`` lies from its exact value, for inputs no larger in magnitude
    than the largest of ``x``: ``[bound32, bound64]``, or the index of the
    first weight matrix over which a value of either pass could leave its
    format's range (see :func:`predict`)."""
    (u32, u64), (eta32, eta64), t = _UNIT[:, 0].tolist(), _TINY[:, 0].tolist(), net.window
    mx = max(-float(x.min()), float(x.max()))  # NaN if x holds one
    # per input column: m >= |a|, e32 and e64 >= |a^ - a| (the inputs' rounding), 1
    s = np.repeat([[mx], [u32 * mx + eta32], [u64 * mx + eta64], [1.0]], x.shape[1], axis=1)
    for l, w in enumerate(net.weights):
        n = w.shape[0]
        if not (n + 2) * u32 <= 0.25:
            return l
        r = s @ np.abs(w)  # m |W|, e32 |W|, e64 |W| and col = sum_i |W_ij|
        inputs = s[1:3] + s[0]  # m + e; (m + e) |W| bounds every partial sum of a^ W^
        if not ((np.maximum(inputs.max(axis=1), (r[1:3] + r[0]).max(axis=1)) < _LIMIT).all()
                and r[3].max() < _LIMIT[0]):
            return l
        # next m = m |W| / n + T, next e = error + 2 u (m |W| / n + error + T) + eta with
        # error = (e |W| + gamma (m + e) |W| + 2 eta col) / n + 2 eta (2 n + sum (m + e)):
        # a map of r with non-negative coefficients
        rows, ends = [[1 / n, 0.0, 0.0, 0.0]], [t]
        for f, uf, etaf, total in zip((1, 2), (u32, u64), (eta32, eta64),
                                      inputs.sum(axis=1).tolist()):
            g, grow = (n + 2) * uf / (1 - (n + 2) * uf), 1 + 2 * uf
            rows.append([(grow * g + 2 * uf) / n, 0.0, 0.0, grow * 2 * etaf / n])
            rows[f][f] = grow * (1 + g) / n
            ends.append(grow * 2 * etaf * (2 * n + total) + 2 * uf * t + etaf)
        s = np.array(rows + [[0.0] * 4]) @ r + np.array(ends + [1.0])[:, None]
    if not ((s[1:3] + s[0]).max(axis=1) < _LIMIT).all():
        return len(net.weights) - 1
    return _SAFETY * s[1:3].max(axis=1)


def _settled(scores: np.ndarray, bound: float) -> np.ndarray:
    """Rows whose class is the same for every output within ``bound`` of these.

    ``scores`` come from outputs through ``readout._scores`` in float64.
    """
    if scores.shape[1] < 2:
        return np.ones(len(scores), dtype=bool)
    if len(scores) < _SLICE:  # 200 rows of 10: half the time of the loop below
        best, second = np.sort(scores, axis=1)[:, :2].T
    else:
        best = second = np.full(len(scores), np.inf)
        for column in scores.T:  # 10k rows of 10: 2.5x faster than np.partition by rows
            second = np.minimum(second, np.maximum(best, column))
            best = np.minimum(best, column)
    u = _UNIT[1, 0]
    return second - best > _SAFETY * 2 * (bound + u * (bound + 2 * second))


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN bound proves nothing
def _silent(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Which columns ``j`` of the first weight matrix ``w`` have ``x_i . w_j <
    0`` in exact arithmetic on every row ``x_i`` of ``x``, proved by a ball of
    radius ``R`` around a centre ``c`` that holds every row: ``x_i . w_j <=
    c . w_j + R |w_j|`` (see :func:`predict`).  The fan-in of ``w`` must
    pass the check of ``_output_bounds``."""
    n, step = len(w), _SLICE  # rows per float32 slice of differences
    # c: any vector would do.  The first 128 rows, not a slice: on the 10k
    # digits a 512-row mean proved 423 neurons silent, not 421, but made
    # predict 7.5% slower.
    centre = x[:128].mean(axis=0, dtype=np.float32)
    c = centre.astype(np.float64)
    ahead = c @ w
    if not (ahead < 0).any():
        return np.zeros(w.shape[1], dtype=bool)
    (u, u64), (eta, eta64) = _UNIT[:, 0].tolist(), _TINY[:, 0].tolist()
    gamma, gamma64 = n * u / (1 - n * u), n * u64 / (1 - n * u64)
    reach = math.sqrt(c @ c)
    norms = np.sqrt(np.einsum("ij,ij->j", w, w) + n * eta64)
    margin = gamma64 * reach * norms + 2 * n * eta64  # rounding of c . w_j
    differences = np.empty((min(step, len(x)), n), np.float32)
    centres = np.tile(centre, (len(differences), 1))  # faster than a broadcast

    def largest(rows) -> float:  # float32 squared distance of the furthest row from c
        d = differences[:len(rows)]
        np.copyto(d, rows, casting="unsafe")
        d -= centres[:len(d)]
        return float(np.einsum("ij,ij->i", d, d).max())

    def proved(square: float) -> np.ndarray:
        inner = math.sqrt((square + n * eta) / ((1 - gamma) * (1 - u) ** 2))
        radius = inner + (u * (inner + reach) + math.sqrt(n) * eta) / (1 - u)
        bound = ahead + _SAFETY * (radius * norms + margin)
        return (bound < 0) & np.isfinite(bound)

    square = largest(x[:step])
    silent = proved(square)
    if len(x) > step and silent.any():  # the first slice's radius decides whether the pass runs
        silent = proved(max([square] + [largest(x[s:s + step]) for s in range(step, len(x), step)]))
    return silent


def _folded(net: Network, x: np.ndarray):
    """``(the sweep's float32 weights, output bounds over x)``, or None when
    the bounds do not exist (see :func:`predict`).  The weights are the
    prescaled ``fl32(W / n)`` of an ordinary network: with a hidden layer,
    the first layer's neurons that :func:`_silent` proves silent on ``x``
    become one neuron with zero incoming weights, whose outgoing row is the
    float32 sum of theirs."""
    bounds = _output_bounds(net, x)
    if isinstance(bounds, int):
        return None
    w = net.weights
    if len(w) == 1 or not (silent := _silent(w[0], x)).any():
        return _prescaled(net), bounds
    live, n = np.flatnonzero(~silent), len(w[1])
    first = np.zeros((len(w[0]), len(live) + 1), np.float32)  # the folded neuron's column is 0
    np.divide(w[0][:, live], len(w[0]), out=first[:, :-1], casting="unsafe")
    second = np.empty((len(live) + 1, w[1].shape[1]), np.float32)
    np.divide(w[1][live], n, out=second[:-1], casting="unsafe")
    second[-1] = (w[1][silent] / n).astype(np.float32).sum(axis=0)
    return [first, second] + [(v / len(v)).astype(np.float32) for v in w[2:]], bounds


def _edges(n: int, k: int) -> list[int]:
    """The ``k + 1`` edges of ``np.array_split``'s ``k`` near-equal runs of ``n`` rows."""
    return [i * (n // k) + min(i, n % k) for i in range(k + 1)]


def _sweep(weights: list[np.ndarray], window: float, x: np.ndarray,
           edges: list[int]) -> np.ndarray:
    """float32 outputs of the rows ``x`` through the prescaled ``weights``,
    each slice between two ``edges`` in one ``network._forward32`` call into
    one set of hidden buffers."""
    out = np.empty((len(x), weights[-1].shape[1]), np.float32)
    most = max(b - a for a, b in zip(edges, edges[1:]))
    hidden = [np.empty((most, v.shape[1]), np.float32) for v in weights[:-1]]
    for a, b in zip(edges, edges[1:]):
        _forward32(weights, window, x[a:b], [h[:b - a] for h in hidden] + [out[a:b]])
    return out


def _check_shape(net: Network, data: EncodedDataset, scheme: TargetScheme, name: str):
    """The O(1) checks of :func:`_check_set`, which :func:`predict` runs on every call."""
    if scheme.window != net.window:
        raise ConfigError(f"readout window {scheme.window!r} differs from coding window "
                          f"{net.window!r}; the targets start at the coding window")
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
    this order, ``ConfigError`` for a readout window other than ``net.window``,
    when the readout's output size is not the net's last layer size and for an
    empty set, ``StructureError`` for a width other
    than the input layer's, and ``ConfigError`` for a label at or past
    ``scheme.num_classes``.  It reads the labels, never the delays."""
    _check_shape(net, data, scheme, name)
    if data.labels.max() >= scheme.num_classes:
        raise ConfigError(f"{name} label {data.labels.max()} is outside the "
                          f"readout's {scheme.num_classes} classes")


def predict(net: Network, data: EncodedDataset, scheme: TargetScheme) -> np.ndarray:
    """One class per row of ``data.delays``.

    A set of fewer than ``_SLICE // 4`` rows makes one float64
    ``forward_batch`` call.  A larger set is cut once, into ``ceil(n /
    _SLICE)`` near-equal slices, a count that only the row count sets.  Its
    reference is each slice's float64 pass: every row's class equals that
    of ``read_class_batch`` on its slice's ``forward_batch`` outputs.  Most
    classes come from one float32 sweep over the same slices instead
    (:func:`_sweep`, through the fan-in-prescaled weights ``fl32(W / n)``,
    folding the first-layer neurons proved silent on the set into one),
    certified by a rounding-error bound:

    * A row takes its float32 class when its two best scores (output
      delays, or distances to the checkpoints) are further apart than
      twice the float32 bound plus twice the float64 bound: both passes then
      lie within their bound of the exact outputs, so no score can swap
      places between them.
    * The other rows of the set run through float64 in one call; their
      outputs lie within twice the float64 bound of the slice pass's.
    * If one of them is still that close to a tie, its whole slice runs
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
    output columns, computed once per call in float64: one product of the
    rows ``m``, ``e`` (per format) and 1 with ``|W|`` gives ``m |W|``, ``e
    |W|`` and the column sums, and the next layer's rows are a map of those
    with non-negative coefficients.  Every term is a sum or product of
    non-negative numbers, so a relative margin of ``2**-20`` covers the
    bound's own rounding.  It holds for any summation order, so the sweep
    need not repeat ``forward_batch``'s steps.  A
    score's float64 subtraction of a checkpoint adds ``u`` times the score.
    When ``(m + e) |W|``, ``|W|`` or a layer's ``m + e`` could reach a
    quarter of a format's largest number, or ``(n + 2) u > 1/4``, no value
    is certain to stay finite and every slice runs in float64.

    Before the sweep, ``_silent`` proves first-layer neurons of a net with
    a hidden layer silent on the whole set: ``x_i . W_j < 0`` on every row,
    so the neuron outputs exactly ``T``.  Take the centre ``c``, the float32
    mean of the first 128 rows, and a radius ``R >= |x_i - c|_2`` for
    every row; then ``x_i . W_j <= c . W_j + R |W_j|_2`` (Cauchy-Schwarz).
    ``c . W_j`` computed in float64 is off by at most ``gamma_n |c| |W_j| +
    2 n eta`` in float64's ``u`` and ``eta``, and ``|W_j|`` comes from
    ``sum_i W_ij^2 + n eta``.  ``R`` comes from the largest float32 sum
    ``S`` of squared differences from ``c`` of the rows cast to float32,
    512 rows at a time; in float32's ``u`` and ``eta``, the cast rows lie
    within ``r = sqrt((S + n eta) / ((1 - gamma_n) (1 - u)^2))`` of ``c``,
    and the cast moves a row by at most ``(u (r + |c|) + sqrt(n) eta) / (1
    - u)``.  A neuron is silent when ``c . W_j`` plus ``1 + 2**-20`` times
    the sum of ``R |W_j|`` and that margin is below 0.  When the first 512
    rows' radius proves no neuron silent, the other rows are not read.

    The sweep runs an ordinary network in which the ``k`` silent neurons
    become one neuron with zero incoming weights, which outputs exactly
    ``fl(T)``, and whose outgoing row is the float32 sum of their ``k`` rows
    of the next matrix.  The bound above still holds.  Each silent output
    is ``fl(T)``, within ``u T`` of ``T`` and so inside its column's ``e``.
    Each next-layer dot product now has ``n - k + 1`` terms, and every term
    still sees at most ``n + 2`` roundings: the folded term the 2 of each
    weight, at most ``k - 1`` of the sum, one product and at most ``n - k``
    additions; a live term its weight's 2, one product and at most ``n -
    k`` additions.  There are still at most ``2 n - 1`` products and sums
    for the underflow term, so ``gamma_{n+2}`` and every class are
    unchanged.  The float64 passes run on the whole net.

    Before any ``forward_batch`` call, a readout whose ``window`` is not
    ``net.window`` or whose ``output_size`` is not the net's last layer size,
    or an empty ``data``, raises ``ConfigError``, a width other than the
    input layer's ``StructureError``.  Non-finite outputs in any slice raise
    ``EvaluationError``.
    """
    _check_shape(net, data, scheme, "evaluation")
    x, n = data.delays, len(data.delays)
    if n < _SLICE // 4:
        return read_class_batch(scheme, forward_batch(net, x).outputs)
    edges = _edges(n, -(-n // _SLICE))
    single = _folded(net, x)
    if single is None:  # no bound: every slice runs in float64
        classes, tied = np.empty(n, np.intp), np.array(edges[:-1])
    else:
        weights, (bound32, bound64) = single
        scores = _scores(scheme, _sweep(weights, net.window, x, edges).astype(np.float64))
        classes = scores.argmin(axis=1)
        unsure = np.flatnonzero(~_settled(scores, bound32 + bound64))
        if not len(unsure):
            return classes
        scores = _scores(scheme, forward_batch(net, x[unsure]).outputs)
        classes[unsure] = scores.argmin(axis=1)
        tied = unsure[~_settled(scores, 2 * bound64)]
    for b in np.unique(np.searchsorted(edges, tied, "right")):
        rows = slice(edges[b - 1], edges[b])
        classes[rows] = read_class_batch(scheme, forward_batch(net, x[rows]).outputs)
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


def _summarize(
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

