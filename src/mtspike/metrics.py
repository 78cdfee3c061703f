"""Prediction, accuracy, confusion matrices, spike counting, and energy accounting.

:func:`predict` is the one evaluation path: :func:`evaluate` and
``learning.train``'s per-epoch test accuracy both classify through it.  It
runs ``forward_batch`` and ``read_class_batch`` on consecutive blocks of
128 to 255 rows, so each block's hidden arrays stay in cache between the
layer steps instead of streaming a whole-set array through memory.  A set
of fewer than 256 rows makes exactly one call of each; a larger set's
outputs can differ from a single whole-set pass by one ulp, because BLAS
rounds products of different row counts differently.

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
from .network import Network, forward_batch
from .readout import TargetScheme, read_class_batch

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


# Fewest rows per forward pass in ``predict``: a set of n rows runs as
# n // PREDICT_BLOCK near-equal blocks, so one of fewer than two blocks is a
# single pass.  Stored 169-500-10 model, conv-coded digits, 2-vCPU x86-64,
# numpy 2.4, one BLAS thread: 10k rows took ~94 ms in one pass and ~57-65 ms
# in blocks of 128-192 rows, whose 500-wide hidden arrays stay in the 2 MB
# L2 beside the 169x500 weights (224-320 rows: 4-7% slower); 200 rows took
# 5-10% longer as 128 + 72 rows than as one pass.
PREDICT_BLOCK = 128


def predict(net: Network, data: EncodedDataset, scheme: TargetScheme) -> np.ndarray:
    """One class per row of ``data.delays``, read out block by block.

    Each block goes through ``forward_batch`` and ``read_class_batch``, so
    non-finite outputs in any block raise ``EvaluationError``.  An empty
    ``data`` raises ``ConfigError``.
    """
    if len(data) == 0:
        raise ConfigError("evaluation dataset is empty")
    x = data.delays
    blocks = len(x) // PREDICT_BLOCK
    if blocks < 2:
        return read_class_batch(scheme, forward_batch(net, x).outputs)
    return np.concatenate([
        read_class_batch(scheme, forward_batch(net, block).outputs)
        for block in np.array_split(x, blocks)
    ])


def evaluate(
    net: Network, data: EncodedDataset, scheme: TargetScheme
) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows true class, columns predicted).

    A label at or above ``scheme.num_classes``, or an empty ``data``, raises
    ``ConfigError``.
    """
    predicted = predict(net, data, scheme)
    accuracy = int(np.count_nonzero(predicted == data.labels)) / len(data)
    confusion = np.zeros((scheme.num_classes, scheme.num_classes), dtype=np.int64)
    try:
        np.add.at(confusion, (data.labels, predicted), 1)
    except IndexError as exc:
        raise ConfigError(
            f"label {data.labels.max()} is outside the readout's "
            f"{scheme.num_classes} classes"
        ) from exc
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

