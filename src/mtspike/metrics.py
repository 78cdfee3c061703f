"""Accuracy, confusion matrices, spike counting, and energy accounting.

Spike counts follow the single-spike discipline: every fired input entry is
one spike, and every hidden and output neuron emits exactly one spike per
inference (a clipped neuron firing at delay 0 still fires).  Energy is
``alpha`` abstract units per spike, so cross-model energy ratios are exact
and independent of the physical per-spike cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .datasets import EncodedDataset
from .errors import ConfigError, StructureError
from .learning import EpochStats
from .network import Network, forward_batch
from .readout import TargetScheme, read_class_batch

__all__ = [
    "RunMetrics",
    "evaluate",
    "dataset_spike_count",
    "energy",
    "summarize",
    "write_metrics_csv",
    "write_confusion_csv",
]


@dataclass
class RunMetrics:
    """Summary of one trained model on one evaluation set."""

    test_accuracy: float
    confusion: np.ndarray
    total_spikes: int
    energy: float
    history: list[EpochStats] = field(default_factory=list)


def evaluate(
    net: Network, data: EncodedDataset, scheme: TargetScheme
) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows true class, columns predicted).

    A label at or above ``scheme.num_classes`` raises ``ConfigError``.
    """
    if data.delays.shape[1] != net.layer_sizes[0]:
        raise StructureError(
            f"encoded width {data.delays.shape[1]} does not match "
            f"input layer size {net.layer_sizes[0]}"
        )
    outputs = forward_batch(net, data.delays).outputs
    predicted = read_class_batch(scheme, outputs)
    accuracy = float(np.mean(predicted == data.labels))
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
    return int(data.fired.sum()) + per_inference_overhead * len(data)


def energy(total_spikes: int, alpha: float = 1.0) -> float:
    """Abstract energy of a spike total: ``alpha`` units per spike."""
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    if total_spikes < 0:
        raise ConfigError("spike count cannot be negative")
    return alpha * total_spikes


def summarize(
    net: Network,
    data: EncodedDataset,
    scheme: TargetScheme,
    history: list[EpochStats] | None = None,
    alpha: float = 1.0,
) -> RunMetrics:
    accuracy, confusion = evaluate(net, data, scheme)
    spikes = dataset_spike_count(data, net)
    return RunMetrics(
        test_accuracy=accuracy,
        confusion=confusion,
        total_spikes=spikes,
        energy=energy(spikes, alpha),
        history=list(history) if history else [],
    )


def write_metrics_csv(path, history: list[EpochStats]):
    """One row per epoch: epoch, mse, train_accuracy, test_accuracy."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mse", "train_accuracy", "test_accuracy"])
        for row in history:
            writer.writerow(
                [
                    row.epoch,
                    repr(row.mse),
                    repr(row.train_accuracy),
                    "" if row.test_accuracy is None else repr(row.test_accuracy),
                ]
            )


def write_confusion_csv(path, confusion: np.ndarray):
    """Confusion matrix with a header row; first column is the true class."""
    confusion = np.asarray(confusion)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred"] + [str(i) for i in range(confusion.shape[1])])
        for i, row in enumerate(confusion):
            writer.writerow([str(i)] + [str(int(v)) for v in row])
