"""Target delay assignment and class readout.

Two regimes are supported.  With a single output neuron, each class owns a
"delay checkpoint" spaced ``excitatory_offset`` apart beyond the encoding
window, and readout picks the checkpoint nearest to the actual output delay.
With one output neuron per class, the class's neuron gets the short
(excitatory) target and all others the longer inhibitory one, and readout
picks the neuron that fires earliest.  All targets sit at or beyond the
encoding window, and ties always break toward the lowest class index.
Readout is batch-major: :func:`read_class_batch` classifies a
``(batch, output_size)`` matrix, one row per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, EvaluationError

__all__ = [
    "TargetScheme",
    "target_matrix",
    "read_class_batch",
]


@dataclass(frozen=True)
class TargetScheme:
    """Readout regime with its target delays."""

    mode: str
    window: float
    num_classes: int
    excitatory_offset: float = 0.0
    inhibitory_offset: float = 4.0

    def __post_init__(self):
        if self.mode not in ("single_neuron", "multi_neuron"):
            raise ConfigError(f"unknown readout mode {self.mode!r}")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.num_classes * self.output_size > np.iinfo(np.intp).max // 8:
            raise ConfigError(
                f"{self.num_classes} classes need a target matrix larger than "
                f"numpy can address"
            )
        if not all(map(math.isfinite, (self.window, self.excitatory_offset,
                                       self.inhibitory_offset))):
            raise ConfigError("readout window and offsets must be finite")
        if self.window < 0:
            raise ConfigError("encoding window must be non-negative")
        if self.excitatory_offset < 0:
            raise ConfigError("excitatory offset must be non-negative")
        if self.mode == "single_neuron" and self.num_classes > 1 and self.excitatory_offset <= 0:
            raise ConfigError("single-neuron checkpoints need a positive excitatory offset")
        if self.mode == "multi_neuron" and not self.excitatory_offset < self.inhibitory_offset:
            raise ConfigError("excitatory offset must be smaller than inhibitory offset")

    @property
    def output_size(self) -> int:
        """Required size of the network's output layer."""
        return 1 if self.mode == "single_neuron" else self.num_classes

    @cached_property
    def checkpoints(self) -> np.ndarray:
        """Per-class target delays of the single-neuron regime (read-only)."""
        checkpoints = self.window + np.arange(self.num_classes) * self.excitatory_offset
        checkpoints.flags.writeable = False
        return checkpoints


def target_matrix(scheme: TargetScheme) -> np.ndarray:
    """Target delay of every output neuron, ``(num_classes, output_size)``, row per class."""
    if scheme.mode == "single_neuron":
        return scheme.checkpoints[:, np.newaxis]
    targets = np.full(
        (scheme.num_classes, scheme.num_classes), scheme.window + scheme.inhibitory_offset
    )
    np.fill_diagonal(targets, scheme.window + scheme.excitatory_offset)
    return targets


def read_class_batch(scheme: TargetScheme, actual: np.ndarray) -> np.ndarray:
    """Classify a ``(batch, output_size)`` matrix of output delays."""
    actual = np.asarray(actual, dtype=np.float64)
    if actual.ndim != 2 or actual.shape[1] != scheme.output_size:
        raise EvaluationError(
            f"expected (batch, {scheme.output_size}) output delays, "
            f"got shape {actual.shape}"
        )
    if not np.isfinite(actual).all():
        raise EvaluationError("output delays contain non-finite values")
    return _scores(scheme, actual).argmin(axis=1)


def _scores(scheme: TargetScheme, actual: np.ndarray) -> np.ndarray:
    """Per-class scores of float64 output delays; a row's class is its argmin.

    The output delays themselves, or in the single-neuron regime the
    distances to the checkpoints.
    """
    if scheme.mode == "single_neuron":
        return np.abs(actual - scheme.checkpoints)
    return actual

