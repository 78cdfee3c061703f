"""Allocating reference trainer: the workspace trainer must match it bit for bit.

These are the original ``forward_batch``, ``backward``, ``_read_classes`` and
``train``, kept unchanged except for imports; the batch generator, the special
ReLU and its derivative, which the package no longer exports, are copied in
below.
Every layer array, gradient and weight step is a fresh allocation here;
tests train this and ``mtspike.learning.train`` from the same generator and
compare the weights and the epoch history byte for byte.
"""

import logging
import math

import numpy as np

from mtspike.errors import ConfigError, DivergenceError, EvaluationError, StructureError
from mtspike.learning import (
    _GRADIENT_MODES,
    EpochStats,
    TrainConfig,
    output_residual,
)
from mtspike.network import ForwardTrace, Network
from mtspike.readout import TargetScheme, read_class_batch, target_matrix

log = logging.getLogger(__name__)


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Yield one epoch's batches: a seeded shuffle cut into contiguous slices."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def activation(x: np.ndarray, kind: str = "special_relu") -> np.ndarray:
    """The special ReLU, max(0, x); ``kind`` is always ``special_relu``."""
    return np.maximum(x, 0.0)


def activation_derivative(x: np.ndarray, kind: str = "special_relu") -> np.ndarray:
    """Derivative of :func:`activation`; the kink uses subgradient 0."""
    return (np.asarray(x) > 0).astype(np.float64)


def forward_batch(net: Network, delay_matrix: np.ndarray) -> ForwardTrace:
    """Propagate a ``(batch, input_size)`` delay matrix through every layer."""
    x = np.asarray(delay_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise StructureError(
            f"expected a (batch, {net.layer_sizes[0]}) delay matrix, "
            f"got shape {x.shape}"
        )
    nets: list[np.ndarray] = []
    delays = [x]
    for w in net.weights:
        z = x @ w / w.shape[0]
        x = net.window + activation(z, net.activation)
        nets.append(z)
        delays.append(x)
    return ForwardTrace(nets=nets, delays=delays)


def backward(
    net: Network, trace: ForwardTrace, delta: np.ndarray, mode: str = "paper"
) -> list[np.ndarray]:
    """Per-layer weight gradients of the squared delay error over a batch.

    ``delta`` is the ``(batch, output_size)`` output residual, usually from
    :func:`output_residual`; a zero entry sends no update to that neuron's
    synapses for that sample.  Returns one gradient per weight matrix,
    summed over the batch.
    """
    if mode not in _GRADIENT_MODES:
        raise ConfigError(f"unknown gradient mode {mode!r}")
    nets, delays = trace.nets, trace.delays
    depth = len(net.weights)
    if len(nets) != depth or len(delays) != depth + 1:
        raise StructureError("trace depth does not match the network")
    batch = delays[0].shape[0]
    for l, n in enumerate(net.layer_sizes):
        if delays[l].shape != (batch, n):
            raise StructureError(
                f"trace layer {l} has shape {delays[l].shape}, expected ({batch}, {n})"
            )
    if delta.shape != delays[-1].shape:
        raise StructureError("delta shape does not match the output layer")
    if mode == "exact":
        delta = delta * activation_derivative(nets[-1], net.activation)
    grads: list[np.ndarray] = [np.empty(0)] * depth
    for l in reversed(range(depth)):
        fan_in = net.layer_sizes[l]
        grads[l] = delays[l].T @ delta / fan_in
        if l > 0:
            delta = delta @ net.weights[l].T
            if mode == "exact":
                delta = delta / fan_in * activation_derivative(nets[l - 1], net.activation)
    return grads


def _read_classes(scheme: TargetScheme, outputs: np.ndarray, epoch: int, batch: int):
    """Classify during training, where non-finite output delays mean divergence."""
    try:
        return read_class_batch(scheme, outputs)
    except EvaluationError as exc:
        raise DivergenceError(
            f"training diverged at epoch {epoch}, batch {batch}: {exc}"
        ) from exc


def train(
    net: Network,
    data,
    scheme: TargetScheme,
    cfg: TrainConfig,
    eval_data=None,
    rng: np.random.Generator | None = None,
) -> tuple[Network, list[EpochStats]]:
    """Batch gradient descent on the temporal error; mutates ``net`` in place.

    Per epoch the samples are reshuffled, per-sample gradients are combined
    over each batch (summed or averaged per ``cfg.batch_reduction``), and
    weights move by ``-learning_rate`` times the combined gradient at batch
    end; the ``on_misclassification`` gate drops correctly classified
    samples.  The recorded MSE is the mean squared residual over all samples
    of the epoch (restricted to involved output neurons when the heuristic
    loss is active).  ``eval_data`` adds a per-epoch test accuracy.  Fully
    deterministic for a fixed config seed (or caller-supplied generator).

    Raises :class:`DivergenceError`, naming the epoch and batch, as soon as
    a batch's squared error or output delays (training or evaluation) stop
    being finite; numpy's overflow warnings on the way there are silenced.
    Raises :class:`ConfigError` for labels beyond the readout's classes.
    """
    if len(data) == 0:
        raise ConfigError("training dataset is empty")
    if scheme.output_size != net.layer_sizes[-1]:
        raise ConfigError(
            f"readout expects {scheme.output_size} output neurons, "
            f"network has {net.layer_sizes[-1]}"
        )
    if data.delays.shape[1] != net.layer_sizes[0]:
        raise StructureError(
            f"encoded input width {data.delays.shape[1]} does not match "
            f"input layer size {net.layer_sizes[0]}"
        )
    if cfg.heuristic and scheme.mode != "multi_neuron":
        raise ConfigError("the heuristic loss requires one output neuron per class")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    labels = data.labels
    try:
        targets = target_matrix(scheme)[labels]
    except IndexError as exc:
        raise ConfigError(
            f"training label {labels.max()} is outside the readout's "
            f"{scheme.num_classes} classes"
        ) from exc
    history: list[EpochStats] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            squared_sum = 0.0
            term_count = 0
            hit_count = 0
            for batch, idx in enumerate(batch_indices(len(data), cfg.batch_size, rng), 1):
                trace = forward_batch(net, data.delays[idx])
                batch_labels = labels[idx]
                resid, terms = output_residual(
                    trace.outputs, targets[idx], batch_labels, cfg.heuristic
                )
                squared = float(np.sum(resid * resid))
                if not math.isfinite(squared):
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, batch {batch}: "
                        f"squared error is non-finite"
                    )
                squared_sum += squared
                term_count += terms
                predicted = _read_classes(scheme, trace.outputs, epoch, batch)
                hits = predicted == batch_labels
                hit_count += int(hits.sum())

                if cfg.update_gate == "on_misclassification":
                    resid = np.where(hits[:, np.newaxis], 0.0, resid)
                grads = backward(net, trace, resid, mode=cfg.gradient_mode)
                scale = cfg.learning_rate
                if cfg.batch_reduction == "mean":
                    scale /= len(idx)
                for w, g in zip(net.weights, grads):
                    w -= scale * g

            mse = squared_sum / term_count
            if not math.isfinite(mse):
                raise DivergenceError(f"training MSE became non-finite at epoch {epoch}")
            test_accuracy = None
            if eval_data is not None:
                outputs = forward_batch(net, eval_data.delays).outputs
                predictions = _read_classes(scheme, outputs, epoch, batch)
                test_accuracy = float(np.mean(predictions == eval_data.labels))
            stats = EpochStats(
                epoch=epoch,
                mse=mse,
                train_accuracy=hit_count / len(data),
                test_accuracy=test_accuracy,
            )
            history.append(stats)
            level = logging.INFO if epoch % max(1, cfg.epochs // 10) == 0 else logging.DEBUG
            log.log(
                level,
                "epoch %d/%d mse=%.6f train_acc=%.4f%s",
                epoch,
                cfg.epochs,
                mse,
                stats.train_accuracy,
                "" if test_accuracy is None else f" test_acc={test_accuracy:.4f}",
            )
    return net, history
