"""Temporal error backpropagation, the heuristic loss, and batch training.

Everything is batch-major, one row per sample.  The learning signal is the
per-neuron delay residual ``actual - target`` (:func:`output_residual`);
:func:`backward` turns it into weight gradients in one of two modes:

* ``paper`` — hidden deltas are plain weighted sums of downstream deltas.
  The omitted fan-in factor is absorbable into the learning rate, and
  gradients also pass through clipped neurons.  Default for training.
* ``exact`` — the strict chain rule, including the fan-in average and the
  special ReLU's derivative (0 at and below the kink) at every layer.
  This is the mode the finite-difference check validates.

The heuristic loss restricts output-layer learning to the "involved" neurons
of each sample's class: walking a depth-first path through a binary decision
tree over class labels visits exactly neurons ``0..class_index``, with the
last one excitatory and the earlier ones inhibitory.  :func:`output_residual`
alone applies this rule, zeroing every other residual so that only involved
synapses are updated, which reduces weight competition between classes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, EvaluationError, StructureError
from .metrics import _check_set, predict
from .network import ForwardTrace, Network, _matrix_product, forward_batch
from .readout import TargetScheme, read_class_batch, target_matrix

__all__ = [
    "TrainConfig",
    "EpochStats",
    "output_residual",
    "backward",
    "train",
]

log = logging.getLogger(__name__)

_GRADIENT_MODES = ("paper", "exact")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``batch_reduction`` picks how per-sample gradients combine within a
    batch before the weight step: ``sum`` applies the per-sample rule
    literally, ``mean`` divides by the batch size.  At a fixed learning
    rate the sum variant takes steps ``batch_size`` times larger, which
    destabilises deeper networks; the multilayer presets therefore use
    ``mean`` while single-layer ones keep ``sum``.
    """

    learning_rate: float = 0.01
    batch_size: int = 30
    epochs: int = 100
    seed: int = 0
    gradient_mode: str = "paper"
    heuristic: bool = False
    update_gate: str = "always"
    batch_reduction: str = "sum"
    init_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError("learning rate must be finite and non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.gradient_mode not in _GRADIENT_MODES:
            raise ConfigError(f"unknown gradient mode {self.gradient_mode!r}")
        if self.update_gate not in ("always", "on_misclassification"):
            raise ConfigError(f"unknown update gate {self.update_gate!r}")
        if self.batch_reduction not in ("sum", "mean"):
            raise ConfigError(f"unknown batch reduction {self.batch_reduction!r}")
        low, high = self.init_range
        if not (low < high and math.isfinite(high - low)):
            raise ConfigError("init_range must be an increasing pair of finite width")


@dataclass
class EpochStats:
    epoch: int
    mse: float
    train_accuracy: float
    test_accuracy: float | None = None


def output_residual(
    outputs: np.ndarray, targets: np.ndarray, labels: np.ndarray, heuristic: bool
) -> tuple[np.ndarray, int]:
    """Output-layer residuals ``outputs - targets`` and the number of loss terms.

    Under the heuristic loss, row ``i`` keeps the residuals of neurons
    ``0..labels[i]`` (its involved set) and zeroes the rest; ``terms`` then
    counts the kept entries.  Otherwise every entry is a loss term.
    """
    if outputs.shape != targets.shape:
        raise StructureError(
            f"outputs shape {outputs.shape} does not match targets shape {targets.shape}"
        )
    resid = outputs - targets
    if not heuristic:
        return resid, resid.size
    mask = np.arange(resid.shape[1])[np.newaxis, :] <= labels[:, np.newaxis]
    return np.where(mask, resid, 0.0), int(np.count_nonzero(mask))


def backward(
    net: Network, trace: ForwardTrace, delta: np.ndarray, mode: str = "paper"
) -> list[np.ndarray]:
    """Per-layer weight gradients of the squared delay error over a batch.

    ``delta`` is the ``(batch, output_size)`` output residual, usually from
    :func:`output_residual`; a zero entry sends no update to that neuron's
    synapses for that sample.  Returns one gradient per weight matrix,
    summed over the batch, each a freshly allocated array.
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
    grads = [None] * depth
    if mode == "exact":  # the special ReLU's derivative, 0 at the kink
        delta = delta * (nets[-1] > 0)
    for l in reversed(range(depth)):
        fan_in = net.layer_sizes[l]
        w = net.weights[l]
        product = _matrix_product(batch, w)
        g = product(delays[l].T, delta)
        g /= fan_in
        grads[l] = g
        if l > 0:
            delta = product(delta, w.T)
            if mode == "exact":
                delta = delta / fan_in * (nets[l - 1] > 0)
    return grads


def _warn_if_collapsed(trace: ForwardTrace, epoch: int):
    """Warn when a layer's every pre-activation in ``trace`` is clipped to zero."""
    clipped = [l + 1 for l, z in enumerate(trace.nets) if not z.max() > 0.0]
    if clipped:
        log.warning(
            "epoch %d: every pre-activation of layer(s) %s in the last batch is <= 0, "
            "so the special ReLU clips the whole layer; the run has likely collapsed",
            epoch, ", ".join(map(str, clipped)),
        )


@np.errstate(over="ignore", invalid="ignore")
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
    loss is active).  ``eval_data`` adds a per-epoch test accuracy, classified
    by ``metrics.predict`` (the path ``evaluate`` takes).  Fully
    deterministic for a fixed config seed (or caller-supplied generator).
    Each batch allocates its own trace and gradients, which are scaled and
    subtracted from the weights in place.

    Logs one warning at the end when every pre-activation of a layer in the
    last batch is <= 0: the special ReLU then clips the whole layer, and a
    run that "finishes" this way has collapsed.

    Raises :class:`DivergenceError`, naming the epoch and batch, as soon as
    the epoch's running squared error or a batch's output delays (training
    or evaluation) stop being finite; numpy's overflow warnings on the way
    there are silenced.
    Before the first epoch, and so before any weight moves, it raises
    :class:`ConfigError` for the heuristic loss without one output neuron
    per class; then, for the training set and then the evaluation set, the
    errors of ``metrics._check_set`` (readout size, empty set, width,
    labels) and :class:`DataError` for a non-finite delay.
    """
    if cfg.heuristic and scheme.mode != "multi_neuron":
        raise ConfigError("the heuristic loss requires one output neuron per class")
    for name, ds in (("training", data), ("evaluation", eval_data)):
        if ds is not None:
            _check_set(net, ds, scheme, name)
            if not np.isfinite(ds.delays).all():
                raise DataError(f"{name} delays must be finite")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    labels = data.labels
    targets = target_matrix(scheme)[labels]
    history: list[EpochStats] = []
    n = len(data)
    heuristic, mode = cfg.heuristic, cfg.gradient_mode
    gated = cfg.update_gate == "on_misclassification"
    mean = cfg.batch_reduction == "mean"

    try:
        for epoch in range(1, cfg.epochs + 1):
            squared_sum = 0.0
            term_count = 0
            hit_count = 0
            # one seeded shuffle per epoch, cut into contiguous batches; labels
            # and targets are gathered once per epoch and sliced, while the
            # delays keep a per-batch row gather so that no copy of the whole
            # input matrix adds to peak memory
            order = rng.permutation(n)
            epoch_labels, epoch_targets = labels[order], targets[order]
            for batch, start in enumerate(range(0, n, cfg.batch_size), 1):
                rows = slice(start, start + cfg.batch_size)
                # free the last batch's trace and gradients before this batch
                # allocates: held over, they add a weight matrix to peak memory
                trace = grads = None
                trace = forward_batch(net, data.delays[order[rows]])
                outputs = trace.outputs
                batch_labels = epoch_labels[rows]
                resid, terms = output_residual(
                    outputs, epoch_targets[rows], batch_labels, heuristic
                )
                squared_sum += float((resid * resid).sum())
                if not math.isfinite(squared_sum):
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, batch {batch}: "
                        f"squared error is non-finite"
                    )
                term_count += terms
                hits = read_class_batch(scheme, outputs) == batch_labels
                hit_count += int(np.count_nonzero(hits))

                if gated:
                    resid = np.where(hits[:, np.newaxis], 0.0, resid)
                grads = backward(net, trace, resid, mode=mode)
                scale = cfg.learning_rate / len(batch_labels) if mean else cfg.learning_rate
                for w, g in zip(net.weights, grads):
                    g *= scale
                    w -= g

            mse = squared_sum / term_count  # finite: term_count >= 1
            test_accuracy = None
            if eval_data is not None:
                predictions = predict(net, eval_data, scheme)
                correct = int(np.count_nonzero(predictions == eval_data.labels))
                test_accuracy = correct / len(eval_data)
            stats = EpochStats(epoch=epoch, mse=mse, train_accuracy=hit_count / n,
                               test_accuracy=test_accuracy)
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
    except EvaluationError as exc:  # non-finite output delays, training or evaluation
        raise DivergenceError(
            f"training diverged at epoch {epoch}, batch {batch}: {exc}"
        ) from exc
    if history:  # at least one batch ran, so trace holds the last one
        _warn_if_collapsed(trace, cfg.epochs)
    return net, history
