"""Temporal error backpropagation, the heuristic loss, and batch training.

Everything is batch-major, one row per sample.  The learning signal is the
per-neuron delay residual ``actual - target`` (:func:`output_residual`);
:func:`backward` turns it into weight gradients in one of two modes:

* ``paper`` — hidden deltas are plain weighted sums of downstream deltas,
  also through clipped neurons: layer ``l``'s gradient is the
  straight-through one (Bengio et al. 2013; the special ReLU's derivative
  taken as 1) times ``prod(layer_sizes[l + 1:-1])``, the fan-ins after it,
  so 500x for W0 of 169-500-10 and 1x for W1.  Default for training.
* ``exact`` — the strict chain rule, including the fan-in average and the
  special ReLU's derivative (0 at and below the kink) at every layer.
  This is the mode the finite-difference check validates.

``TrainConfig.numerics`` picks the arithmetic.  ``exact64`` (the default)
trains the float64 weights in place, byte for byte as the reference trainer
in the tests does.  ``fast`` (paper mode only) trains float32 working
weights, and float32 weights, in every module, are this working form ``V_l
= fl32(W_l / n_l)`` (``n_l`` the fan-in, ``network._prescaled``), which
``network._forward32``, the one float32 layer rule, runs for both
``forward_batch`` and ``metrics``' float32 sweep, dividing nothing.
:func:`backward` forms each paper gradient in V-space, the W-space one
divided by ``n_l`` (the step that moves ``V_l`` as the W-space step moves
``W_l``), right to left: ``((d_lᵀ Δ) · Π_{k>l} n_k / n_l²) · V_Lᵀ ⋯
V_{l+1}ᵀ`` (``d_l`` layer ``l``'s input delays, ``Δ`` the output residual),
as paper mode's linearity allows.  The chain of transposed weights has
``output_size`` rows, so for 169-500-10 at 32 rows this takes about a third
of the multiply-adds, and the scalar and the step's scale cover ``n_l x
output_size`` entries instead of a whole weight matrix.  At every epoch's
end ``W_l = float64(V_l) · n_l``, computed in float64, is written back
(``network._write_back``); the product needs 24 + log2(n_l) of float64's 53
bits, so it is exact, and prescaling it again gives back ``V_l`` bit for bit.

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
from .metrics import _check_set, _output_bounds, predict
from .network import (ForwardTrace, Network, _float32_copy, _matrix_product, _write_back,
                      forward_batch)
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
_NUMERICS = ("exact64", "fast")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``batch_reduction`` picks how per-sample gradients combine within a
    batch before the weight step: ``sum`` applies the per-sample rule
    literally, ``mean`` divides by the batch size.  At a fixed learning
    rate the sum variant takes steps ``batch_size`` times larger, which
    destabilises deeper networks; the multilayer presets therefore use
    ``mean`` while single-layer ones keep ``sum``.

    ``numerics`` is ``exact64`` or ``fast`` (float32 working weights, see
    the module docstring); ``fast`` needs the ``paper`` gradient mode.
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
    numerics: str = "exact64"

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
        if self.numerics not in _NUMERICS:
            raise ConfigError(f"unknown numerics {self.numerics!r}")
        if self.numerics == "fast" and self.gradient_mode != "paper":
            raise ConfigError("numerics 'fast' needs the 'paper' gradient mode")


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
    summed over the batch, each a freshly allocated array in the dtype of
    the weights, the trace and ``delta`` (all float64, or all float32).

    The weights' dtype alone picks the rule.  Float64 weights propagate the
    deltas left to right, layer by layer.  Float32 weights are the working
    form ``V`` of the module docstring, whose V-space gradients are formed
    right to left; their trace keeps no pre-activations, so with
    ``mode="exact"`` they raise :class:`ConfigError`, as ``TrainConfig``
    does for ``numerics="fast"``.
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
    # 4-byte weights are float32 (a Network widens to float64); an itemsize
    # reads faster than a dtype compare on the default path's small batches
    if net.weights[0].itemsize == 4:
        if mode != "paper":
            raise ConfigError("float32 working weights need the 'paper' gradient mode")
        chain = None  # V_Lᵀ ⋯ V_{l+1}ᵀ, (output_size, layer_sizes[l + 1])
        fan_ins = 1  # Π_{k>l} n_k
        for l in reversed(range(depth)):
            n = net.layer_sizes[l]
            g = delays[l].T @ delta
            g *= fan_ins / (n * n)
            grads[l] = g if chain is None else g @ chain
            if l > 0:
                v = net.weights[l].T  # the first factor contiguous: a faster product
                chain = np.ascontiguousarray(v) if chain is None else chain @ v
                fan_ins *= n
        return grads
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


def _warn_if_collapsed(trace: ForwardTrace, window: float, epoch: int):
    """Warn when a layer's every delay in ``trace`` is the ``window``: its every
    pre-activation is clipped to zero (or too small to move the window)."""
    clipped = [l for l, x in enumerate(trace.delays[1:], 1) if not x.max() > window]
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
    subtracted from the weights in place.  Under ``cfg.numerics == "fast"``
    those weights are the working form ``V`` of the module docstring, made
    at the start of the call and written back into ``net.weights`` at each
    epoch's end, before that epoch's evaluation; the step's scale then
    multiplies the residual before :func:`backward` instead of the gradients
    after it.  A call of ``k`` epochs thus writes the bytes of ``k``
    one-epoch calls.

    Logs one warning at the end when every delay of a layer in the last
    batch is the window, every pre-activation <= 0 (or too small to move
    the window): the special ReLU then clips the whole layer, and a run
    that "finishes" this way has collapsed.

    Raises :class:`DivergenceError`, naming the epoch and batch, as soon as
    the epoch's running squared error or a batch's output delays (training
    or evaluation) stop being finite; under ``fast`` also, naming the epoch,
    when a working weight has left float32's range by the epoch's end.
    Under ``fast``, ``net.weights`` then hold the last completed epoch.
    numpy's overflow warnings on the way there are silenced.
    Before the first epoch, and so before any weight moves, it raises
    :class:`ConfigError` for the heuristic loss without one output neuron
    per class; then, for the training set and then the evaluation set, the
    errors of ``metrics._check_set`` (readout size, empty set, width,
    labels) and :class:`DataError` for a non-finite delay; then, under
    ``fast``, :class:`ConfigError` naming the first weight matrix that
    ``metrics._output_bounds`` cannot certify over the training delays.
    """
    if cfg.heuristic and scheme.mode != "multi_neuron":
        raise ConfigError("the heuristic loss requires one output neuron per class")
    for name, ds in (("training", data), ("evaluation", eval_data)):
        if ds is not None:
            _check_set(net, ds, scheme, name)
            # bool and integer delays cannot hold a non-finite value
            if ds.delays.dtype.kind == "f" and not np.isfinite(ds.delays).all():
                raise DataError(f"{name} delays must be finite")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    labels = data.labels
    table = target_matrix(scheme)
    fast = cfg.numerics == "fast"
    work = net  # the network the batches step
    if fast:
        bounds = _output_bounds(net, data.delays)
        if isinstance(bounds, int):
            raise ConfigError(
                f"numerics 'fast' cannot hold weight matrix {bounds}: its float32 values "
                f"over the training delays are not certain to stay within float32's range "
                f"(about 3.4e38); use 'exact64'"
            )
        work = _float32_copy(net)
        table = table.astype(np.float32)
    targets = table[labels]
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
                trace = forward_batch(work, data.delays[order[rows]])
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
                scale = cfg.learning_rate / len(batch_labels) if mean else cfg.learning_rate
                grads = backward(work, trace, resid * scale if fast else resid, mode=mode)
                for w, g in zip(work.weights, grads):
                    if not fast:
                        g *= scale
                    w -= g

            if fast:
                if not all(np.isfinite(w).all() for w in work.weights):
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}: a weight left float32's range"
                    )
                _write_back(work, net)
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
        _warn_if_collapsed(trace, net.window, cfg.epochs)
    return net, history
