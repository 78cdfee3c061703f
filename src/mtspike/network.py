"""Dense layered propagation of spike delays via the average delay response rule.

Each neuron's output delay is the fan-in-averaged, weight-scaled mean of its
pre-synaptic delays, passed through a "special ReLU": delays stay
non-negative and an earlier spike means a stronger response.  There is no
membrane voltage and no thresholding; layers exchange plain delay values,
which is what makes the model differentiable end to end.  Propagation is
batch-major only: :func:`forward_batch` takes a ``(batch, input_size)``
delay matrix, and a single sample is a one-row matrix.

A network may carry a response ``window``: each non-input layer then fires
that many time units after the pure average-delay term, modelling neurons
that integrate over one coding window and respond in the next.  With a
window of ``T`` every spike time downstream of the input sits at or after
``T``, which is what lets output targets such as ``T + k`` be reached
exactly even though the averaging rule itself has no constant term.  A
window of 0 gives the plain rule.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StructureError

__all__ = [
    "Network",
    "ForwardTrace",
    "init_network",
    "forward_batch",
]


@dataclass
class Network:
    """Ordered dense weight matrices between consecutive layers.

    ``weights[l][i, j]`` connects pre-synaptic neuron ``i`` of layer ``l`` to
    post-synaptic neuron ``j`` of layer ``l + 1``; matrix ``l`` therefore has
    shape ``(layer_sizes[l], layer_sizes[l + 1])``.

    ``window`` is the per-layer response offset described in the module
    docstring; it is part of the model (persisted alongside the weights)
    because the same weights produce different spike times under a
    different window.  ``activation`` names the neuron rule for the model
    header; the special ReLU is the only one.

    Layer sizes are integers (Python or numpy, not bool) and weights are
    stored as float64, whatever the dtype given.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    activation: str = "special_relu"
    window: float = 0.0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise StructureError("a network needs at least an input and an output layer")
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer))
               for s in self.layer_sizes):
            raise StructureError(f"layer sizes must be integers, got {self.layer_sizes!r}")
        if any(s < 1 for s in self.layer_sizes):
            raise StructureError("every layer must contain at least one neuron")
        self.layer_sizes = [int(s) for s in self.layer_sizes]
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise StructureError(
                f"expected {len(self.layer_sizes) - 1} weight matrices, "
                f"got {len(self.weights)}"
            )
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        for l, w in enumerate(self.weights):
            want = (self.layer_sizes[l], self.layer_sizes[l + 1])
            if w.shape != want:
                raise StructureError(
                    f"weight matrix {l} has shape {w.shape}, expected {want}"
                )
            if not np.all(np.isfinite(w)):
                raise StructureError(f"weight matrix {l} contains non-finite values")
        if self.activation != "special_relu":
            raise StructureError(f"unknown activation {self.activation!r}")
        self.window = float(self.window)
        if not np.isfinite(self.window) or self.window < 0:
            raise StructureError(f"window must be finite and >= 0, got {self.window}")


def _weight_count(layer_sizes) -> int:
    """Number of synapses of a dense network with these layer sizes."""
    return sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def init_network(
    layer_sizes: list[int],
    rng: np.random.Generator,
    init_range: tuple[float, float] = (0.0, 1.0),
    window: float = 0.0,
) -> Network:
    """Build a network with uniformly random weights drawn from ``init_range``;
    ``ConfigError`` names the layer sizes when the weights cannot be allocated."""
    low, high = init_range
    try:
        weights = [
            rng.uniform(low, high, size=(layer_sizes[l], layer_sizes[l + 1]))
            for l in range(len(layer_sizes) - 1)
        ]
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate the weights of layers {list(layer_sizes)}") from exc
    return Network(layer_sizes=list(layer_sizes), weights=weights, window=window)


@dataclass
class ForwardTrace:
    """All intermediate values of one forward pass over a batch.

    ``delays[0]`` is the ``(batch, input_size)`` input matrix; ``delays[l]``
    for ``l >= 1`` is the activated output of layer ``l`` and ``nets[l - 1]``
    its pre-activation average, each ``(batch, layer_sizes[l])``.  A float32
    trace, of the working weights ``V`` of ``learning``'s module docstring,
    activates in place, so its ``nets[l - 1]`` is ``delays[l]``: only
    ``learning.backward``'s exact mode reads pre-activations, and exact mode
    is float64-only.
    """

    nets: list[np.ndarray] = field(default_factory=list)
    delays: list[np.ndarray] = field(default_factory=list)

    @property
    def outputs(self) -> np.ndarray:
        return self.delays[-1]


# Most multiply-adds (rows x fan-in x fan-out) of a layer product that runs
# through np.dot instead of ``@``.  np.dot reaches the same BLAS routine with
# ~0.5 us less dispatch, most of a 4-25-1 product's time; on the 32-row
# 169-500-10 products of ``learning.backward`` it ran up to ~20% slower than
# ``@`` (one BLAS thread, numpy 2.4.6).  The presets sit far from the bound:
# at most 3,000 per product for 30-row iris batches, at least 160,000 for
# 32-row digit batches.
DOT_MAX_MADDS = 50_000


def _matrix_product(rows: int, w: np.ndarray):
    """np.dot or np.matmul (``@``) for the products of ``w``'s layer over ``rows`` rows.

    np.dot only for a small product of more than one row.  It gives the
    bytes of ``@`` except that it multiplies a 1x1 by a 1x1 operand
    directly, keeping a -0.0 that ``@`` sums to +0.0, and that over a
    contracted length of 1 it keeps the sign of a product that underflows
    to zero.
    """
    return np.dot if 1 < rows and rows * w.size <= DOT_MAX_MADDS else np.matmul


def forward_batch(net: Network, delay_matrix: np.ndarray) -> ForwardTrace:
    """Propagate a ``(batch, input_size)`` delay matrix through every layer.

    Every call allocates its own arrays per layer.  It computes in the dtype
    of ``net.weights``, and every array of the returned trace has that
    dtype, ``delays[0]`` (the input matrix) included.  Float64 weights, those
    of any :class:`Network`, take ``z = a W / n`` and keep ``z`` apart from
    the activated ``max(z, 0) + window``.  Float32 weights are the working
    form ``V`` of ``learning``'s module docstring, which :func:`_forward32`
    runs, so the trace's ``nets`` alias its ``delays``.
    """
    x = np.asarray(delay_matrix, dtype=net.weights[0].dtype)
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise StructureError(
            f"expected a (batch, {net.layer_sizes[0]}) delay matrix, "
            f"got shape {x.shape}"
        )
    if x.itemsize == 4:  # prescaled float32 (see backward's same test)
        layers = _forward32(net.weights, net.window, x)
        return ForwardTrace(nets=layers, delays=[x, *layers])
    nets: list[np.ndarray] = []
    delays = [x]
    for w in net.weights:
        z = _matrix_product(x.shape[0], w)(x, w)
        # the special ReLU, never in z's buffer: backward's exact mode reads
        # z as the pre-activation
        z /= w.shape[0]
        x = np.maximum(z, 0.0)
        x += net.window
        nets.append(z)
        delays.append(x)
    return ForwardTrace(nets=nets, delays=delays)


def _prescaled(net: Network) -> list[np.ndarray]:
    """The float32 working weights ``V = fl32(W / n)`` of ``net`` (see
    ``learning``'s module docstring)."""
    return [(w / w.shape[0]).astype(np.float32) for w in net.weights]


def _float32_copy(net: Network) -> Network:
    """``net`` with its working weights :func:`_prescaled`, which
    ``Network()`` would widen."""
    work = copy.copy(net)
    work.weights = _prescaled(net)
    return work


def _write_back(work: Network, net: Network):
    """Write ``work``'s working weights ``V`` into ``net``'s float64 ones,
    exactly, as ``W = float64(V) n`` (see ``learning``'s module docstring)."""
    for w, v in zip(net.weights, work.weights):
        np.multiply(v, w.shape[0], out=w, dtype=np.float64)


def _forward32(weights: list[np.ndarray], window: float, x: np.ndarray,
               outs: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Every layer's float32 outputs for the rows ``x``, of any real dtype,
    through the working weights ``weights``: per layer ``z = a V``, then
    ``max(z, 0) + window`` in ``z``'s buffer, ``outs[l]`` when given.  The
    one float32 layer rule: ``forward_batch`` and ``metrics``' sweep both
    run it."""
    layers = []
    for l, v in enumerate(weights):
        x = np.matmul(x, v, out=None if outs is None else outs[l], dtype=np.float32)
        np.maximum(x, 0, out=x)
        x += window
        layers.append(x)
    return layers
