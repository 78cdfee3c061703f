"""Single-spike temporal coding of numeric attributes and grayscale images.

Every input neuron emits at most one spike; the stimulus is carried by the
spike's delay on a grid of ``resolution`` slots of width ``unit`` spanning the
encoding window.  Strong stimuli fire early (delay 0), weak stimuli late
(delay up to the full window).  Three encoders are provided, each taking a
whole dataset at once and returning ``(delays, fired)``: an (N, M) float64
delay matrix and an (N, M) bool mask, one row per sample.

* :func:`encode_numeric` — (N, F) attribute rows, one neuron per attribute,
  delay inversely proportional to the min/max-normalized value.
* :func:`encode_pixels_1to1` — (N, P, P) images, one neuron per pixel, delay
  inversely proportional to intensity; an exactly-zero pixel emits no spike.
* :func:`encode_conv_like` — (N, P, P) images, one neuron per kernel
  position of a sliding square receptive field; delay counts the binarized
  zeros inside the field.  Trades temporal resolution for a smaller input
  layer.

Image stacks are encoded in blocks of ``_BLOCK`` images written straight
into the preallocated output, so a stack is never copied whole into float64
and a block's temporaries (binarized pixels, small-integer window counts)
stay a few hundred kB: peak memory stays close to the size of the result.
One-to-one coding of a uint8 stack computes the delays of the 256 byte
values once and gathers them per pixel; other dtypes run the delay formula
on each block of pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "CodingParams",
    "DelayVector",
    "encode_numeric",
    "encode_pixels_1to1",
    "encode_conv_like",
    "neuron_count",
]

# Images per block.  The per-block overhead is a few numpy calls per kernel
# row and column, and the temporaries of a block of 28x28 images stay near
# 0.3 MB, so peak memory stays where encoding one image at a time had it.
_BLOCK = 256


@dataclass(frozen=True)
class CodingParams:
    """Parameters of the time-coding grid.

    ``resolution = window / unit`` must be a whole number of slots.  For
    conv-like coding the kernel must satisfy ``kernel**2 == resolution`` so
    that the zero-count inside one kernel position lands exactly on the slot
    grid (``unit * kernel**2 == window``).  ``pad`` names the policy for a
    kernel grid that runs past the image; the grid never does (see
    :func:`neuron_count`), so ``"zero"`` is recorded in model files only.
    """

    window: float = 16.0
    unit: float = 1.0
    kernel: int | None = None
    stride: int = 1
    binarize_threshold: float = 128.0
    pad: str = "zero"

    def __post_init__(self):
        if not (0 < self.window < math.inf and 0 < self.unit < math.inf):
            raise ConfigError("window and unit must be finite and positive")
        ratio = self.window / self.unit
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"window/unit must be a positive integer, got {ratio!r}"
            )
        if self.resolution > np.iinfo(np.intp).max // 8:
            raise ConfigError("window / unit is more delay slots than numpy can address")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.kernel is not None:
            if self.kernel < 1:
                raise ConfigError("kernel width must be >= 1")
            if self.kernel * self.kernel != self.resolution:
                raise ConfigError(
                    f"kernel**2 must equal the temporal resolution: "
                    f"{self.kernel}**2 != {self.resolution}"
                )
        if self.pad != "zero":
            raise ConfigError(f"unknown padding policy {self.pad!r}")
        # the images are bytes: above 255 no pixel would binarize and every
        # conv-coded image would become the same input
        if not 0 < self.binarize_threshold <= 255:
            raise ConfigError("binarize_threshold must lie in (0, 255]")

    @property
    def resolution(self) -> int:
        """Number of delay slots in the encoding window."""
        return round(self.window / self.unit)


@dataclass
class DelayVector:
    """Per-neuron spike delays for one layer and one sample.

    ``fired[i]`` is False when neuron ``i`` emitted no spike; the encoders
    store the full window delay in ``delays[i]`` for such entries (weakest
    possible stimulus) so downstream averaging keeps a fixed fan-in, while
    spike counting skips them.
    """

    delays: np.ndarray
    fired: np.ndarray

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=np.float64)
        self.fired = np.asarray(self.fired, dtype=bool)
        if self.delays.shape != self.fired.shape or self.delays.ndim != 1:
            raise DataError("delays and fired must be 1-D arrays of equal length")

    def __len__(self) -> int:
        return self.delays.shape[0]


def encode_numeric(
    values: np.ndarray,
    per_attribute_min_max: np.ndarray,
    p: CodingParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode (N, F) numeric rows as one spike delay per attribute.

    Each value is normalized against its attribute's ``(min, max)`` range and
    mapped to ``unit * round(resolution * (1 - normalized))``, clamped to the
    window.  Values outside the range (e.g. test samples encoded with ranges
    from a training split) clamp to the nearest window edge.  Every attribute
    fires.  Ties in the rounding follow numpy's round-half-to-even.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"expected (N, attributes) rows, got shape {values.shape}")
    ranges = np.asarray(per_attribute_min_max, dtype=np.float64)
    if ranges.shape != (values.shape[1], 2):
        raise ConfigError(
            f"expected {values.shape[1]}x2 min/max ranges, got shape {ranges.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise DataError("attribute values must be finite")
    lo, hi = ranges[:, 0], ranges[:, 1]
    if not np.all(hi > lo):
        bad = int(np.argmin(hi - lo))
        raise ConfigError(f"degenerate range for attribute {bad}: max must exceed min")
    normalized = (values - lo) / (hi - lo)
    delays = p.unit * np.round(p.resolution * (1.0 - normalized))
    delays = np.clip(delays, 0.0, p.window)
    return delays, np.ones(values.shape, dtype=bool)


def encode_pixels_1to1(
    images: np.ndarray, p: CodingParams, p_max: float = 255.0
) -> tuple[np.ndarray, np.ndarray]:
    """Encode (N, P, P) grayscale images, one neuron per pixel.

    Delay is ``unit * round(resolution * (1 - intensity / p_max))``; a pixel
    with intensity exactly zero emits no spike (its delay entry is set to the
    full window).  Pixels are emitted row-major, so each row of the output
    has one entry per pixel.  A ``p_max`` so small that ``intensity / p_max``
    overflows encodes those pixels at delay 0, the limit of the formula.
    """
    if not 0 < p_max < math.inf:
        raise ConfigError(f"p_max must be finite and positive, got {p_max!r}")
    images = _square_images(images)
    n = images.shape[0]
    delays = np.empty((n, images.shape[1] * images.shape[2]), dtype=np.float64)
    fired = np.empty(delays.shape, dtype=bool)
    if images.dtype == np.uint8:
        table = np.arange(256, dtype=np.float64)
        _pixel_delays(table, np.empty(table.shape, dtype=bool), p, p_max)
        # take copies the byte indices into intp, 8 bytes each: steps of an
        # eighth of a block keep that copy as small as a block's bool mask.
        # "clip" cannot move a byte index and, unlike "raise", writes
        # straight into ``out``.
        for rows in _blocks(n, _BLOCK // 8):
            out = delays[rows]
            block = images[rows].reshape(out.shape)
            np.take(table, block, out=out, mode="clip")
            np.greater(block, 0, out=fired[rows])
        return delays, fired
    for rows in _blocks(n):
        out = delays[rows]
        out[...] = images[rows].reshape(out.shape)
        _pixel_delays(out, fired[rows], p, p_max)
    return delays, fired


def _pixel_delays(out: np.ndarray, spiked: np.ndarray, p: CodingParams,
                  p_max: float) -> None:
    """Overwrite float64 intensities ``out`` with their one-to-one delays and
    ``spiked`` with ``out > 0``.  Every step is elementwise, so a value's
    delay does not depend on the array it sits in."""
    np.greater(out, 0, out=spiked)
    with np.errstate(over="ignore"):  # an overflow is ±inf: the clip takes it to an edge
        np.divide(out, p_max, out=out)
        np.subtract(1.0, out, out=out)
        np.multiply(p.resolution, out, out=out)
        np.round(out, out=out)
        np.multiply(p.unit, out, out=out)
    np.clip(out, 0.0, p.window, out=out)
    np.copyto(out, p.window, where=~spiked)


def encode_conv_like(
    images: np.ndarray, p: CodingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Encode (N, P, P) grayscale images with a sliding binarizing kernel.

    Pixels at or above ``binarize_threshold`` count as 1, the rest as 0.  For
    each kernel position the delay is ``unit`` times the number of 0s inside
    the kernel; since the kernel holds ``resolution`` cells, delays span the
    whole window.  Kernel positions start at the top-left corner and step by
    ``stride``; rows and columns past the last position that fits are
    ignored.  Every output neuron fires (an all-zero field simply fires at
    the full window delay).

    Counts are separable window sums of each binarized block: the kernel's
    rows, taken at the stride, add into strips, and the strips' columns into
    counts.  They are integers of the smallest type that holds ``kernel**2``,
    so they are exact.
    """
    if p.kernel is None:
        raise ConfigError("conv-like coding requires a kernel width")
    images = _square_images(images)
    n, side = images.shape[0], images.shape[1]
    k, stride = p.kernel, p.stride
    if k > side:
        raise ConfigError(f"kernel width {k} exceeds image width {side}")
    positions = _grid_positions(side, k, stride)
    span = (positions - 1) * stride + 1
    count = np.min_scalar_type(k * k)
    delays = np.empty((n, positions * positions), dtype=np.float64)
    for rows in _blocks(n):
        ones = images[rows] >= p.binarize_threshold
        strips = np.zeros((len(ones), positions, side), dtype=count)
        for r in range(k):
            strips += ones[:, r:r + span:stride]
        counts = np.zeros((len(ones), positions, positions), dtype=count)
        for c in range(k):
            counts += strips[:, :, c:c + span:stride]
        np.subtract(k * k, counts, out=counts)
        np.multiply(p.unit, counts.reshape(len(counts), -1), out=delays[rows])
    return delays, np.ones(delays.shape, dtype=bool)


def neuron_count(image_width: int, kernel: int, stride: int) -> int:
    """Number of input neurons produced by conv-like coding.

    ``ceil((P - k + 1) / S) ** 2`` kernel positions for a P-wide image.  The
    last position ends at ``(positions - 1) * S + k <= P``, so the kernel
    grid never runs past the image.
    """
    if kernel < 1 or kernel > image_width:
        raise ConfigError(
            f"kernel width must be in [1, {image_width}], got {kernel}"
        )
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    return _grid_positions(image_width, kernel, stride) ** 2


def _grid_positions(side: int, kernel: int, stride: int) -> int:
    return math.ceil((side - kernel + 1) / stride)


def _blocks(n: int, step: int = _BLOCK):
    """Row slices covering ``range(n)`` in steps of ``step`` rows."""
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _square_images(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise DataError(
            f"expected a stack of square 2-D images (N, P, P), got shape {images.shape}"
        )
    return images
