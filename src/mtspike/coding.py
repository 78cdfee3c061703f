"""Single-spike temporal coding of numeric attributes and grayscale images.

Every input neuron emits at most one spike; the stimulus is carried by the
spike's delay on a grid of ``resolution`` slots of width ``unit`` spanning the
encoding window.  Strong stimuli fire early (delay 0), weak stimuli late
(delay up to the full window).  Three encoders are provided, each taking a
whole dataset at once and returning ``(delays, fired)``: an (N, M) delay
matrix and an (N, M) bool mask, one row per sample.  An image encoder
writes uint8 delays when every entry of its float64 delay table (the
``kernel**2 + 1`` conv delays, or the 256 delays of a byte stack's pixel
values) keeps its bytes through ``astype(np.uint8).astype(np.float64)``, as
under every preset; otherwise, and for numeric coding, float64.  Either
way ``delays.astype(np.float64)`` holds the delay formula's float64 bytes.

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
Conv-like coding transposes each binarized block so the image index is
innermost and sums its windows contiguously over the block's images; an
integer stack is binarized by an integer compare with the threshold's
ceiling.
One-to-one coding computes the delays of the 256 byte values once; a uint8
stack whose delays all fit in bytes maps each block through them with
``bytes.translate``, and other stacks run the delay formula on each block.
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
    kernel grid that runs past the image; the grid never does (its last
    position ends at ``(positions - 1) * stride + kernel``, within the
    image), so ``"zero"`` is recorded in model files only.
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
    shape = (n, images.shape[1] * images.shape[2])
    fired = np.empty(shape, dtype=bool)
    table = np.arange(256, dtype=np.float64)  # the delay of each byte value
    _pixel_delays(table, np.empty(table.shape, dtype=bool), p, p_max)
    table = _narrowed(table)
    if images.dtype == np.uint8 and table.dtype == np.uint8:
        # bytes.translate maps bytes in C; np.take would widen each to intp
        table = table.tobytes()
        delays = np.empty(shape, dtype=np.uint8)
        for rows in _blocks(n):
            raw = images[rows].tobytes()
            out = delays[rows]
            out[...] = np.frombuffer(raw.translate(table), np.uint8).reshape(out.shape)
            np.greater(np.frombuffer(raw, np.uint8).reshape(out.shape), 0, out=fired[rows])
        return delays, fired
    delays = np.empty(shape, dtype=np.float64)
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

    Counts are separable window sums of each binarized block, laid out
    ``(P, P, images)`` so the image index is innermost: the kernel's rows,
    taken at the stride, add into strips, and the strips' columns into
    counts, each add one contiguous pass over the block's images.  Counts
    are integers of the smallest type that holds ``kernel**2``, so they are
    exact.  An integer stack is compared with ``ceil(binarize_threshold)``,
    which picks the same pixels without casting them to float.
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
    threshold = p.binarize_threshold
    # For an integer x, x >= t exactly when x >= ceil(t), and the integer
    # compare skips a float64 cast of every pixel.  A threshold past the
    # dtype's maximum keeps the float compare, under which no pixel binarizes.
    if images.dtype.kind in "ui" and threshold <= np.iinfo(images.dtype).max:
        threshold = math.ceil(threshold)
    # the delay of each count of ones; a byte table has a whole-number unit,
    # so the counts' integer product with it is exact
    table = _narrowed(p.unit * (k * k - np.arange(k * k + 1)))
    unit = int(p.unit) if table.dtype == np.uint8 else p.unit
    delays = np.empty((n, positions * positions), dtype=table.dtype)
    for rows in _blocks(n):
        ones = images[rows] >= threshold
        m = len(ones)
        # (side, side, m): every add below runs contiguously over the images
        cells = np.ascontiguousarray(ones.view(np.uint8).transpose(1, 2, 0))
        strips = np.zeros((positions, side, m), dtype=count)
        for r in range(k):
            strips += cells[r:r + span:stride]
        counts = np.zeros((positions, positions, m), dtype=count)
        for c in range(k):
            counts += strips[:, c:c + span:stride]
        np.subtract(k * k, counts, out=counts)
        np.multiply(unit, counts.transpose(2, 0, 1),
                    out=delays[rows].reshape(m, positions, positions))
    return delays, np.ones(delays.shape, dtype=bool)


def _narrowed(table: np.ndarray) -> np.ndarray:
    """The float64 delay ``table`` as uint8 when that keeps every entry's
    bytes, else ``table`` itself."""
    with np.errstate(invalid="ignore"):  # an inf or huge entry casts to junk: no match
        narrow = table.astype(np.uint8)
    return narrow if narrow.astype(np.float64).tobytes() == table.tobytes() else table


def _neuron_count(image_width: int, kernel: int, stride: int) -> int:
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


def _blocks(n: int):
    """Row slices covering ``range(n)`` in steps of ``_BLOCK`` rows."""
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


def _square_images(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise DataError(
            f"expected a stack of square 2-D images (N, P, P), got shape {images.shape}"
        )
    return images
