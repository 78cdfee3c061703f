"""Per-sample reference encoders: the batch encoders must match them bit for bit.

These are the original one-image-at-a-time encoders, kept unchanged except
for imports, plus the loop that stacked their outputs into a dataset.  They
are slow and exist only so that tests can compare the batch encoders in
``mtspike.coding`` against them.  ``_neuron_count``, the conv grid's size
that no package code needs, backs the geometry tests.
"""

import math

import numpy as np

from mtspike.coding import CodingParams, DelayVector
from mtspike.errors import ConfigError, DataError


def encode_each(encoder, samples, *args):
    """Encode ``samples`` one at a time and stack the rows into (N, M) arrays."""
    vectors = [encoder(x, *args) for x in samples]
    delays = np.stack([v.delays for v in vectors])
    fired = np.stack([v.fired for v in vectors])
    return delays, fired


def encode_numeric(
    values: np.ndarray,
    per_attribute_min_max: np.ndarray,
    p: CodingParams,
) -> DelayVector:
    values = np.asarray(values, dtype=np.float64)
    ranges = np.asarray(per_attribute_min_max, dtype=np.float64)
    if ranges.shape != (values.shape[0], 2):
        raise ConfigError(
            f"expected {values.shape[0]}x2 min/max ranges, got shape {ranges.shape}"
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
    return DelayVector(delays=delays, fired=np.ones(values.shape[0], dtype=bool))


def encode_pixels_1to1(
    image: np.ndarray, p: CodingParams, p_max: float = 255.0
) -> DelayVector:
    if p_max <= 0:
        raise ConfigError("p_max must be positive")
    grid = _square_image(image)
    flat = grid.reshape(-1)
    fired = flat > 0
    delays = p.unit * np.round(p.resolution * (1.0 - flat / p_max))
    delays = np.clip(delays, 0.0, p.window)
    delays[~fired] = p.window
    return DelayVector(delays=delays, fired=fired)


def encode_conv_like(image: np.ndarray, p: CodingParams) -> DelayVector:
    if p.kernel is None:
        raise ConfigError("conv-like coding requires a kernel width")
    grid = _square_image(image)
    side = grid.shape[0]
    k, stride = p.kernel, p.stride
    if k > side:
        raise ConfigError(f"kernel width {k} exceeds image width {side}")
    positions = math.ceil((side - k + 1) / stride)
    binary = (grid >= p.binarize_threshold).astype(np.int64)
    extent = (positions - 1) * stride + k
    if extent > side:
        padded = np.zeros((extent, extent), dtype=np.int64)
        padded[:side, :side] = binary
        binary = padded
    windows = np.lib.stride_tricks.sliding_window_view(binary, (k, k))
    ones = windows[::stride, ::stride].sum(axis=(2, 3))
    zeros = k * k - ones[:positions, :positions]
    delays = (p.unit * zeros).reshape(-1).astype(np.float64)
    return DelayVector(delays=delays, fired=np.ones(delays.shape[0], dtype=bool))


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
    return math.ceil((image_width - kernel + 1) / stride) ** 2


def _square_image(image: np.ndarray) -> np.ndarray:
    grid = np.asarray(image, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise DataError(f"expected a square 2-D image, got shape {grid.shape}")
    return grid
