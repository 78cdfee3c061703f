"""Dataset loading, stratified splitting, and whole-dataset encoding.

Two on-disk formats are supported: the classic 5-column iris CSV (four
numeric attributes plus a class label, header optional) and IDX image/label
files as distributed for MNIST (big-endian, optionally gzipped).  Loaded
data lands in a :class:`RawDataset`; :func:`encode_dataset` turns all of it
into an (N, M) spike-delay matrix with one call to the batch encoder its
:class:`EncodingSpec` names.  The spec also knows how to snapshot itself into
a model file so evaluation reuses the exact training encoding.
"""

from __future__ import annotations

import dataclasses
import gzip
import logging
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .coding import (
    CodingParams,
    _encode_conv_like,
    _encode_numeric,
    _encode_pixels_1to1,
)
from .errors import ConfigError, DataError, _reported
from .schema import from_json

__all__ = [
    "SCHEMES",
    "RawDataset",
    "EncodedDataset",
    "EncodingSpec",
    "load_iris",
    "load_mnist_idx",
    "save_mnist_idx",
    "encode_dataset",
]

log = logging.getLogger(__name__)

SCHEMES = ("numeric", "one_to_one", "conv")

# IDX file kinds: the magic number and the rank (count of uint32 dimensions)
_IDX = {"image": (2051, 3), "label": (2049, 1)}


def _as_array(values) -> np.ndarray:
    """``values`` as an array; a ragged nested list raises ``DataError``."""
    try:
        return np.asarray(values)
    except ValueError as exc:
        raise DataError(f"not a rectangular array: {exc}") from exc


def _checked_labels(labels) -> np.ndarray:
    """``labels`` as an array, if it is 1-D and holds non-negative integers."""
    labels = _as_array(labels)
    if labels.size == 0:
        labels = labels.astype(np.int64)  # an empty list carries no dtype
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise DataError("labels must be a 1-D integer array")
    if labels.size and labels.min() < 0:
        raise DataError("labels must be non-negative")
    return labels


@dataclass
class RawDataset:
    """Unencoded samples: numeric rows (N, F) or grayscale images (N, H, W).

    Nested lists are taken as arrays; any other shape, and labels that are
    not 1-D non-negative integers, raise ``DataError``.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = _as_array(self.features)
        if self.features.ndim not in (2, 3):
            raise DataError(
                f"expected (N, F) rows or (N, H, W) images, got shape {self.features.shape}"
            )
        self.labels = _checked_labels(self.labels).astype(np.int64, copy=False)
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.features.shape[0]} samples but {self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass
class EncodedDataset:
    """Spike-delay matrix (N, M) plus fired mask and labels.

    Delays are a 2-D bool, integer or float matrix with a fired mask of the
    same shape, and labels a 1-D array of non-negative integers, one per
    row; anything else raises ``DataError``.  Nested lists are taken as
    arrays.  The image encoders write uint8 delays when their coding's
    delays are whole numbers 0-255, float64 otherwise; training, evaluation
    and the SRM neurons read either as the same float64.  Delay values are
    not checked here, so encoding stays cheap:
    ``learning.train`` rejects non-finite ones.
    """

    delays: np.ndarray
    fired: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.delays, self.fired = _as_array(self.delays), _as_array(self.fired)
        if self.delays.ndim != 2:
            raise DataError(
                f"expected an (N, M) delay matrix, got shape {self.delays.shape}"
            )
        if self.delays.dtype.kind not in "biuf":
            raise DataError(f"delays must be real numbers, got dtype {self.delays.dtype}")
        if self.delays.shape != self.fired.shape:
            raise DataError("delay and fired matrices must have the same shape")
        self.labels = _checked_labels(self.labels)
        if self.delays.shape[0] != self.labels.shape[0]:
            raise DataError("sample count mismatch between delays and labels")

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class EncodingSpec:
    """A coding scheme plus everything needed to reproduce it later.

    ``ranges`` (per-attribute min/max, shape (F, 2)) is required for numeric
    coding and is normally fitted on the training split, so test values
    outside the seen range clamp to the window edges.  ``p_max`` is the
    intensity ceiling for one-to-one pixel coding, finite and positive.
    """

    scheme: str
    params: CodingParams = field(default_factory=CodingParams)
    ranges: np.ndarray | None = None
    p_max: float = 255.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown coding scheme {self.scheme!r}")
        if self.scheme == "conv" and self.params.kernel is None:
            raise ConfigError("conv coding requires a kernel width")
        if not 0 < self.p_max < math.inf:
            raise ConfigError(f"p_max must be finite and positive, got {self.p_max!r}")
        if self.ranges is not None:
            ranges = np.asarray(self.ranges, dtype=np.float64)
            if ranges.ndim != 2 or ranges.shape[1] != 2:
                raise ConfigError(
                    f"ranges must have shape (attributes, 2), got {ranges.shape}"
                )
            object.__setattr__(self, "ranges", ranges)

    def to_dict(self) -> dict:
        """The JSON block a model header stores; :meth:`from_dict` reads it back."""
        return {
            "scheme": self.scheme,
            **dataclasses.asdict(self.params),
            "p_max": self.p_max,
            "ranges": None if self.ranges is None else self.ranges.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, snapshot: bool = True) -> "EncodingSpec":
        """Inverse of :meth:`to_dict`, or with ``snapshot=False`` a run config's
        block, which may leave fields at their defaults and has no ``ranges``."""
        own = ("scheme", "p_max", "ranges") if snapshot else ("scheme", "p_max")
        rest = {k: v for k, v in d.items() if k not in own} if isinstance(d, dict) else d
        params = from_json(CodingParams, rest, "coding", snapshot)
        spec = {k: d[k] for k in own if k in d}
        return from_json(cls, {**spec, "params": params}, "coding", snapshot)


def load_iris(path) -> RawDataset:
    """Load a 5-column iris-style CSV: four numeric attributes, then a label.

    A header row is autodetected (first field not parseable as a number).
    Label strings are matched case-insensitively with any ``Iris-`` prefix
    stripped, and class indices follow the alphabetical order of the
    normalized names.  Malformed rows are reported with their line number.
    """
    rows: list[tuple[float, float, float, float]] = []
    names: list[str] = []
    # utf-8-sig: a spreadsheet's byte-order mark must not hide the first row
    with _reported(DataError, "read", path), open(path, encoding="utf-8-sig") as fh:
        lines = fh.readlines()

    first_data_line = True
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if first_data_line:
            first_data_line = False
            try:
                float(fields[0])
            except ValueError:
                continue  # header row
        if len(fields) != 5:
            raise DataError(
                f"{path}:{lineno}: expected 5 comma-separated fields, got {len(fields)}"
            )
        try:
            rows.append(tuple(float(f) for f in fields[:4]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric attribute: {exc}") from exc
        name = fields[4].lower()
        if name.startswith("iris-"):
            name = name[len("iris-"):]
        if not name:
            raise DataError(f"{path}:{lineno}: empty class label")
        names.append(name)

    if not rows:
        raise DataError(f"{path}: no data rows found")
    class_names = tuple(sorted(set(names)))
    if len(class_names) != 3:
        log.warning("%s: found %d classes, expected 3", path, len(class_names))
    index = {name: i for i, name in enumerate(class_names)}
    labels = np.array([index[name] for name in names], dtype=np.int64)
    return RawDataset(features=np.asarray(rows, dtype=np.float64), labels=labels)


def _read_file(path) -> bytearray | np.ndarray:
    """Read a file fully, transparently gunzipping if it starts with 1f 8b.

    A plain file is read with one ``readinto`` into an uninitialised uint8
    array sized by ``os.fstat``, never by counts in the file's header: a
    ``bytearray`` would zero it first (7.8 MB: 1.12 against 0.76 ms).  Both
    buffers are writable, so arrays wrapped around them need no copy.
    """
    with _reported(DataError, "read", path, EOFError, zlib.error), open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return bytearray(gz.read())
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        return buf[:fh.readinto(buf)]  # the file shrank since fstat


def _read_idx(path, kind: str) -> np.ndarray:
    """An IDX file of ``kind`` as a uint8 array wrapped around its buffer.

    A short header, a magic number other than ``kind``'s, and a payload
    shorter or longer than the product of the dimensions raise ``DataError``.
    """
    magic, rank = _IDX[kind]
    raw = _read_file(path)
    header = 4 * (1 + rank)
    if len(raw) < header:
        raise DataError(f"{path}: truncated IDX {kind} header")
    found, *dims = struct.unpack(f">{1 + rank}I", raw[:header])
    if found != magic:
        raise DataError(f"{path}: bad IDX {kind} magic {found}, expected {magic}")
    expected = header + math.prod(dims)
    if len(raw) < expected:
        raise DataError(
            f"{path}: truncated {kind} data ({len(raw)} bytes, expected {expected})"
        )
    if len(raw) > expected:
        raise DataError(f"{path}: {len(raw) - expected} trailing bytes")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> RawDataset:
    """Load an IDX image file and its matching IDX label file.

    Both files may be gzipped.  Headers are big-endian; the image magic is
    2051 and the label magic 2049.  A file of either kind that is shorter
    than its header, carries the wrong magic, or holds fewer or more bytes
    than its dimensions call for raises ``DataError``, as do image and
    label counts that disagree.
    """
    images = _read_idx(images_path, "image")
    labels = _read_idx(labels_path, "label").astype(np.int64)
    if len(images) != len(labels):
        raise DataError(
            f"image count {len(images)} does not match label count {len(labels)}"
        )
    return RawDataset(features=images, labels=labels)


def save_mnist_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path):
    """Write images and labels back out in (uncompressed) IDX format.

    Writing then loading reproduces the arrays byte for byte, which keeps
    synthetic fixtures honest about the wire format.  Values must therefore
    be whole numbers in [0, 255]; anything else raises :class:`DataError`
    rather than being truncated, as does a path that cannot be written.
    Zero images make a valid, empty file.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 3:
        raise DataError(f"expected (N, rows, cols) images, got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise DataError("one label per image required")
    for values in (images, labels):
        if values.size and (values.min() < 0 or values.max() > 255):
            raise DataError("IDX stores unsigned bytes; values must lie in [0, 255]")
        if values.dtype.kind == "f" and not np.all(values == np.floor(values)):
            raise DataError("IDX stores unsigned bytes; values must be whole numbers")
    for path, kind, values in ((images_path, "image", images), (labels_path, "label", labels)):
        with _reported(DataError, "write", path), open(path, "wb") as fh:
            fh.write(struct.pack(f">{1 + values.ndim}I", _IDX[kind][0], *values.shape))
            fh.write(values.astype(np.uint8).tobytes())


def _stratified_pick(labels: np.ndarray, target: int, rng: np.random.Generator):
    """Choose ``target`` indices, class proportions preserved.

    Per-class quotas use largest-remainder rounding, so quotas always sum to
    ``target`` exactly; ties go to the lower class index.  Within each class
    the picked samples are a seeded random draw.
    """
    n = labels.shape[0]
    classes = np.unique(labels)
    counts = np.array([np.sum(labels == c) for c in classes])
    exact = counts * (target / n)
    quotas = np.floor(exact).astype(np.int64)
    remainders = exact - quotas
    shortfall = target - int(quotas.sum())
    # stable sort keeps the lower class index first on equal remainders
    for pos in np.argsort(-remainders, kind="stable")[:shortfall]:
        quotas[pos] += 1
    picked = []
    rest = []
    for c, quota in zip(classes, quotas):
        members = rng.permutation(np.nonzero(labels == c)[0])
        picked.append(members[:quota])
        rest.append(members[quota:])
    return np.sort(np.concatenate(picked)), np.sort(np.concatenate(rest))


def _split_dataset(
    ds: RawDataset, train_fraction: float, seed: int
) -> tuple[RawDataset, RawDataset]:
    """Deterministic stratified split into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    if len(ds) < 2:
        raise ConfigError("cannot split a dataset with fewer than 2 samples")
    target = int(round(len(ds) * train_fraction))
    target = min(max(target, 1), len(ds) - 1)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = _stratified_pick(ds.labels, target, rng)
    make = lambda idx: RawDataset(features=ds.features[idx], labels=ds.labels[idx])
    return make(train_idx), make(test_idx)


def _stratified_subset(ds: RawDataset, size: int, seed: int) -> RawDataset:
    """A seeded class-balanced subset of ``size`` samples."""
    if not 0 < size <= len(ds):
        raise ConfigError(f"subset size must lie in [1, {len(ds)}], got {size}")
    if size == len(ds):
        return ds
    rng = np.random.default_rng(seed)
    idx, _ = _stratified_pick(ds.labels, size, rng)
    return RawDataset(features=ds.features[idx], labels=ds.labels[idx])


def encode_dataset(ds: RawDataset, spec: EncodingSpec) -> EncodedDataset:
    """Encode every sample of a dataset into one delay/fired matrix pair."""
    if len(ds) == 0:
        raise DataError("cannot encode an empty dataset")
    if spec.scheme == "numeric":
        if spec.ranges is None:
            raise ConfigError("numeric coding needs fitted attribute ranges")
        delays, fired = _encode_numeric(ds.features, spec.ranges, spec.params)
    elif spec.scheme == "one_to_one":
        delays, fired = _encode_pixels_1to1(ds.features, spec.params, spec.p_max)
    else:
        delays, fired = _encode_conv_like(ds.features, spec.params)
    return EncodedDataset(delays=delays, fired=fired, labels=ds.labels.copy())
