"""Versioned on-disk model container.

Layout, in order:

* 8-byte magic ``MTSPIKE\\x00``
* version as little-endian uint32 (currently 1)
* header length in bytes as little-endian uint32
* UTF-8 JSON header (sorted keys, no whitespace): layer sizes, activation,
  response window, coding snapshot, target scheme, free-form training
  provenance
* weight matrices as little-endian float64, row-major, in layer order

Nothing else: a loader must land exactly at end-of-file after the last
weight.  The header is deterministic and the payload is raw bits, so two
identical training runs produce byte-identical files and a load always
returns bit-exact weights.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .datasets import EncodingSpec
from .errors import ConfigError, ModelIOError, StructureError, _reported
from .network import Network, _weight_count
from .readout import TargetScheme
from .schema import _checked, from_json

__all__ = ["ModelFile", "save_model", "load_model"]

_MAGIC = b"MTSPIKE\x00"
_FORMAT_VERSION = 1


@dataclass
class ModelFile:
    """A trained network plus everything needed to use it again."""

    network: Network
    coding: EncodingSpec
    scheme: TargetScheme
    provenance: dict = field(default_factory=dict)


def _header_bytes(model: ModelFile) -> bytes:
    header = {
        "layer_sizes": list(model.network.layer_sizes),
        "activation": model.network.activation,
        "window": model.network.window,
        "coding": model.coding.to_dict(),
        "scheme": dataclasses.asdict(model.scheme),
        "provenance": model.provenance,
    }
    try:
        text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ModelIOError(f"model header is not JSON-serializable: {exc}") from exc
    return text.encode("utf-8")


def _check_consistent(model: ModelFile, path):
    """The parts fit together as every run makes them: the readout fits the
    output layer, a numeric coding has one range with max above min per input
    neuron, the network responds one coding window after its input, and the
    readout's targets start at that window."""
    sizes, coding, scheme = model.network.layer_sizes, model.coding, model.scheme
    if scheme.output_size != sizes[-1]:
        raise ModelIOError(
            f"{path}: {scheme.mode} readout of {scheme.num_classes} classes needs "
            f"{scheme.output_size} output neurons, network has {sizes[-1]}"
        )
    if coding.scheme == "numeric":
        if coding.ranges is None:
            raise ModelIOError(f"{path}: numeric coding has no attribute ranges")
        if coding.ranges.shape[0] != sizes[0]:
            raise ModelIOError(
                f"{path}: coding ranges cover {coding.ranges.shape[0]} attributes, "
                f"input layer has {sizes[0]} neurons"
            )
        lo, hi = coding.ranges.T
        if not np.all(hi > lo):
            raise ModelIOError(f"{path}: degenerate range for attribute "
                               f"{int(np.argmin(hi - lo))}: max must exceed min")
    for name, window in (("network", model.network.window), ("readout", scheme.window)):
        if window != coding.params.window:
            raise ModelIOError(
                f"{path}: {name} window {window!r} differs from "
                f"coding window {coding.params.window!r}"
            )


def save_model(model: ModelFile, path):
    """Write the container (see the module docstring); refuses, as
    :func:`load_model` does, a model whose parts do not fit together, so a
    written file always loads."""
    _check_consistent(model, path)
    header = _header_bytes(model)
    with _reported(ModelIOError, "write model to", path), open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(header)))
        fh.write(header)
        for w in model.network.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_model(path) -> ModelFile:
    """Read a container back; weights come out bit-exact.

    Raises :class:`ModelIOError` on a bad magic, an unsupported version, a
    malformed or inconsistent header (a missing or unknown field or one of
    the wrong JSON type; invalid network, coding or readout; a readout or
    numeric coding that does not fit the layer sizes; numeric coding without
    ranges or with a range whose max does not exceed its min; a network or
    readout window that differs from the coding window), or a payload whose
    length does not match the declared layer sizes exactly.
    """
    with _reported(ModelIOError, "read model from", path), open(path, "rb") as fh:
        raw = fh.read()

    if len(raw) < len(_MAGIC) + 8:
        raise ModelIOError(f"{path}: truncated model file")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ModelIOError(f"{path}: not a model file (bad magic)")
    version, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    if version != _FORMAT_VERSION:
        raise ModelIOError(
            f"{path}: unsupported model format version {version} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    body_start = len(_MAGIC) + 8
    if len(raw) < body_start + header_len:
        raise ModelIOError(f"{path}: truncated model header")
    try:
        header = json.loads(raw[body_start:body_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelIOError(f"{path}: corrupt model header: {exc}") from exc

    try:
        layer_sizes = _checked(header["layer_sizes"], tuple[int, ...], "layer_sizes")
        activation = _checked(header["activation"], str, "activation")
        net_window = _checked(header["window"], float, "window")
        coding = EncodingSpec.from_dict(header["coding"])
        scheme = from_json(TargetScheme, header["scheme"], "scheme", complete=True)
        provenance = _checked(header["provenance"], dict, "provenance")
    except (KeyError, TypeError, ConfigError) as exc:
        raise ModelIOError(f"{path}: model header is missing or malformed: {exc}") from exc
    unknown = header.keys() - {"layer_sizes", "activation", "window", "coding",
                               "scheme", "provenance"}
    if unknown:
        raise ModelIOError(f"{path}: unknown model header key(s): {', '.join(sorted(unknown))}")
    if any(size < 1 for size in layer_sizes):
        raise ModelIOError(f"{path}: invalid network: layer sizes {list(layer_sizes)}")

    expected_weights = _weight_count(layer_sizes)
    payload = raw[body_start + header_len:]
    if len(payload) != 8 * expected_weights:
        kind = "truncated" if len(payload) < 8 * expected_weights else "oversized"
        raise ModelIOError(
            f"{path}: {kind} weight payload ({len(payload)} bytes, "
            f"expected {8 * expected_weights})"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    weights = []
    offset = 0
    for a, b in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[offset:offset + a * b].reshape(a, b).astype(np.float64))
        offset += a * b
    try:
        network = Network(layer_sizes=layer_sizes, weights=weights,
                          activation=activation, window=net_window)
    except StructureError as exc:
        raise ModelIOError(f"{path}: invalid network: {exc}") from exc
    model = ModelFile(network=network, coding=coding, scheme=scheme, provenance=provenance)
    _check_consistent(model, path)
    return model
