"""Run configuration: JSON parsing, validation, and shipped presets.

A run config bundles a dataset reference, a coding scheme, the layer sizes,
the readout scheme, and the training hyperparameters.  Configs load from a
JSON document (README.md, "Config files", shows one with every field and
lists each field's type and values) or from a named preset covering each
benchmark network: iris with one hidden layer or a bare single layer, and
the MNIST-style variants with one output neuron, ten output neurons (with
and without the heuristic loss), and no hidden layer.  Presets are
documents in the same schema, read by the same parser, which raises
``ConfigError`` on an unknown key or a wrongly typed value.
``config_from_dict`` parses a document already loaded as a dict.

Dataset locations in presets resolve against ``MTSPIKE_DATA_DIR`` when set,
else ``./data``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import EncodingSpec
from .errors import ConfigError, _reported
from .learning import TrainConfig
from .network import _weight_count
from .readout import TargetScheme
from .schema import _checked, from_json

__all__ = [
    "RunConfig",
    "load_config",
    "config_from_dict",
    "preset",
]


@dataclass
class _DatasetConfig:
    kind: str
    path: str | None = None
    dir: str | None = None
    train_fraction: float = 0.8
    split_seed: int = 0
    train_subset: int | None = None
    test_subset: int | None = None
    subset_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("iris", "mnist"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "iris" and not self.path:
            raise ConfigError("iris dataset needs a CSV path")
        if self.kind == "mnist" and not self.dir:
            raise ConfigError("mnist dataset needs a directory of IDX files")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        for name in ("train_subset", "test_subset"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 when given")
        if self.split_seed < 0 or self.subset_seed < 0:
            raise ConfigError("split_seed and subset_seed must be non-negative")


@dataclass
class RunConfig:
    name: str
    dataset: _DatasetConfig
    coding: EncodingSpec
    layer_sizes: tuple[int, ...]
    scheme: TargetScheme
    train: TrainConfig = field(default_factory=TrainConfig)
    alpha: float = 1.0
    model_path: str | None = None
    metrics_path: str | None = None

    def __post_init__(self):
        self.layer_sizes = tuple(self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ConfigError("layers must list at least input and output sizes")
        if min(self.layer_sizes) < 1:
            raise ConfigError("every layer must contain at least one neuron")
        if _weight_count(self.layer_sizes) > np.iinfo(np.intp).max // 8:
            raise ConfigError(
                f"layers {list(self.layer_sizes)} need more float64 weights "
                f"than numpy can address"
            )
        if self.scheme.window != self.coding.params.window:
            raise ConfigError(
                f"readout window {self.scheme.window!r} differs from coding window "
                f"{self.coding.params.window!r}; the targets start at the coding window"
            )
        if self.scheme.output_size != self.layer_sizes[-1]:
            raise ConfigError(
                f"readout produces {self.scheme.output_size} output delays but "
                f"the last layer has {self.layer_sizes[-1]} neurons"
            )
        if self.dataset.kind == "iris" and self.coding.scheme != "numeric":
            raise ConfigError("iris data uses numeric coding")
        if self.dataset.kind == "mnist" and self.coding.scheme == "numeric":
            raise ConfigError("image data needs one_to_one or conv coding")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError("alpha must be finite and positive")


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    required = {"dataset", "coding", "layers", "readout"}
    missing = required - set(d)
    if missing:
        raise ConfigError(f"config is missing section(s): {', '.join(sorted(missing))}")
    unknown = set(d) - required - {"name", "train", "alpha", "output"}
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    output = d.get("output", {})
    if not isinstance(output, dict) or set(output) - {"model", "metrics"}:
        raise ConfigError("output section accepts only 'model' and 'metrics' paths")
    coding = EncodingSpec.from_dict(d["coding"], snapshot=False)
    return RunConfig(
        name=_checked(d.get("name", "run"), str, "name"),
        dataset=from_json(_DatasetConfig, d["dataset"], "dataset"),
        coding=coding,
        layer_sizes=_checked(d["layers"], tuple[int, ...], "layers"),
        scheme=from_json(TargetScheme, d["readout"], "readout",
                         window=coding.params.window),
        train=from_json(TrainConfig, d.get("train", {}), "train"),
        alpha=_checked(d.get("alpha", 1.0), float, "alpha"),
        model_path=_checked(output.get("model"), str | None, "output model"),
        metrics_path=_checked(output.get("metrics"), str | None, "output metrics"),
    )


def load_config(path) -> RunConfig:
    with _reported(ConfigError, "read config", path), open(path, encoding="utf-8-sig") as fh:
        try:
            document = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(document)


# Preset documents; dataset locations are relative to MTSPIKE_DATA_DIR, else ./data.
_IRIS = {"dataset": {"kind": "iris", "path": "iris.csv"},
         "coding": {"scheme": "numeric", "window": 16.0, "unit": 1.0}}
_MNIST = {"dataset": {"kind": "mnist", "dir": "mnist"},
          "coding": {"scheme": "conv", "window": 16.0, "unit": 1.0, "kernel": 4, "stride": 2}}
_MULTI = {"mode": "multi_neuron", "excitatory_offset": 0.0, "inhibitory_offset": 4.0}
_MULTI10 = {**_MULTI, "num_classes": 10}
_IRIS_TRAIN = {"learning_rate": 0.01, "batch_size": 30, "epochs": 2000}
_NOHEU = {"learning_rate": 1.0, "batch_size": 32, "epochs": 50, "batch_reduction": "mean"}
_HEU = {**_NOHEU, "heuristic": True}
_PRESETS = {
    "mt1_iris": {**_IRIS, "layers": [4, 25, 1],
                 "readout": {"mode": "single_neuron", "num_classes": 3, "excitatory_offset": 3.0},
                 "train": {**_IRIS_TRAIN, "batch_reduction": "mean"}},
    "slmt3_iris": {**_IRIS, "layers": [4, 3], "readout": {**_MULTI, "num_classes": 3},
                   "train": _IRIS_TRAIN},
    "mt1_mnist": {**_MNIST, "layers": [169, 500, 1],
                  "readout": {"mode": "single_neuron", "num_classes": 10, "excitatory_offset": 1.0},
                  "train": {**_NOHEU, "gradient_mode": "exact"}},
    "mt10_mnist_heu": {**_MNIST, "layers": [169, 500, 10], "readout": _MULTI10,
                       "train": {**_HEU, "numerics": "fast"}},
    "mt10_mnist_noheu": {**_MNIST, "layers": [169, 500, 10], "readout": _MULTI10,
                         "train": {**_NOHEU, "numerics": "fast"}},
    "slmt10_mnist_heu": {**_MNIST, "layers": [169, 10], "readout": _MULTI10, "train": _HEU},
    "slmt10_mnist_noheu": {**_MNIST, "layers": [169, 10], "readout": _MULTI10, "train": _NOHEU},
}


def _preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


@functools.cache
def _parsed_preset(name: str, data_dir: str) -> RunConfig:
    doc = _PRESETS[name]
    dataset = {k: str(Path(data_dir) / v) if k in ("path", "dir") else v
               for k, v in doc["dataset"].items()}
    return config_from_dict({**doc, "name": name, "dataset": dataset})


def preset(name: str) -> RunConfig:
    """The named preset, parsed once per data directory (set-ups call this in loops).

    Each call returns its own ``RunConfig`` and ``dataset`` section; the
    other sections are frozen and shared.
    """
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(_preset_names())}"
        )
    cfg = _parsed_preset(name, os.environ.get("MTSPIKE_DATA_DIR", "data"))
    return dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset))
