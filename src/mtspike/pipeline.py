"""End-to-end run pipeline: load, split, encode, train, summarize.

This is the glue the CLI drives; it lives apart from the CLI so tests and
notebooks can run the same pipeline without going through argv.  Everything
downstream of the config is deterministic: a single seeded generator covers
weight init and all epoch shuffles, and the model provenance carries the
seed rather than timestamps, so identical configs produce byte-identical
model files.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .datasets import (
    EncodedDataset,
    EncodingSpec,
    RawDataset,
    _split_dataset,
    _stratified_subset,
    encode_dataset,
    load_iris,
    load_mnist_idx,
)
from .errors import ConfigError, DataError
from .learning import EpochStats, train
from .metrics import RunMetrics, _summarize
from .model_io import ModelFile
from .network import init_network
from .readout import TargetScheme

__all__ = [
    "RunResult",
    "prepare_data",
    "execute_run",
]

log = logging.getLogger(__name__)

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass
class RunResult:
    model: ModelFile
    history: list[EpochStats]
    metrics: RunMetrics


def _resolve_mnist_paths(directory) -> dict[str, Path]:
    """Locate the four standard IDX files, gzipped or not, in ``directory``."""
    directory = Path(directory)
    found: dict[str, Path] = {}
    missing: list[str] = []
    for key, base in _MNIST_FILES.items():
        for candidate in (directory / base, directory / (base + ".gz")):
            if candidate.is_file():
                found[key] = candidate
                break
        else:
            missing.append(base + "[.gz]")
    if missing:
        raise DataError(
            f"missing IDX files under {directory}: {', '.join(missing)}"
        )
    return found


def _load_raw(cfg: RunConfig) -> tuple[RawDataset, RawDataset]:
    """Load and split the configured dataset into raw (train, test)."""
    ds_cfg = cfg.dataset
    if ds_cfg.kind == "iris":
        full = load_iris(ds_cfg.path)
        train_raw, test_raw = _split_dataset(
            full, ds_cfg.train_fraction, ds_cfg.split_seed
        )
    else:
        paths = _resolve_mnist_paths(ds_cfg.dir)
        train_raw = load_mnist_idx(paths["train_images"], paths["train_labels"])
        test_raw = load_mnist_idx(paths["test_images"], paths["test_labels"])
    if ds_cfg.train_subset is not None:
        train_raw = _stratified_subset(train_raw, ds_cfg.train_subset, ds_cfg.subset_seed)
    if ds_cfg.test_subset is not None:
        test_raw = _stratified_subset(test_raw, ds_cfg.test_subset, ds_cfg.subset_seed + 1)
    return train_raw, test_raw


def _fit_coding(spec: EncodingSpec, train_raw: RawDataset) -> EncodingSpec:
    """The spec to encode with: numeric ranges, if unset, the per-column
    (min, max) of ``train_raw``, whose features must be a 2-D matrix.

    Fitting on the training split only means test values outside the seen
    range clamp to the window edges.
    """
    if spec.scheme != "numeric" or spec.ranges is not None:
        return spec
    features = train_raw.features.astype(np.float64, copy=False)
    if features.ndim != 2:
        raise DataError(f"expected a 2-D feature matrix, got shape {features.shape}")
    return replace(spec, ranges=np.stack([features.min(axis=0), features.max(axis=0)], axis=1))


def prepare_data(cfg: RunConfig) -> tuple[EncodedDataset, EncodedDataset, EncodingSpec]:
    """Encode the configured dataset; numeric ranges are fitted on train only.

    Returns the encoded train and test sets plus the fitted coding spec
    (the one that belongs in the model file).  Raises before any training
    if the coding width disagrees with the first network layer.
    """
    train_raw, test_raw = _load_raw(cfg)
    spec = _fit_coding(cfg.coding, train_raw)
    train_enc = encode_dataset(train_raw, spec)
    test_enc = encode_dataset(test_raw, spec)
    if train_enc.delays.shape[1] != cfg.layer_sizes[0]:
        raise ConfigError(
            f"coding produces {train_enc.delays.shape[1]} input neurons but "
            f"the first layer has {cfg.layer_sizes[0]}"
        )
    log.info(
        "prepared %d train / %d test samples, %d input neurons",
        len(train_enc), len(test_enc), train_enc.delays.shape[1],
    )
    return train_enc, test_enc, spec


def execute_run(cfg: RunConfig) -> RunResult:
    """Train the configured network from scratch and evaluate it."""
    train_enc, test_enc, spec = prepare_data(cfg)
    rng = np.random.default_rng(cfg.train.seed)
    net = init_network(
        list(cfg.layer_sizes), rng=rng, init_range=cfg.train.init_range,
        window=spec.params.window,
    )
    net, history = train(
        net, train_enc, cfg.scheme, cfg.train, eval_data=test_enc, rng=rng
    )
    metrics = _summarize(net, test_enc, cfg.scheme, cfg.alpha)
    provenance = {
        "run": cfg.name,
        "seed": cfg.train.seed,
        "epochs": cfg.train.epochs,
        "gradient_mode": cfg.train.gradient_mode,
        "heuristic": cfg.train.heuristic,
        "update_gate": cfg.train.update_gate,
        "batch_reduction": cfg.train.batch_reduction,
        "mse_restricted_to_involved": cfg.train.heuristic,
        "final_mse": history[-1].mse if history else None,
        "final_train_accuracy": history[-1].train_accuracy if history else None,
        "final_test_accuracy": metrics.test_accuracy,
    }
    model = ModelFile(
        network=net, coding=spec, scheme=cfg.scheme, provenance=provenance
    )
    return RunResult(model=model, history=history, metrics=metrics)
