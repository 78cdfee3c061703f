"""End-to-end runs: loading, encoding, training, and reproducibility."""

import gzip
import logging
import shutil
from dataclasses import replace

import numpy as np
import pytest

from mtspike.config import config_from_dict, preset
from mtspike.datasets import EncodingSpec, RawDataset
from mtspike.errors import ConfigError, DataError, DivergenceError
from mtspike.model_io import save_model
from mtspike.pipeline import (
    _fit_coding,
    _resolve_mnist_paths,
    execute_run,
    load_raw,
    prepare_data,
)


def iris_config(iris_path, **train):
    doc = {
        "name": "iris_smoke",
        "dataset": {"kind": "iris", "path": str(iris_path)},
        "coding": {"scheme": "numeric", "window": 16.0, "unit": 1.0},
        "layers": [4, 3],
        "readout": {
            "mode": "multi_neuron",
            "num_classes": 3,
            "excitatory_offset": 0.0,
            "inhibitory_offset": 4.0,
        },
        "train": {"learning_rate": 0.01, "batch_size": 30, "epochs": 20,
                  "seed": 0, **train},
    }
    return config_from_dict(doc)


def mnist_config(idx_dir, layers, **train):
    doc = {
        "name": "digit_smoke",
        "dataset": {"kind": "mnist", "dir": str(idx_dir)},
        "coding": {"scheme": "conv", "window": 16.0, "unit": 1.0,
                   "kernel": 4, "stride": 2},
        "layers": layers,
        "readout": {
            "mode": "multi_neuron",
            "num_classes": 10,
            "excitatory_offset": 0.0,
            "inhibitory_offset": 4.0,
        },
        "train": {"learning_rate": 1.0, "batch_size": 32, "seed": 0,
                  "batch_reduction": "mean", **train},
    }
    return config_from_dict(doc)


def test_resolve_mnist_paths_reports_what_is_missing(tmp_path):
    with pytest.raises(DataError) as err:
        _resolve_mnist_paths(tmp_path)
    message = str(err.value)
    assert "train-images-idx3-ubyte[.gz]" in message
    assert "t10k-labels-idx1-ubyte[.gz]" in message


def test_resolve_mnist_paths_accepts_mixed_compression(idx_dir, tmp_path):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte"):
        shutil.copy(idx_dir / name, mixed / name)
    # the fourth file only exists gzipped
    with open(idx_dir / "t10k-labels-idx1-ubyte", "rb") as src:
        with gzip.open(mixed / "t10k-labels-idx1-ubyte.gz", "wb") as dst:
            shutil.copyfileobj(src, dst)
    paths = _resolve_mnist_paths(mixed)
    assert paths["test_labels"].name.endswith(".gz")
    assert paths["train_images"].name == "train-images-idx3-ubyte"


def test_load_raw_applies_subsets(idx_dir):
    cfg = mnist_config(idx_dir, [169, 10], epochs=1)
    cfg.dataset.train_subset = 100
    cfg.dataset.test_subset = 40
    train_raw, test_raw = load_raw(cfg)
    assert len(train_raw) == 100
    assert len(test_raw) == 40
    assert np.bincount(train_raw.labels).tolist() == [10] * 10


def test_prepare_data_fits_ranges_on_train_only(iris_path):
    cfg = iris_config(iris_path)
    train_enc, test_enc, spec = prepare_data(cfg)
    assert train_enc.delays.shape == (120, 4)
    assert test_enc.delays.shape == (30, 4)
    assert spec.ranges is not None and spec.ranges.shape == (4, 2)
    # training delays span the coding grid exactly; test delays only clamp to it
    assert train_enc.delays.min() == 0.0
    assert train_enc.delays.max() == 16.0
    assert np.all((test_enc.delays >= 0.0) & (test_enc.delays <= 16.0))


def test_fit_coding_takes_column_ranges():
    """Unset numeric ranges become the per-column (min, max) of the
    training features; set ranges and image schemes pass through."""
    feats = np.array([[1.0, 10.0], [3.0, -2.0], [2.0, 4.0]])
    spec = _fit_coding(EncodingSpec(scheme="numeric"), RawDataset(feats, [0, 1, 0]))
    assert spec.ranges.tolist() == [[1.0, 3.0], [-2.0, 10.0]]
    assert _fit_coding(spec, RawDataset(feats * 2, [0, 1, 0])) is spec
    images = RawDataset(np.zeros((3, 2, 2)), [0, 1, 0])
    pixels = EncodingSpec(scheme="one_to_one")
    assert _fit_coding(pixels, images) is pixels
    with pytest.raises(DataError, match="2-D feature matrix"):
        _fit_coding(EncodingSpec(scheme="numeric"), images)


def test_prepare_data_rejects_width_mismatch(iris_path):
    cfg = iris_config(iris_path)
    cfg.layer_sizes = (5, 3)
    with pytest.raises(ConfigError, match="input neurons"):
        prepare_data(cfg)


def test_execute_run_returns_consistent_result(iris_path):
    cfg = iris_config(iris_path)
    result = execute_run(cfg)
    assert len(result.history) == 20
    assert result.model.network.layer_sizes == [4, 3]
    assert result.model.network.window == 16.0
    assert result.metrics.test_accuracy == result.history[-1].test_accuracy
    assert result.metrics.confusion.sum() == len(prepare_data(cfg)[1])
    prov = result.model.provenance
    assert prov["run"] == "iris_smoke"
    assert prov["seed"] == 0
    assert prov["batch_reduction"] == "sum"
    assert prov["final_test_accuracy"] == result.metrics.test_accuracy


def test_execute_run_is_bit_reproducible(iris_path, tmp_path):
    cfg = iris_config(iris_path)
    save_model(execute_run(cfg).model, tmp_path / "a")
    save_model(execute_run(iris_config(iris_path)).model, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    other = iris_config(iris_path, seed=1)
    save_model(execute_run(other).model, tmp_path / "c")
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def test_single_layer_digits_run_learns(idx_dir):
    cfg = mnist_config(idx_dir, [169, 10], epochs=80)
    result = execute_run(cfg)
    assert result.metrics.test_accuracy >= 0.9
    # conv coding always fires every input neuron
    assert result.metrics.total_spikes == result.metrics.confusion.sum() * (169 + 10)


def test_hidden_layer_digits_run_learns(idx_dir):
    """The deeper image network needs the averaged batch step to stay stable."""
    cfg = mnist_config(idx_dir, [169, 500, 10], epochs=300)
    result = execute_run(cfg)
    assert result.metrics.test_accuracy >= 0.9
    assert result.history[-1].mse < 1.0


def test_multi_batch_divergence_raises_diverged(iris_path):
    """A 4-25-1 iris run that blows up ends in E_DIVERGED, not a readout error."""
    cfg = preset("mt1_iris")
    cfg.dataset = replace(cfg.dataset, path=str(iris_path))
    cfg.train = replace(cfg.train, learning_rate=10.0, batch_reduction="sum",
                        init_range=(0.0, 5.0), epochs=200)
    with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+") as err:
        execute_run(cfg)
    assert err.value.code == "E_DIVERGED"


def iris_preset(iris_path, **train):
    cfg = preset("mt1_iris")
    cfg.dataset = replace(cfg.dataset, path=str(iris_path))
    cfg.train = replace(cfg.train, **train)
    return cfg


def test_collapsed_run_warns_once_naming_epoch_and_layers(iris_path, caplog):
    """A 4-25-1 iris run whose every neuron is clipped ends with one warning.

    This run finishes "ok" with MSE 15.0 and chance accuracy: all 25 hidden
    and the output pre-activations are <= 0 on train and test data.
    """
    cfg = iris_preset(iris_path, learning_rate=1.0, batch_reduction="sum",
                      init_range=(0.0, 5.0), epochs=200)
    with caplog.at_level(logging.WARNING, logger="mtspike.learning"):
        result = execute_run(cfg)
    assert result.history[-1].mse == 15.0
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("epoch 200: ")
    assert "layer(s) 1, 2" in warnings[0]


def test_healthy_iris_run_does_not_warn(iris_path, caplog):
    """The mt1_iris preset clips many neurons (61% hidden on test) but no whole layer."""
    with caplog.at_level(logging.WARNING, logger="mtspike.learning"):
        result = execute_run(iris_preset(iris_path))
    assert result.metrics.test_accuracy >= 0.9
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
