"""Tests of the benchmark itself.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from dataclasses import replace

import numpy as np
import pytest

from mtspike import config, datasets, model_io, pipeline, srm
from mtspike.coding import DelayVector

import digits
import workloads

ROOT = workloads.ROOT


def _digits_config(directory):
    digits.write_idx(directory, "train", *digits.make_digits(20, [7, 0]))
    digits.write_idx(directory, "t10k", *digits.make_digits(5, [7, 1]))
    cfg = config.preset("mt10_mnist_noheu")
    cfg.dataset = replace(cfg.dataset, dir=str(directory))
    cfg.train = replace(cfg.train, epochs=3)
    return cfg


def _iris_config(directory):
    cfg = config.preset("mt1_iris")
    cfg.dataset = replace(cfg.dataset, path=str(ROOT / "data" / "iris.csv"))
    cfg.train = replace(cfg.train, epochs=50, seed=3)
    return cfg


@pytest.mark.parametrize("make_config", [_digits_config, _iris_config])
def test_phase_runner_writes_the_model_execute_run_writes(tmp_path, make_config):
    cfg = make_config(tmp_path)
    model_io.save_model(pipeline.execute_run(cfg).model, tmp_path / "shipped")
    run = workloads.run_config(cfg, tmp_path / "phased")
    assert (tmp_path / "phased").read_bytes() == (tmp_path / "shipped").read_bytes()
    assert len(run.epochs) == cfg.train.epochs


def test_digits_are_seeded_and_survive_idx(tmp_path):
    images, labels = digits.make_digits(3, [5, 1])
    again, again_labels = digits.make_digits(3, [5, 1])
    other, _ = digits.make_digits(3, [5, 2])
    assert images.dtype == np.uint8 and images.shape == (30, 28, 28)
    assert np.array_equal(images, again) and np.array_equal(labels, again_labels)
    assert not np.array_equal(images, other)
    assert np.bincount(labels).tolist() == [3] * 10
    loaded = datasets.load_mnist_idx(*digits.write_idx(tmp_path, "t10k", images, labels))
    assert np.array_equal(loaded.features, images)
    assert np.array_equal(loaded.labels, labels)


def test_reference_crossing_agrees_with_srm_within_dt():
    params = srm.SrmParams()
    rng = np.random.default_rng(0)
    for _ in range(5):
        inputs = DelayVector(rng.uniform(0.0, 10.0, 8), rng.random(8) < 0.8)
        weights = rng.uniform(0.2, 1.5, 8)
        crossing = srm.threshold_crossing(inputs, weights, params)
        ref = workloads.reference_crossing(inputs, weights, params, params.horizon)
        assert (crossing is None) == (ref is None)
        if crossing is not None:
            assert abs(crossing - ref) <= params.dt + 1e-9
