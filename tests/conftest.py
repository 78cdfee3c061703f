"""Shared fixtures: the iris CSV, synthetic digit images, and IDX folders.

The digit corpus stands in for real handwritten digits when the IDX files
are not available: ten fixed binary templates with per-pixel flips and
grayscale jitter, deterministic for a given seed, learnable through the
same codings and networks as the real thing.
"""

from __future__ import annotations

import copy
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from mtspike.datasets import RawDataset, save_mnist_idx

REPO_ROOT = Path(__file__).resolve().parent.parent

# Any parsed JSON value; values that break naive casts come up often, not
# only by chance.
JSON_VALUES = st.recursive(
    st.sampled_from([float("inf"), float("nan"), -1, 0, 2**70, 0.5, "3", True])
    | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
DELETE = object()


def set_at(doc, path, value):
    """Set the entry of nested JSON ``doc`` at key ``path``; ``DELETE`` removes it."""
    *outer, key = path
    for k in outer:
        doc = doc[k]
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = copy.deepcopy(value)


@pytest.fixture(scope="session")
def iris_path() -> Path:
    path = REPO_ROOT / "data" / "iris.csv"
    if not path.is_file():
        pytest.skip(f"iris CSV not found at {path}")
    return path


def make_digits(n_per_class: int, seed: int, side: int = 28,
                density: float = 0.3, flip: float = 0.05) -> RawDataset:
    """Ten-class synthetic grayscale digits with fixed class templates."""
    tmpl_rng = np.random.default_rng(1234)
    templates = tmpl_rng.random((10, side, side)) < density
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in range(10):
        for _ in range(n_per_class):
            on = templates[c] ^ (rng.random((side, side)) < flip)
            px = np.where(on, rng.integers(160, 256, (side, side)), 0)
            feats.append(px)
            labels.append(c)
    order = rng.permutation(len(labels))
    return RawDataset(
        features=np.array(feats, dtype=np.float64)[order],
        labels=np.array(labels)[order],
        class_names=tuple(str(i) for i in range(10)),
    )


@pytest.fixture(scope="session")
def digits_train() -> RawDataset:
    return make_digits(60, seed=7)


@pytest.fixture(scope="session")
def digits_test() -> RawDataset:
    return make_digits(20, seed=8)


@pytest.fixture(scope="session")
def idx_dir(tmp_path_factory, digits_train, digits_test) -> Path:
    """A directory shaped like an MNIST download, built from synthetic digits."""
    directory = tmp_path_factory.mktemp("idx")
    save_mnist_idx(digits_train.features, digits_train.labels,
                   directory / "train-images-idx3-ubyte",
                   directory / "train-labels-idx1-ubyte")
    save_mnist_idx(digits_test.features, digits_test.labels,
                   directory / "t10k-images-idx3-ubyte",
                   directory / "t10k-labels-idx1-ubyte")
    return directory


def mnist_data_dir() -> Path | None:
    """Directory with the real IDX files, if present; else None."""
    candidates = []
    env = os.environ.get("MTSPIKE_DATA_DIR")
    if env:
        candidates.append(Path(env) / "mnist")
        candidates.append(Path(env))
    candidates.append(REPO_ROOT / "data" / "mnist")
    for directory in candidates:
        base = directory / "train-images-idx3-ubyte"
        if base.is_file() or base.with_suffix(".gz").is_file() \
                or (directory / "train-images-idx3-ubyte.gz").is_file():
            return directory
    return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance-criterion verdicts at the end of the run."""
    import _criteria

    if not _criteria.results:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, detail in sorted(_criteria.results):
        terminalreporter.write_line(f"criterion {number:2d} {status}: {detail}")
