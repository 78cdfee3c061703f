"""Seeded, MNIST-shaped synthetic digits, written as real IDX files.

Ten fixed binary class templates (drawn once from ``TEMPLATE_SEED``) are
perturbed per image by independent pixel flips, and every "on" pixel gets a
random ink intensity in [160, 255].  The scheme matches the test suite's
``make_digits`` fixture but is generated in one vectorized draw per array,
so 10k images take tens of milliseconds.  Because the templates do not
depend on the seed, a model trained on one seed's digits classifies any
other seed's digits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mtspike import datasets

TEMPLATE_SEED = 1234
SIDE = 28


def make_digits(n_per_class: int, seed, density: float = 0.3,
                flip: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """``(images, labels)``: ``(10 * n_per_class, 28, 28)`` uint8 and uint8.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; the same seed
    gives the same arrays.  Labels are class-balanced in shuffled order.
    """
    templates = np.random.default_rng(TEMPLATE_SEED).random((10, SIDE, SIDE)) < density
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(10, dtype=np.uint8), n_per_class))
    on = templates[labels] ^ (rng.random((labels.size, SIDE, SIDE)) < flip)
    ink = rng.integers(160, 256, size=on.shape, dtype=np.uint8)
    return np.where(on, ink, np.uint8(0)), labels


def write_idx(directory, prefix: str, images: np.ndarray, labels: np.ndarray):
    """Write ``<prefix>-images-idx3-ubyte`` and ``<prefix>-labels-idx1-ubyte``."""
    directory = Path(directory)
    images_path = directory / f"{prefix}-images-idx3-ubyte"
    labels_path = directory / f"{prefix}-labels-idx1-ubyte"
    datasets.save_mnist_idx(images, labels, images_path, labels_path)
    return images_path, labels_path
