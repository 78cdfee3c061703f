"""Regenerate ``mt10_weights.npz``, the trained model the benchmark loads.

Trains the ``mt10_mnist_noheu`` preset for 20 epochs on 10k/2k synthetic
digits from a fixed seed and stores its two weight matrices as float16
(about 165 kB compressed; the rounding costs no measurable accuracy).
Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_model.py
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py, before numpy loads

import sys
import tempfile
from dataclasses import replace

import numpy as np

from mtspike import config, pipeline

import digits
from workloads import DIGITS_EPOCHS, WEIGHTS

MODEL_DATA_SEED = [2018, 5117]


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        digits.write_idx(directory, "train", *digits.make_digits(1000, MODEL_DATA_SEED + [0]))
        digits.write_idx(directory, "t10k", *digits.make_digits(200, MODEL_DATA_SEED + [1]))
        cfg = config.preset("mt10_mnist_noheu")
        cfg.dataset = replace(cfg.dataset, dir=directory)
        cfg.train = replace(cfg.train, epochs=DIGITS_EPOCHS)
        result = pipeline.execute_run(cfg)
    w0, w1 = (w.astype(np.float16) for w in result.model.network.weights)
    np.savez_compressed(WEIGHTS, w0=w0, w1=w1)
    print(f"test accuracy {result.metrics.test_accuracy:.4f}; wrote {WEIGHTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
