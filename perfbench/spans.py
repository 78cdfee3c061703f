"""In-memory spans around calls into mtspike's public functions.

The tracer replaces a function *where the calling module imported it*
(``mtspike.learning.forward_batch`` and ``mtspike.metrics.forward_batch`` are
separate bindings of one function), so each call passes through exactly one
wrapper and the program itself is unchanged.  A span records its name, the
span that caused it, the workload pass it belongs to, start and end times,
and one numeric size field (rows, images, bytes, ...).  Spans live in flat
arrays, so the ~20k spans of an iris pass cost under 1 MB, and are summarised
when the benchmark ends.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from mtspike.datasets import SCHEMES

# What each traced function records in its size field, and a flag.
#   forward_batch       rows of the delay matrix; flag = it is an eval set
#   encode_dataset      images encoded; flag = index of the coding scheme
#   load_mnist_idx      bytes of the two IDX files
#   threshold_crossing  1; flag = the neuron crossed threshold


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.flag = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.current_pass = -1
        self.eval_ids: set[int] = set()
        self._eval_sets: list = []

    def mark_eval(self, matrix):
        """Flag forward passes over ``matrix`` as evaluation, not training.

        The matrix is kept alive so that its id cannot be reused by a batch.
        """
        self._eval_sets.append(matrix)
        self.eval_ids.add(id(matrix))

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, module, attr: str, measure=None):
        """Trace calls made through ``module.attr``.

        ``measure(args, result)`` returns ``(size, flag)`` for the span.
        """
        original = getattr(module, attr)
        label = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"
        name_id = self._name_id(label)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.pass_id.append(self.current_pass)
            self.end.append(0.0)
            self.size.append(0)
            self.flag.append(0)
            self._stack.append(span)
            self.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()
            if measure is not None:
                self.size[span], self.flag[span] = measure(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        from mtspike import (datasets, learning, metrics, model_io, network,
                             pipeline, srm)

        def rows(args, _result):
            matrix = args[1]
            return matrix.shape[0], int(id(matrix) in self.eval_ids)

        def images(args, _result):
            return len(args[0]), SCHEMES.index(args[1].scheme)

        def idx_bytes(args, _result):
            return sum(Path(p).stat().st_size for p in args[:2]), 0

        def crossed(_args, result):
            return 1, int(result is not None)

        for module in (learning, metrics, network):
            self.wrap(module, "forward_batch", rows)
        for module in (learning, metrics):
            self.wrap(module, "read_class_batch")
        for module in (pipeline, datasets):
            self.wrap(module, "encode_dataset", images)
            self.wrap(module, "load_mnist_idx", idx_bytes)
        self.wrap(pipeline, "load_iris")
        self.wrap(pipeline, "prepare_data")
        self.wrap(learning, "train")
        self.wrap(metrics, "evaluate")
        self.wrap(metrics, "dataset_spike_count")
        self.wrap(model_io, "save_model")
        self.wrap(model_io, "load_model")
        self.wrap(srm, "threshold_crossing", crossed)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, plus each span's duration and self time."""
        cols = {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "pass_id": np.array(self.pass_id, dtype=np.int32),
            "size": np.array(self.size, dtype=np.int64),
            "flag": np.array(self.flag, dtype=np.int8),
        }
        duration = np.array(self.end) - np.array(self.start)
        children = np.zeros_like(duration)
        has_parent = cols["parent"] >= 0
        np.add.at(children, cols["parent"][has_parent], duration[has_parent])
        cols["duration"] = duration
        cols["self"] = duration - children
        return cols
