#!/usr/bin/env python3
"""mtspike benchmark: one seeded workload, measured for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload digits_train --seed 0 --seconds 20 --trace 0

Workloads are ``digits_train``, ``iris_seeds``, ``digits_infer`` and
``srm_fidelity`` (see ``workloads.py`` for why each exists).  The program is
imported from ``src/`` of the same checkout; the benchmark refuses to run
against any other copy.  Everything runs in this one process with BLAS
pinned to one thread, set here before numpy is first imported.

Each pass is preceded by a fresh set-up of the workload's inputs; passes
repeat until ``--seconds`` would be exceeded (at least ``min_passes`` of
the workload), then the outputs are checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment, the checks and,
when traced, a summary of every span.

``--trace 0`` reports the end-to-end metrics, the same set on every
workload:

* ``setup_s``: median time of one set-up of the workload's inputs.
* ``run_s``: median time of one pass.  A pass is one full pipeline run
  (prepare, 20 epochs, evaluate, save) on ``digits_train``, one seed's run
  on ``iris_seeds``, one inference pass with spike counting on
  ``digits_infer``, and one image's neurons on ``srm_fidelity``.
* ``items_per_s``: median work rate over the run's timing units --
  training samples per second of each epoch (training workloads), images
  per second from raw IDX bytes to classes (``digits_infer``), SRM neurons
  per second of each pass (``srm_fidelity``).
* ``eval_samples_per_s``: median over ``evaluate`` calls of test samples
  per second.
* ``test_accuracy``: model accuracy on the workload's test data (mean over
  the seeds on ``iris_seeds``).
* ``peak_rss_mb``: peak resident memory after the passes, before checks.
* ``ops_ok_frac``: operations (epochs, inference passes, neurons, checks)
  that neither raised an ``MTSpikeError`` nor failed a check, over those
  attempted.

The shared host this was built on switches between CPU speeds for seconds
to minutes at a time, so times are reported at reference CPU speed: each
measured interval is scaled by a speed probe timed around it
(``speed.py``).  The unscaled values are printed on the line before the
result, under ``raw``, with the probe's own times.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans recorded around calls into each module's public
functions, plus ``trace.overhead_frac``, the median traced pass time over
the median untraced one.
"""

from __future__ import annotations

import os

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("digits_train", "iris_seeds", "digits_infer", "srm_fidelity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import ``mtspike`` from this checkout's ``src/``, or exit nonzero."""
    if not (SRC / "mtspike" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'mtspike'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mtspike

    if Path(mtspike.__file__).resolve().parent != (SRC / "mtspike").resolve():
        sys.exit(f"perfbench: imported mtspike from {mtspike.__file__}, not {SRC}")


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mtspike").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(PINNED_THREADS),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def timed(speed, fn):
    """Run ``fn``; return its result and ``(seconds, t0, t1)`` without probe time."""
    spent = speed.spent
    t0 = perf_counter()
    result = fn()
    t1 = perf_counter()
    return result, (t1 - t0 - (speed.spent - spent), t0, t1)


def run_passes(workload, speed, seconds, tracer):
    """Closed loop of set-up plus pass; in traced mode every second pass is traced.

    Set-up is repeated before every pass, so its times spread over the run
    like the passes' do.  Returns the set-ups as ``(seconds, t0, t1)``, the
    passes as ``(traced, (seconds, t0, t1), PassStats)`` and the error that
    stopped the loop early, if any.
    """
    from mtspike.errors import MTSpikeError

    def traced_pass():
        tracer.current_pass = len(passes)
        with tracer:
            return workload.run_pass(tracer)

    setups = []
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        try:
            speed.tick()
            _, setup = timed(speed, workload.setup)
            setups.append(setup)
            speed.tick()
            stats, wall = timed(speed, traced_pass if traced else workload.run_pass)
        except MTSpikeError as exc:
            return setups, passes, exc
        passes.append((traced, wall, stats))
        typical = (statistics.median(s[0] for s in setups)
                   + statistics.median(p[1][0] for p in passes))
        if len(passes) >= workload.min_passes and perf_counter() - start + typical > seconds:
            return setups, passes, None


def end_to_end(workload, speed, passes, setups, rss_mb, ok_frac, scale=True) -> dict:
    """End-to-end metrics at reference speed (see ``speed.py``), or raw."""
    def seconds(sec, t0, t1, parts=workload.speed_parts):
        return sec * speed.factor(t0, t1, parts) if scale else sec

    units = np.concatenate([p[2].units for p in passes])
    evals = np.concatenate([p[2].evals for p in passes])
    return {
        "setup_s": statistics.median(seconds(*s) for s in setups),
        "run_s": statistics.median(seconds(*p[1]) for p in passes),
        "items_per_s": statistics.median(n / seconds(*u) for n, *u in units),
        "eval_samples_per_s": statistics.median(
            n / seconds(*u, workload.eval_parts) for n, *u in evals),
        "test_accuracy": workload.test_accuracy(),
        "peak_rss_mb": rss_mb,
        "ops_ok_frac": ok_frac,
    }


def per_layer(workload, tracer, passes) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and a per-span summary."""
    from mtspike.datasets import SCHEMES

    spans = tracer.arrays()
    n_traced = sum(1 for p in passes if p[0])
    duration, size, flag = spans["duration"], spans["size"], spans["flag"]

    def named(label):
        if label not in tracer.names:
            return np.zeros(duration.shape, dtype=bool)
        return spans["name"] == tracer.names.index(label)

    def ratio(num, den):
        return float(num / den) if den else 0.0

    out = {}
    encode = named("datasets.encode_dataset")
    for i, scheme in enumerate(SCHEMES):
        m = encode & (flag == i)
        out[f"datasets.encode_dataset.us_per_image.{scheme}"] = ratio(
            duration[m].sum() * 1e6, size[m].sum())
    m = named("datasets.load_mnist_idx")
    out["datasets.load_mnist_idx.mb_per_s"] = ratio(size[m].sum() / 1e6, duration[m].sum())
    m = named("pipeline.prepare_data")
    out["pipeline.prepare_data.s"] = ratio(duration[m].sum(), m.sum())

    forward = named("network.forward_batch")
    train = named("learning.train")
    in_train = np.zeros_like(forward)
    parents = spans["parent"][forward]
    in_train[forward] = (parents >= 0) & train[np.maximum(parents, 0)]
    train_fwd = forward & in_train & (flag == 0)
    eval_fwd = forward & ~train_fwd
    out["network.forward_batch.calls"] = ratio(forward.sum(), n_traced)
    out["network.forward_batch.us_per_sample.train"] = ratio(
        duration[train_fwd].sum() * 1e6, size[train_fwd].sum())
    out["network.forward_batch.us_per_sample.eval"] = ratio(
        duration[eval_fwd].sum() * 1e6, size[eval_fwd].sum())
    out["learning.train.self_s"] = ratio(spans["self"][train].sum(), n_traced)
    out["learning.train.self_share"] = ratio(spans["self"][train].sum(), duration[train].sum())

    untraced = [p[2] for p in passes if not p[0]]
    epochs = np.concatenate([s.epoch_s for s in untraced])
    for q in (50, 99):
        out[f"learning.train.epoch_ms_p{q}"] = (
            float(np.percentile(epochs, q)) * 1e3 if epochs.size else 0.0)
    out["learning.train.final_mse"] = (
        statistics.median(s.final_mse for s in untraced) if epochs.size else 0.0)

    m = named("readout.read_class_batch")
    out["readout.read_class_batch.calls"] = ratio(m.sum(), n_traced)
    out["readout.read_class_batch.us_per_call"] = ratio(duration[m].sum() * 1e6, m.sum())
    for label in ("metrics.evaluate", "metrics.dataset_spike_count"):
        m = named(label)
        out[f"{label}.s"] = ratio(duration[m].sum(), m.sum())
    for label in ("model_io.save_model", "model_io.load_model"):
        m = named(label)
        out[f"{label}.ms"] = ratio(duration[m].sum() * 1e3, m.sum())
    m = named("srm.threshold_crossing")
    out["srm.threshold_crossing.ms_per_neuron"] = ratio(duration[m].sum() * 1e3, m.sum())
    out["srm.crossed_frac"] = ratio(flag[m].sum(), m.sum())

    out.update(workload.layer_probes())
    out["trace.overhead_frac"] = ratio(
        statistics.median(p[1][0] for p in passes if p[0]),
        statistics.median(p[1][0] for p in passes if not p[0]),
    )
    summary = {
        label: {
            "calls": int(named(label).sum()),
            "total_s": float(duration[named(label)].sum()),
            "self_s": float(spans["self"][named(label)].sum()),
        }
        for label in tracer.names
    }
    return out, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        speed = SpeedProbe()
        workload = WORKLOADS[args.workload](args.seed, work_dir, speed)
        tracer = Tracer() if args.trace else None
        setups, passes, error = run_passes(workload, speed, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before checks
        checks = [] if error else workload.checks()
        attempted = workload.attempted + len(checks)
        failed = int(error is not None) + sum(1 for c in checks if not c[1])
        correct = failed == 0
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": len(passes), "env": environment(),
            "probe_ms": {part: [float(q) for q in np.percentile(v, [10, 50, 90]) * 1e3]
                         for part, v in speed.values.items()},
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "error": None if error is None else f"[{error.code}] {error}",
        }
        if not correct:
            metrics = {}
        elif args.trace:
            metrics, details["spans"] = per_layer(workload, tracer, passes)
        else:
            ok_frac = 1 - failed / attempted
            measured = (workload, speed, passes, setups, rss_mb, ok_frac)
            metrics = end_to_end(*measured)
            details["raw"] = end_to_end(*measured, scale=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
