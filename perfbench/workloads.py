"""The four benchmark workloads: set-up, one timed pass, output checks.

Every workload is a closed loop with one caller: a pass starts when the
previous one ends.  An *operation* is the unit a failure is counted against:
an epoch on the training workloads, an inference pass on ``digits_infer``
and one simulated neuron on ``srm_fidelity``.

Why these four:

* ``digits_train`` trains ``mt10_mnist_noheu`` (169-500-10) for 20 epochs on
  10k/2k synthetic digits read back from IDX files.  It is bound by array
  work on the 169x500 weights (products, gradients, updates), and its
  accuracy leaves chance (0.1) only after about epoch 7 and reaches
  0.90-1.00 by epoch 20, so ``test_accuracy`` catches a broken update.
* ``iris_seeds`` trains ``mt1_iris`` (4-25-1) for 2000 epochs, one seed
  per pass, cycling through 5 seeds: the same calls on 4x25 matrices with
  four batches per epoch, so per-call Python overhead dominates and a
  change that buys FLOPs with per-call cost moves it the other way from
  ``digits_train``.
* ``digits_infer`` loads 10k IDX test images, encodes them with ``conv`` and
  ``one_to_one``, counts spikes, loads a trained model and evaluates it at a
  batch of 10k.  The per-image encoding loop is most of its time.
* ``srm_fidelity`` simulates hidden (fan-in 169) and output (fan-in 500)
  neurons of the same model with the reference SRM neuron, driven by
  encoded digits, so ``srm.py`` is measured at all.

The trained model used by the last two is stored next to this file as
float16 weights (``mt10_weights.npz``, made by ``make_model.py``) and is
written through ``save_model`` during set-up.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from mtspike import (config, datasets, learning, metrics, model_io, network,
                     pipeline, readout, srm)
from mtspike.coding import CodingParams, DelayVector

import digits

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WEIGHTS = HERE / "mt10_weights.npz"

DIGITS_EPOCHS = 20
IRIS_SEEDS = 5
SPIKE_CAP = 679
SRM_POOL_PER_CLASS = 20
SRM_HIDDEN_PER_PASS = 20
SRM_CHECKED = (4, 2)  # hidden and output neurons checked against the fine grid
SRM_REFINE = 10  # the reference grid is this many times finer than dt
EVAL_REPEATS = 5  # evaluate calls timed per trained model


@dataclass
class PassStats:
    """What one pass measured, beyond its wall time."""

    # Timing units as (items, seconds, t0, t1): the training samples of one
    # epoch, the images of one raw-to-class inference pass, or the neurons of
    # one pass.  ``seconds`` excludes speed probes run inside ``[t0, t1]``.
    units: list[tuple[int, float, float, float]] = field(default_factory=list)
    evals: list[tuple[int, float, float, float]] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)
    final_mse: float | None = None

    def __post_init__(self):
        # Arrays, so that a run's bookkeeping does not show in its peak RSS.
        self.units = np.array(self.units, dtype=np.float64).reshape(-1, 4)
        self.evals = np.array(self.evals, dtype=np.float64).reshape(-1, 4)
        self.epoch_s = np.array(self.epoch_s, dtype=np.float64)


def median_time(fn, min_reps: int = 5, budget_s: float = 0.2) -> float:
    """Median wall time of ``fn()`` over at least ``min_reps`` calls."""
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < budget_s and len(times) < 1000):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
        spent += times[-1]
    return statistics.median(times)


def matrix_probes(net, inputs, targets=None, mode: str = "paper") -> dict:
    """Per-matrix forward rate and backward time at the batch shape of ``inputs``.

    Each weight matrix runs alone as a one-matrix sub-network, fed with the
    delays the full network produces at that layer.  Operation counts and
    bytes moved are computed from the shapes (float64 weights and
    activations), not measured.
    """
    out = {}
    batch = inputs.shape[0]
    trace = network.forward_batch(net, inputs)
    for l, w in enumerate(net.weights):
        a, b = w.shape
        sub = network.Network([a, b], [w], activation=net.activation, window=net.window)
        x = trace.delays[l]
        seconds = median_time(lambda: network.forward_batch(sub, x))
        flop = 2 * batch * a * b
        out[f"network.forward.w{l}.gflop_per_s_computed"] = flop / seconds / 1e9
        out[f"network.forward.w{l}.mflop_computed"] = flop / 1e6
        out[f"network.forward.w{l}.mb_moved_computed"] = 8 * (a * b + batch * (a + b)) / 1e6
    if targets is None:
        out["learning.backward.us_per_batch"] = 0.0
    else:
        delta = trace.outputs - targets
        seconds = median_time(lambda: learning.backward(net, trace, delta, mode=mode))
        out["learning.backward.us_per_batch"] = seconds * 1e6
    return out


@dataclass
class ConfigRun:
    """One trained configuration, as the phase-by-phase runner saw it."""

    net: network.Network
    train_data: datasets.EncodedDataset
    test_data: datasets.EncodedDataset
    epochs: list[tuple[float, float]]  # (t0, t1) of each epoch
    eval_t: tuple[float, float]
    accuracy: float
    final_mse: float
    model_digest: str


def run_config(cfg, model_path, tracer=None, on_epoch=None) -> ConfigRun:
    """``execute_run`` then ``save_model``, with each epoch timed from outside.

    Calling ``train(..., epochs=1)`` repeatedly with one shared generator
    trains bit-identically to one call with all epochs, so the model file
    written here must equal the one ``execute_run`` produces; the
    benchmark's tests check that.
    """
    train_enc, test_enc, spec = pipeline.prepare_data(cfg)
    if tracer is not None:
        tracer.mark_eval(test_enc.delays)
    rng = np.random.default_rng(cfg.train.seed)
    net = network.init_network(
        list(cfg.layer_sizes), rng=rng, init_range=cfg.train.init_range,
        window=spec.params.window,
    )
    one_epoch = replace(cfg.train, epochs=1)
    epochs = []
    history = []
    for _ in range(cfg.train.epochs):
        if on_epoch is not None:
            on_epoch()
        t = perf_counter()
        net, stats = learning.train(
            net, train_enc, cfg.scheme, one_epoch, eval_data=test_enc, rng=rng
        )
        epochs.append((t, perf_counter()))
        history.extend(stats)
    t = perf_counter()
    accuracy, _ = metrics.evaluate(net, test_enc, cfg.scheme)
    eval_t = (t, perf_counter())
    metrics.dataset_spike_count(test_enc, net)
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
        "final_test_accuracy": accuracy,
    }
    model = model_io.ModelFile(
        network=net, coding=spec, scheme=cfg.scheme, provenance=provenance
    )
    model_io.save_model(model, model_path)
    return ConfigRun(
        net=net, train_data=train_enc, test_data=test_enc, epochs=epochs,
        eval_t=eval_t, accuracy=accuracy, final_mse=history[-1].mse,
        model_digest=hashlib.sha256(Path(model_path).read_bytes()).hexdigest(),
    )


def write_stored_model(path):
    """Write the stored trained 169-500-10 model as a model file."""
    cfg = config.preset("mt10_mnist_noheu")
    with np.load(WEIGHTS) as stored:
        weights = [stored["w0"].astype(np.float64), stored["w1"].astype(np.float64)]
    net = network.Network(list(cfg.layer_sizes), weights, window=cfg.coding.params.window)
    model = model_io.ModelFile(network=net, coding=cfg.coding, scheme=cfg.scheme,
                               provenance={"run": "perfbench stored model"})
    model_io.save_model(model, path)


class Workload:
    """Base: set-up, passes and checks share ``work_dir`` and the seed.

    ``setup`` runs again before every pass; what the checks need across
    passes is collected on the instance instead.
    """

    name = ""
    min_passes = 3
    accuracy_floor = 0.0
    # Speed-probe parts that resemble the work (see speed.py): of the
    # workload as a whole, and of its evaluate calls, which are batched
    # matrix products except on iris's 30 test rows.
    speed_parts = ("interpreter", "array")
    eval_parts = ("array",)

    def __init__(self, seed: int, work_dir: Path, speed):
        self.seed = seed
        self.work_dir = work_dir
        self.speed = speed
        self.attempted = 0
        self.accuracies: list[float] = []
        self.outputs: list = []  # per pass, what must repeat exactly across passes

    def op(self):
        """Count an operation about to start; the speed probe may run first."""
        self.attempted += 1
        self.speed.tick()

    def setup(self):
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassStats:
        raise NotImplementedError

    def test_accuracy(self) -> float:
        return statistics.median(self.accuracies)

    def checks(self) -> list[tuple[str, bool, str]]:
        return [
            ("accuracy_floor", self.test_accuracy() >= self.accuracy_floor,
             f"test accuracy {self.test_accuracy():.4f} (floor {self.accuracy_floor})"),
            ("deterministic_output", len(set(self.outputs)) == 1,
             f"{len(self.outputs)} same-seed passes gave "
             f"{len(set(self.outputs))} distinct output(s)"),
        ]

    def layer_probes(self) -> dict:
        raise NotImplementedError


def unit(items: int, t0: float, t1: float) -> tuple[int, float, float, float]:
    return items, t1 - t0, t0, t1


def timed_evaluations(run: ConfigRun, scheme) -> list[tuple]:
    """Evaluate calls: the pipeline's own plus repeats on the saved model."""
    n = len(run.test_data)
    evals = [unit(n, *run.eval_t)]
    for _ in range(EVAL_REPEATS - 1):
        t = perf_counter()
        metrics.evaluate(run.net, run.test_data, scheme)
        evals.append(unit(n, t, perf_counter()))
    return evals


class DigitsTrain(Workload):
    name = "digits_train"
    # Chance is 0.1; at epoch 20 the accuracy is 0.90-1.00 depending on the
    # seed, because training is only just past its plateau.
    accuracy_floor = 0.5
    speed_parts = ("array",)

    def setup(self):
        directory = self.work_dir / "mnist"
        directory.mkdir(parents=True, exist_ok=True)
        digits.write_idx(directory, "train", *digits.make_digits(1000, [self.seed, 0]))
        digits.write_idx(directory, "t10k", *digits.make_digits(200, [self.seed, 1]))
        cfg = config.preset("mt10_mnist_noheu")
        cfg.dataset = replace(cfg.dataset, dir=str(directory))
        cfg.train = replace(cfg.train, epochs=DIGITS_EPOCHS)
        self.cfgs = [cfg]

    def run_pass(self, tracer=None) -> PassStats:
        k = len(self.outputs) % len(self.cfgs)
        cfg = self.cfgs[k]
        run = run_config(cfg, self.work_dir / "model.mtspike", tracer, self.op)
        self.last = (run, cfg)
        self.outputs.append((k, run.model_digest))
        self.accuracies.append(run.accuracy)
        return PassStats(
            units=[unit(len(run.train_data), t0, t1) for t0, t1 in run.epochs],
            evals=timed_evaluations(run, cfg.scheme),
            epoch_s=[t1 - t0 for t0, t1 in run.epochs], final_mse=run.final_mse,
        )

    def layer_probes(self):
        run, cfg = self.last
        rows = run.train_data.delays[:cfg.train.batch_size]
        labels = run.train_data.labels[:cfg.train.batch_size]
        targets = readout.target_matrix(cfg.scheme)[labels]
        return matrix_probes(run.net, rows, targets, cfg.train.gradient_mode)


class IrisSeeds(DigitsTrain):
    """One pass trains one seed; passes cycle through the seeds, each twice or more."""

    name = "iris_seeds"
    min_passes = 2 * IRIS_SEEDS
    accuracy_floor = 0.9
    speed_parts = eval_parts = ("interpreter",)

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        csv = self.work_dir / "iris.csv"
        csv.write_bytes((ROOT / "data" / "iris.csv").read_bytes())
        self.cfgs = []
        for k in range(IRIS_SEEDS):
            cfg = config.preset("mt1_iris")
            cfg.dataset = replace(cfg.dataset, path=str(csv))
            cfg.train = replace(cfg.train, seed=IRIS_SEEDS * self.seed + k)
            self.cfgs.append(cfg)

    def test_accuracy(self) -> float:
        """Mean over the seeds; each seed's accuracy is the same on every pass."""
        per_seed = dict(zip((k for k, _ in self.outputs), self.accuracies))
        return statistics.fmean(per_seed.values())

    def checks(self):
        floor = super().checks()[0]
        seen = {k for k, _ in self.outputs}
        repeated = all(sum(1 for k, _ in self.outputs if k == s) >= 2 for s in seen)
        return [floor, (
            "deterministic_output",
            len(seen) == IRIS_SEEDS and repeated and len(set(self.outputs)) == IRIS_SEEDS,
            f"{len(self.outputs)} passes over {len(seen)} seeds wrote "
            f"{len(set(self.outputs))} distinct model file(s)",
        )]


class DigitsInfer(Workload):
    name = "digits_infer"
    accuracy_floor = 0.95

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        images, labels = digits.make_digits(1000, [self.seed, 2])
        self.paths = digits.write_idx(self.work_dir, "t10k", images, labels)
        self.model_path = self.work_dir / "model.mtspike"
        write_stored_model(self.model_path)
        self.conv = config.preset("mt10_mnist_noheu").coding
        self.pixel = datasets.EncodingSpec(scheme="one_to_one", params=CodingParams())

    def run_pass(self, tracer=None) -> PassStats:
        self.op()
        spent, t0 = self.speed.spent, perf_counter()
        raw = datasets.load_mnist_idx(*self.paths)
        conv = datasets.encode_dataset(raw, self.conv)
        self.speed.tick()  # the pass is long: probe inside it too
        model = model_io.load_model(self.model_path)
        if tracer is not None:
            tracer.mark_eval(conv.delays)
        t1 = perf_counter()
        accuracy, confusion = metrics.evaluate(model.network, conv, model.scheme)
        t2 = perf_counter()
        to_class = (len(raw), t2 - t0 - (self.speed.spent - spent), t0, t2)
        self.speed.tick()
        pixel = datasets.encode_dataset(raw, self.pixel)
        self.speed.tick()
        total = metrics.dataset_spike_count(conv, model.network)
        metrics.energy(total)
        self.last = (model.network, conv)
        self.accuracies.append(accuracy)
        per_inference = conv.fired.sum(axis=1) + sum(model.network.layer_sizes[1:])
        self.outputs.append((
            accuracy, int(confusion.sum()), total, int(conv.fired.sum()),
            int(per_inference.max()), int(pixel.fired.sum()),
        ))
        return PassStats(units=[to_class], evals=[unit(len(conv), t1, t2)])

    def checks(self):
        _, count, total, fired, worst, _ = self.outputs[0]
        overhead = sum(self.last[0].layer_sizes[1:])
        return super().checks() + [
            ("spike_cap", worst <= SPIKE_CAP,
             f"max spikes per inference {worst} (cap {SPIKE_CAP})"),
            ("spike_total", count == len(self.last[1]) and total == fired + overhead * count,
             f"total spikes {total} == fired {fired} + {overhead} x {count} images"),
        ]

    def layer_probes(self):
        net, conv = self.last
        return matrix_probes(net, conv.delays)


def reference_crossing(inputs: DelayVector, weights, params, until: float) -> float | None:
    """First threshold crossing on a grid ``SRM_REFINE`` times finer than ``dt``.

    Written independently of ``srm.py``: the potential is summed over inputs
    in vectorized chunks, on ``[0, until]`` only.
    """
    step = params.dt / SRM_REFINE
    times = np.arange(int(round(until / step)) + 1) * step
    voltage = np.zeros_like(times)
    delays = inputs.delays[inputs.fired]
    w = np.asarray(weights)[inputs.fired]
    if delays.size == 0:
        return None
    for start in range(0, delays.size, 8):
        s = times[np.newaxis, :] - delays[start:start + 8, np.newaxis]
        kernel = np.exp(-s / params.tau_decay) - np.exp(-s / params.tau_rise)
        voltage += w[start:start + 8] @ np.where(s >= 0, kernel, 0.0)
    hits = np.nonzero((times > delays.min()) & (voltage >= params.v_threshold))[0]
    return float(times[hits[0]]) if hits.size else None


class SrmFidelity(Workload):
    """One pass evaluates the model on the pool and simulates the SRM
    neurons for one pool image: a fixed sample of hidden neurons and every
    output neuron."""

    name = "srm_fidelity"
    accuracy_floor = 0.95

    def __init__(self, seed: int, work_dir: Path, speed):
        super().__init__(seed, work_dir, speed)
        self.neurons: list[tuple] = []  # (image, layer, neuron, crossing)

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        images, labels = digits.make_digits(SRM_POOL_PER_CLASS, [self.seed, 3])
        cfg = config.preset("mt10_mnist_noheu")
        self.pool = datasets.encode_dataset(datasets.RawDataset(images, labels), cfg.coding)
        path = self.work_dir / "model.mtspike"
        write_stored_model(path)
        self.model = model_io.load_model(path)
        rng = np.random.default_rng([self.seed, 4])
        hidden = self.model.network.layer_sizes[1]
        self.hidden = rng.choice(hidden, SRM_HIDDEN_PER_PASS, replace=False)
        self.params = srm.SrmParams()

    def inputs(self, image: int, layer: int) -> DelayVector:
        """What drives layer ``layer + 1`` for one pool image."""
        if layer == 0:
            return DelayVector(self.pool.delays[image], self.pool.fired[image])
        net = self.model.network
        hidden = network.forward_batch(net, self.pool.delays[image:image + 1]).delays[1][0]
        return DelayVector(hidden, np.ones(hidden.shape, bool))

    def run_pass(self, tracer=None) -> PassStats:
        net, scheme = self.model.network, self.model.scheme
        if tracer is not None:
            tracer.mark_eval(self.pool.delays)
        t = perf_counter()
        accuracy, _ = metrics.evaluate(net, self.pool, scheme)
        evals = [unit(len(self.pool), t, perf_counter())]
        self.accuracies.append(accuracy)
        self.outputs.append(accuracy)
        image = len(self.accuracies) % len(self.pool)
        start, seconds, count = perf_counter(), 0.0, 0
        for layer, neurons in ((0, self.hidden), (1, range(net.layer_sizes[2]))):
            inputs = self.inputs(image, layer)
            for j in neurons:
                self.op()
                t = perf_counter()
                crossing = srm.threshold_crossing(inputs, net.weights[layer][:, j], self.params)
                seconds += perf_counter() - t
                self.neurons.append((image, layer, int(j), crossing))
                count += 1
        return PassStats(units=[(count, seconds, start, perf_counter())], evals=evals)

    def checks(self):
        net, params = self.model.network, self.params
        checked, worst, bad = 0, 0.0, []
        for layer, count in enumerate(SRM_CHECKED):
            picked = [n for n in self.neurons if n[1] == layer][:count]
            for image, _, j, crossing in picked:
                until = params.horizon if crossing is None else crossing + params.dt
                ref = reference_crossing(self.inputs(image, layer), net.weights[layer][:, j],
                                         params, until)
                checked += 1
                if (ref is None) != (crossing is None):
                    bad.append((layer, j, crossing, ref))
                elif ref is not None:
                    worst = max(worst, abs(ref - crossing))
                    if abs(ref - crossing) > params.dt + 1e-9:
                        bad.append((layer, j, crossing, ref))
        return super().checks() + [
            ("srm_reference", not bad and checked == sum(SRM_CHECKED),
             f"{checked} crossings vs a {SRM_REFINE}x finer grid: worst gap "
             f"{worst:.4f} (bound dt={params.dt}), mismatches {bad}"),
        ]

    def layer_probes(self):
        return matrix_probes(self.model.network, self.pool.delays)


WORKLOADS = {w.name: w for w in (DigitsTrain, IrisSeeds, DigitsInfer, SrmFidelity)}
