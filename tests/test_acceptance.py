"""Acceptance checks: one test per shipped claim, one verdict line each.

Each test records a ``criterion N PASS/FAIL/SKIP`` line (replayed in the
terminal summary) and then asserts.  The two MNIST benchmarks need the real
IDX files; without them those checks skip loudly rather than pretending.
"""

import copy
import os
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from _criteria import record
from _reference_coding import _neuron_count
from _reference_srm import psp_kernel
from conftest import mnist_data_dir
from mtspike import cli
from mtspike.coding import CodingParams
from mtspike.config import preset
from mtspike.datasets import EncodedDataset, EncodingSpec, encode_dataset
from mtspike.learning import TrainConfig, backward, output_residual, train
from mtspike.metrics import dataset_spike_count, energy
from mtspike.model_io import load_model, save_model
from mtspike.network import forward_batch, init_network
from mtspike.pipeline import _load_raw, execute_run
from mtspike.readout import TargetScheme, read_class_batch, target_matrix
from mtspike.srm import SrmParams, threshold_crossing
from test_learning import finite_difference

SEEDS = (0, 1, 2, 3, 4)
SUBSET_TRAIN, SUBSET_TEST = 10_000, 2_000


def passfail(number, ok, detail):
    record(number, "PASS" if ok else "FAIL", detail)
    if not ok:
        pytest.fail(f"criterion {number}: {detail}")


def skip(number, reason):
    record(number, "SKIP", reason)
    pytest.skip(reason)


def run_preset(name, iris_path, seed):
    cfg = preset(name)
    cfg.dataset = replace(cfg.dataset, path=str(iris_path))
    cfg.train = replace(cfg.train, seed=seed)
    return execute_run(cfg)


@pytest.fixture(scope="module")
def iris_runs(iris_path):
    """Five seeded runs of each iris benchmark, timed."""
    out = {}
    for name in ("mt1_iris", "slmt3_iris"):
        start = time.perf_counter()
        results = [run_preset(name, iris_path, seed) for seed in SEEDS]
        out[name] = {
            "accuracies": [r.metrics.test_accuracy for r in results],
            "test_size": int(results[0].metrics.confusion.sum()),
            "elapsed": time.perf_counter() - start,
        }
    return out


@pytest.fixture(scope="module")
def mnist_subset_run():
    """Runs a preset on the 10k/2k real-MNIST subset, caching by name."""
    cache = {}

    def run(name):
        if name not in cache:
            cfg = preset(name)
            cfg.dataset = replace(
                cfg.dataset, dir=str(mnist_data_dir()),
                train_subset=SUBSET_TRAIN, test_subset=SUBSET_TEST,
            )
            start = time.perf_counter()
            result = execute_run(cfg)
            cache[name] = (result.metrics.test_accuracy,
                           time.perf_counter() - start)
        return cache[name]

    return run


def test_criterion_01_iris_hidden_layer_benchmark(iris_runs):
    stats = iris_runs["mt1_iris"]
    n = stats["test_size"]
    hits = [round(a * n) for a in stats["accuracies"]]
    median_hits = statistics.median(hits)
    ok = median_hits >= 28 and n == 30 and stats["elapsed"] < 60.0
    passfail(
        1, ok,
        f"4-25-1 test hits per seed {hits} of {n}, median {median_hits:.0f} "
        f"(need >= 28), 5x2000 epochs in {stats['elapsed']:.1f}s (limit 60s)",
    )


def test_criterion_02_single_layer_gap(iris_runs):
    single = statistics.median(iris_runs["slmt3_iris"]["accuracies"])
    deep = statistics.median(iris_runs["mt1_iris"]["accuracies"])
    gap = deep - single
    ok = single <= 0.70 and gap >= 0.20
    passfail(
        2, ok,
        f"4-3 median accuracy {single:.1%} (cap 70%), 4-25-1 leads by "
        f"{gap * 100:.1f}pp (need >= 20pp) on the same split and seeds",
    )


def test_criterion_03_mnist_multilayer_accuracy(mnist_subset_run):
    if mnist_data_dir() is None:
        skip(3, "MNIST IDX files not found (put them in data/mnist or point "
                "MTSPIKE_DATA_DIR at them); image benchmark needs real data")
    accuracy, elapsed = mnist_subset_run("mt10_mnist_heu")
    ok = accuracy >= 0.90 and elapsed < 900.0
    parts = [
        f"169-500-10 subset ({SUBSET_TRAIN}/{SUBSET_TEST}) accuracy "
        f"{accuracy:.1%} (need >= 90%) in {elapsed / 60:.1f} min (limit 15)"
    ]
    if os.environ.get("MTSPIKE_FULL_MNIST"):
        cfg = preset("mt10_mnist_heu")
        cfg.dataset = replace(cfg.dataset, dir=str(mnist_data_dir()))
        full = execute_run(cfg).metrics.test_accuracy
        ok = ok and full >= 0.96
        parts.append(f"full-split accuracy {full:.1%} (need >= 96%)")
    else:
        parts.append("full 60k run skipped (set MTSPIKE_FULL_MNIST=1)")
    passfail(3, ok, "; ".join(parts))


def test_criterion_04_heuristic_loss_benefit(mnist_subset_run):
    if mnist_data_dir() is None:
        skip(4, "MNIST IDX files not found; the heuristic-loss comparison "
                "needs real data")
    lines, ok = [], True
    for pair in ("mt10", "slmt10"):
        heu, _ = mnist_subset_run(f"{pair}_mnist_heu")
        plain, _ = mnist_subset_run(f"{pair}_mnist_noheu")
        lift = (heu - plain) * 100
        ok = ok and lift >= 1.0
        lines.append(f"{pair}: {heu:.1%} vs {plain:.1%} ({lift:+.1f}pp)")
    passfail(4, ok, "heuristic lift on the same subset and seed, "
                    + "; ".join(lines) + " (need >= +1.0pp each)")


def test_criterion_05_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(20):
        net = init_network([5, 7, 3], rng=rng, window=16.0)
        delays = rng.uniform(0.0, 16.0, size=(3, 5))
        targets = rng.uniform(16.0, 22.0, size=(3, 3))
        trace = forward_batch(net, delays)
        grads = backward(net, trace, 2.0 * (trace.outputs - targets), mode="exact")
        fd = finite_difference(net, delays, targets, step=1e-4)
        for g, f in zip(grads, fd):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-8)
            worst = max(worst, float(np.max(np.abs(g - f) / denom)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5
    passfail(
        5, ok,
        f"exact backward vs central differences on 20 random 5-7-3 nets: "
        f"worst relative error {worst:.2e} (bound 1e-5) in {elapsed:.1f}s",
    )


def test_criterion_06_benchmark_structure(tmp_path, monkeypatch, capsys):
    geometry = _neuron_count(28, 4, 2)
    expected = {
        "mt1_iris": 125,
        "mt1_mnist": 85_000,
        "mt10_mnist_heu": 89_500,
        "slmt10_mnist_noheu": 1_690,
    }
    # an empty data dir makes every preset fail fast after reporting its shape
    monkeypatch.setenv("MTSPIKE_DATA_DIR", str(tmp_path))
    reported = {}
    for name in expected:
        cli.main(["train", "--preset", name, "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        value = next(l for l in lines if l.startswith("weights: "))
        reported[name] = int(value.split()[1])
    ok = geometry == 169 and reported == expected
    passfail(
        6, ok,
        f"conv coding of 28x28 with kernel 4 stride 2 gives {geometry} input "
        f"neurons (need 169); preset weight counts {reported}",
    )


def test_criterion_07_spike_budget_and_energy(digits_test):
    conv = EncodingSpec(scheme="conv",
                        params=CodingParams(window=16.0, unit=1.0,
                                            kernel=4, stride=2))
    pixel = EncodingSpec(scheme="one_to_one", params=CodingParams())
    data_dir = mnist_data_dir()
    if data_dir is not None:
        cfg = preset("mt10_mnist_noheu")
        cfg.dataset = replace(cfg.dataset, dir=str(data_dir),
                              test_subset=SUBSET_TEST)
        _, raw = _load_raw(cfg)
        source = f"real test subset ({len(raw)} images)"
    else:
        raw = digits_test
        source = f"synthetic digits ({len(raw)} images)"
    conv_data = encode_dataset(raw, conv)
    pixel_data = encode_dataset(raw, pixel)

    net = init_network([169, 500, 10], rng=np.random.default_rng(0), window=16.0)
    per_inference = conv_data.fired.sum(axis=1) + sum(net.layer_sizes[1:])
    cap_ok = int(per_inference.max()) <= 679
    total = dataset_spike_count(conv_data, net)
    assert total == int(per_inference.sum())

    neuron_ratio = (28 * 28) / _neuron_count(28, 4, 2)
    spike_ratio = pixel_data.fired.sum() / conv_data.fired.sum()
    ok = cap_ok and neuron_ratio >= 2.0
    passfail(
        7, ok,
        f"per-inference spikes max {int(per_inference.max())} (cap 679) on "
        f"{source}; input-layer reduction 784/169 = {neuron_ratio:.2f}x "
        f"(need >= 2x); measured input-spike ratio {spike_ratio:.2f}x; "
        f"total energy {energy(total):.0f} alpha-units at alpha=1",
    )


def test_criterion_08_partial_updates_stay_inside_gamma():
    scheme = TargetScheme(mode="multi_neuron", window=16.0, num_classes=10,
                          excitatory_offset=0.0, inhibitory_offset=4.0)
    # one sample per class, every residual nonzero before masking
    resid, terms = output_residual(np.full((10, 10), 30.0), target_matrix(scheme),
                                   np.arange(10), heuristic=True)
    sizes_ok = (np.count_nonzero(resid, axis=1).tolist() == list(range(1, 11))
                and terms == 55)
    rng = np.random.default_rng(11)
    cfg = TrainConfig(learning_rate=0.5, batch_size=1, epochs=1, heuristic=True)
    untouched = moved = 0
    base = None
    for i in range(1000):
        if i % 100 == 0:
            base = init_network([12, 8, 10], rng=rng, window=16.0)
        net = copy.deepcopy(base)
        delays = rng.uniform(0.0, 16.0, size=(1, 12))
        label = int(rng.integers(10))
        data = EncodedDataset(delays=delays, fired=np.ones((1, 12), bool),
                              labels=np.array([label]))
        train(net, data, scheme, cfg, rng=np.random.default_rng(0))
        out_before, out_after = base.weights[-1], net.weights[-1]
        outside = np.arange(label + 1, 10)
        if out_after[:, outside].tobytes() == out_before[:, outside].tobytes():
            untouched += 1
        if np.any(out_after[:, : label + 1] != out_before[:, : label + 1]):
            moved += 1
    ok = sizes_ok and untouched == 1000
    passfail(
        8, ok,
        f"1000 single-sample heuristic updates: columns outside the involved "
        f"set bit-identical in {untouched}/1000, involved columns moved in "
        f"{moved}/1000, involved-set size equals class index + 1 for all "
        f"10 classes",
    )


def test_criterion_09_readout_identity_and_srm_properties():
    schemes = [
        TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                     excitatory_offset=3.0),
        TargetScheme(mode="single_neuron", window=16.0, num_classes=10,
                     excitatory_offset=1.0),
        TargetScheme(mode="multi_neuron", window=16.0, num_classes=3,
                     excitatory_offset=0.0, inhibitory_offset=4.0),
        TargetScheme(mode="multi_neuron", window=16.0, num_classes=10,
                     excitatory_offset=0.0, inhibitory_offset=4.0),
    ]
    identity_ok = all(
        np.array_equal(read_class_batch(s, target_matrix(s)), np.arange(s.num_classes))
        for s in schemes
    )

    params = SrmParams()
    kernel_ok = all(
        psp_kernel(np.array([d, d - 0.5]), d, params).tolist() == [0.0, 0.0]
        for d in (0.0, 1.5, 7.0)
    )

    rng = np.random.default_rng(42)
    usable = monotone = 0
    from mtspike.coding import DelayVector

    for _ in range(100):
        n = int(rng.integers(2, 6))
        drive = DelayVector(delays=rng.uniform(0.0, 8.0, n),
                            fired=np.ones(n, bool))
        weights = rng.uniform(0.8, 2.0, n)
        base = threshold_crossing(drive, weights, params)
        if base is None:
            continue
        usable += 1
        boosted = weights.copy()
        boosted[int(rng.integers(n))] += rng.uniform(0.1, 1.0)
        later = threshold_crossing(drive, boosted, params)
        if later is not None and later <= base:
            monotone += 1
    srm_ok = usable >= 80 and monotone == usable
    ok = identity_ok and kernel_ok and srm_ok
    passfail(
        9, ok,
        f"readout(target(c)) == c for every class in both modes: "
        f"{identity_ok}; kernel zero at onset: {kernel_ok}; crossing never "
        f"later after a weight increase in {monotone}/{usable} usable of "
        f"100 random instances",
    )


def test_criterion_10_determinism_and_round_trip(iris_path, tmp_path):
    cfg = preset("mt1_iris")
    cfg.dataset = replace(cfg.dataset, path=str(iris_path))
    cfg.train = replace(cfg.train, epochs=300)
    first = execute_run(cfg)
    save_model(first.model, tmp_path / "first")

    again = preset("mt1_iris")
    again.dataset = replace(again.dataset, path=str(iris_path))
    again.train = replace(again.train, epochs=300)
    save_model(execute_run(again).model, tmp_path / "second")

    identical = ((tmp_path / "first").read_bytes()
                 == (tmp_path / "second").read_bytes())
    loaded = load_model(tmp_path / "first")
    round_trip = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(loaded.network.weights, first.model.network.weights)
    ) and loaded.scheme == first.model.scheme
    ok = identical and round_trip
    passfail(
        10, ok,
        f"two runs of the same config+seed wrote byte-identical model files: "
        f"{identical}; save/load returns bit-exact weights: {round_trip}",
    )
