"""Command-line behaviour: output contracts, files written, error lines."""

import dataclasses
import gzip
import json
import logging
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mtspike import cli, datasets, metrics, pipeline, srm
from mtspike.coding import CodingParams, DelayVector, _encode_numeric
from mtspike.config import load_config
from mtspike.datasets import save_mnist_idx
from mtspike.model_io import load_model
from mtspike.pipeline import _load_raw, execute_run

from conftest import REPO_ROOT, make_digits
from test_model_io import rewrite_header


def write_iris_config(tmp_path, iris_path, **overrides):
    doc = {
        "name": "cli_iris",
        "dataset": {"kind": "iris", "path": str(iris_path)},
        "coding": {"scheme": "numeric", "window": 16.0, "unit": 1.0},
        "layers": [4, 3],
        "readout": {
            "mode": "multi_neuron",
            "num_classes": 3,
            "excitatory_offset": 0.0,
            "inhibitory_offset": 4.0,
        },
        "train": {"learning_rate": 0.01, "batch_size": 30, "epochs": 10, "seed": 0},
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_train_writes_model_and_metrics(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path)
    rc, out, _ = run_cli(capsys, "train", "--config", str(cfg),
                         "--out", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "run: cli_iris"
    assert lines[1] == "layers: 4-3"
    assert lines[2] == "weights: 12"
    assert any(l.startswith("final_test_accuracy: ") for l in lines)

    model_path = tmp_path / "cli_iris.mtspike"
    metrics_path = tmp_path / "cli_iris_metrics.csv"
    assert model_path.is_file() and metrics_path.is_file()
    model = load_model(model_path)
    assert model.network.layer_sizes == [4, 3]
    assert model.coding.ranges is not None  # fitted ranges travel with the model
    rows = metrics_path.read_text().splitlines()
    assert rows[0] == "epoch,mse,train_accuracy,test_accuracy"
    assert len(rows) == 11


def test_train_honours_output_section_and_overrides(tmp_path, iris_path, capsys):
    cfg = write_iris_config(
        tmp_path, iris_path,
        output={"model": str(tmp_path / "custom.bin"),
                "metrics": str(tmp_path / "custom.csv")},
    )
    rc, out, _ = run_cli(capsys, "train", "--config", str(cfg),
                         "--out", str(tmp_path), "--epochs", "3")
    assert rc == 0
    assert (tmp_path / "custom.bin").is_file()
    assert len((tmp_path / "custom.csv").read_text().splitlines()) == 4
    assert f"model_file: {tmp_path / 'custom.bin'}" in out


def test_train_is_reproducible_across_invocations(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        rc, _, _ = run_cli(capsys, "train", "--config", str(cfg),
                           "--out", str(tmp_path / sub))
        assert rc == 0
    a = (tmp_path / "a" / "cli_iris.mtspike").read_bytes()
    b = (tmp_path / "b" / "cli_iris.mtspike").read_bytes()
    assert a == b
    (tmp_path / "c").mkdir()
    rc, _, _ = run_cli(capsys, "train", "--config", str(cfg),
                       "--out", str(tmp_path / "c"), "--seed", "9")
    assert rc == 0
    assert (tmp_path / "c" / "cli_iris.mtspike").read_bytes() != a


def test_eval_reports_accuracy_and_energy(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path)
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    model = tmp_path / "cli_iris.mtspike"
    rc, out, _ = run_cli(capsys, "eval", "--config", str(cfg),
                         "--model", str(model), "--split", "train",
                         "--out", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "run: cli_iris (train split, 120 samples)"
    assert lines[1].startswith("accuracy: ")
    spikes = int(next(l for l in lines if l.startswith("total_spikes: ")).split()[1])
    assert spikes == 120 * (4 + 3)  # numeric coding always fires, plus outputs
    assert any(l.startswith("energy_alpha_units: ") for l in lines)
    assert (tmp_path / "cli_iris_train_confusion.csv").is_file()


def metrics_rows(tmp_path, iris_path, capsys):
    """Train a 3-epoch run through the CLI; its metrics CSV lines and history."""
    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 3})
    assert run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))[0] == 0
    text = (tmp_path / "cli_iris_metrics.csv").read_bytes().decode("utf-8")
    assert text.endswith("\r\n")
    return text.split("\r\n")[:-1], execute_run(load_config(cfg)).history


def test_train_metrics_csv_layout(tmp_path, iris_path, capsys):
    """A header, then one row per epoch with csv.writer line ends."""
    lines, history = metrics_rows(tmp_path, iris_path, capsys)
    assert lines == ["epoch,mse,train_accuracy,test_accuracy"] + [
        f"{h.epoch},{h.mse!r},{h.train_accuracy!r},{h.test_accuracy!r}" for h in history
    ]
    assert [h.epoch for h in history] == [1, 2, 3]


def test_train_metrics_csv_preserves_float_precision(tmp_path, iris_path, capsys):
    """Every float cell parses back to exactly the trainer's value."""
    lines, history = metrics_rows(tmp_path, iris_path, capsys)
    cells = [[float(cell) for cell in line.split(",")[1:]] for line in lines[1:]]
    assert cells == [[h.mse, h.train_accuracy, h.test_accuracy] for h in history]


def test_eval_confusion_csv_layout(tmp_path, iris_path, capsys):
    """A ``true\\pred`` header, then one row per true class of the test split."""
    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 3})
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    rc, _, _ = run_cli(capsys, "eval", "--config", str(cfg),
                       "--model", str(tmp_path / "cli_iris.mtspike"), "--out", str(tmp_path))
    assert rc == 0
    confusion = execute_run(load_config(cfg)).metrics.confusion
    assert confusion.shape == (3, 3) and confusion.sum() == 30
    rows = [f"{i},{a},{b},{c}\r\n" for i, (a, b, c) in enumerate(confusion.tolist())]
    text = (tmp_path / "cli_iris_test_confusion.csv").read_bytes().decode("utf-8")
    assert text == "true\\pred,0,1,2\r\n" + "".join(rows)


def test_encode_writes_delays_and_histogram(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path)
    rc, out, _ = run_cli(capsys, "encode", "--config", str(cfg),
                         "--split", "test", "--out", str(tmp_path))
    assert rc == 0
    delays = (tmp_path / "cli_iris_test_delays.csv").read_text().splitlines()
    assert delays[0] == "label,n0,n1,n2,n3"
    assert len(delays) == 31
    hist = (tmp_path / "cli_iris_test_histogram.csv").read_text().splitlines()
    assert hist[0] == "delay_units,count"
    assert len(hist) == 18  # slots 0..16
    counted = sum(int(row.split(",")[1]) for row in hist[1:])
    assert counted == 30 * 4


def test_encode_prints_a_negative_zero_delay_as_zero(tmp_path, capsys):
    """Held-out values just past the training maximum encode as -0.0."""
    csv = tmp_path / "iris.csv"
    labels = ["setosa", "versicolor", "virginica"] * 10

    def write(values):
        csv.write_text("".join(f"{v},{v},{v},{v},{name}\n"
                               for v, name in zip(values, labels)))

    write(range(30))  # each row's attributes name the row
    cfg = write_iris_config(tmp_path, csv)
    _, test = _load_raw(load_config(cfg))  # the split follows the labels only
    held_out = set(test.features[:, 0].astype(int).tolist())
    first = min(set(range(30)) - held_out)
    # training rows span 0..10; held-out rows sit 0.1% of that past the top
    write([10.01 if i in held_out else 0.0 if i == first else 10.0 for i in range(30)])
    assert _encode_numeric([[10.01] * 4], [[0.0, 10.0]] * 4, CodingParams())[0].tobytes() \
        == np.full((1, 4), -0.0).tobytes()
    rc, _, _ = run_cli(capsys, "encode", "--config", str(cfg),
                       "--split", "test", "--out", str(tmp_path))
    assert rc == 0
    rows = (tmp_path / "cli_iris_test_delays.csv").read_text().splitlines()[1:]
    assert len(rows) == len(held_out) == 6
    assert all(row.split(",")[1:] == ["0"] * 4 for row in rows)


def test_encode_marks_silent_pixels(tmp_path, idx_dir, capsys):
    doc = {
        "name": "cli_digits",
        "dataset": {"kind": "mnist", "dir": str(idx_dir), "test_subset": 5},
        "coding": {"scheme": "one_to_one", "window": 16.0, "unit": 1.0},
        "layers": [784, 10],
        "readout": {
            "mode": "multi_neuron",
            "num_classes": 10,
            "excitatory_offset": 0.0,
            "inhibitory_offset": 4.0,
        },
    }
    cfg = tmp_path / "digits.json"
    cfg.write_text(json.dumps(doc))
    rc, _, _ = run_cli(capsys, "encode", "--config", str(cfg),
                       "--split", "test", "--out", str(tmp_path))
    assert rc == 0
    body = (tmp_path / "cli_digits_test_delays.csv").read_text()
    assert ",-," in body  # zero-intensity pixels emit no spike


def test_srm_demo_prints_trace_and_crossing(capsys):
    rc, out, _ = run_cli(capsys, "srm-demo", "--delays", "0,1",
                         "--weights", "1.5,1.5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,v"
    assert lines[-1].startswith("# crossing,")
    assert lines[-1] != "# crossing,none"


def test_srm_demo_computes_the_trace_once(monkeypatch, capsys):
    original, calls = srm._voltage_trace, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(srm, "_voltage_trace", counting)
    assert cli.main(["srm-demo"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("# crossing,")
    assert len(calls) == 1


def test_srm_demo_writes_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "srm-demo", "--weights", "0.01,0.01",
                         "--out", str(path))
    assert rc == 0
    assert f"trace_file: {path}" in out
    assert path.read_text().splitlines()[-1] == "# crossing,none"


def test_srm_demo_csv_bytes_are_pinned(tmp_path, capsys):
    """Exponent, negative and crossing formats of a small grid, byte for byte."""
    path = tmp_path / "trace.csv"
    rc, _, _ = run_cli(capsys, "srm-demo", "--delays", "0,5e-5", "--weights", "1,-3",
                       "--horizon", "1e-4", "--dt", "1e-5", "--threshold", "2e-5",
                       "--out", str(path))
    assert rc == 0
    assert path.read_bytes() == (
        b"t,v\n"
        b"0,0\n"
        b"1e-05,7.4999531e-06\n"
        b"2e-05,1.4999813e-05\n"
        b"3e-05,2.2499578e-05\n"
        b"4e-05,2.999925e-05\n"
        b"5e-05,3.7498828e-05\n"
        b"6e-05,2.2498453e-05\n"
        b"7e-05,7.4982657e-06\n"
        b"8e-05,-7.5017343e-06\n"
        b"9e-05,-2.2501547e-05\n"
        b"0.0001,-3.7501172e-05\n"
        b"# crossing,2.66671e-05\n"
    )


def test_srm_demo_without_srm_flags_simulates_srm_params(capsys):
    """``SrmParams`` alone holds the SRM defaults: no SRM flag prints the
    bytes of its five values given as flags."""
    defaults = dataclasses.asdict(srm.SrmParams())
    flags = {"--tau-decay": "tau_decay", "--tau-rise": "tau_rise",
             "--threshold": "v_threshold", "--dt": "dt", "--horizon": "horizon"}
    assert sorted(flags.values()) == sorted(defaults)
    argv = [arg for flag, field in flags.items() for arg in (flag, repr(defaults[field]))]
    rc, given, _ = run_cli(capsys, "srm-demo", *argv)
    assert rc == 0
    assert run_cli(capsys, "srm-demo") == (0, given, "")


def test_srm_demo_formats_a_grid_of_several_slices_point_for_point(monkeypatch, capsys):
    """A 6,401-point grid evaluated and printed in slices of 1,000 points
    (the last one short) prints each point as one whole-grid slice gives it."""
    params = srm.SrmParams(tau_decay=4.0, tau_rise=1.0, v_threshold=1.0, dt=0.01,
                           horizon=64.0)
    inputs, weights = DelayVector(np.array([0.0, 2.0]), np.ones(2, bool)), np.array([1.5, 1.5])
    times, voltage = srm._voltage_trace(inputs, weights, params)
    crossing = srm.threshold_crossing(inputs, weights, params)
    want = "".join(["t,v\n", *(f"{t:.6g},{v:.8g}\n" for t, v in zip(times, voltage)),
                    f"# crossing,{crossing:.6g}\n"])
    monkeypatch.setattr(srm, "_TRACE_SLICE", 1000)
    rc, out, _ = run_cli(capsys, "srm-demo", "--weights", "1.5,1.5")
    assert rc == 0 and len(times) == 6401
    assert out == want


def test_srm_demo_validates_lengths(capsys):
    rc, _, err = run_cli(capsys, "srm-demo", "--delays", "0,1,2",
                         "--weights", "1.0")
    assert rc == 2
    assert "mtspike: error [E_CONFIG]" in err


def test_srm_demo_rejects_non_finite_delays(capsys):
    rc, _, err = run_cli(capsys, "srm-demo", "--delays", "0,nan")
    assert rc == 2
    assert "mtspike: error [E_CONFIG]" in err


def test_srm_demo_weights_near_the_float_limit(capsys):
    """Weights whose sum overflows still give a finite trace; a potential
    past the float range is a config error.  pyproject turns any numpy
    RuntimeWarning on the way into an E_INTERNAL exit."""
    rc, out, err = run_cli(capsys, "srm-demo", "--delays", "2,2", "--weights", "1e308,1e308")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "# crossing,2"
    assert np.isfinite([float(line.split(",")[1]) for line in lines[1:-1]]).all()
    rc, out, err = run_cli(capsys, "srm-demo", "--delays", "2,2,2,2",
                           "--weights", ",".join(["1.7e308"] * 4))
    assert rc == 2 and out == ""
    assert err.strip().startswith("mtspike: error [E_CONFIG]")


def test_srm_demo_fired_flags_silence_inputs(capsys):
    rc, gated, _ = run_cli(capsys, "srm-demo", "--delays", "0,2", "--weights", "1.0,0.8",
                           "--fired", "1,0")
    assert rc == 0
    rc, alone, _ = run_cli(capsys, "srm-demo", "--delays", "0", "--weights", "1.0")
    assert rc == 0
    assert gated == alone


@pytest.mark.parametrize("argv", [
    ["--fired=2,1"],
    ["--fired=0.5,nan"],
    ["--delays", "abc"],
    ["--delays", ","],
    ["--delays", "0,,2", "--weights", "1,0.8"],
    ["--delays", "0,2,"],
], ids=["fired-two", "fired-fraction-nan", "delays-not-a-number", "delays-empty",
        "delays-empty-field", "delays-trailing-comma"])
def test_srm_demo_rejects_malformed_lists(capsys, argv):
    rc, out, err = run_cli(capsys, "srm-demo", *argv)
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]")
    assert out == ""


def test_unknown_log_level_warns_once(monkeypatch, caplog, capsys):
    monkeypatch.setenv("MTSPIKE_LOG", "loud")
    with caplog.at_level(logging.WARNING, logger="mtspike.cli"):
        rc, _, _ = run_cli(capsys, "presets")
    assert rc == 0
    warned = [r for r in caplog.records if "unknown MTSPIKE_LOG level" in r.getMessage()]
    assert len(warned) == 1 and warned[0].levelno == logging.WARNING


@pytest.mark.parametrize("grid", [
    ["--horizon", "1e300", "--dt", "1e-10"],
    ["--dt", "1e-12"],
    ["--tau-rise", "1e-308", "--horizon", "4", "--dt", "1"],
    ["--delays=-1e308,0", "--tau-rise", "0.5"],
    ["--horizon", "1.7e308", "--dt", "1e308", "--delays=0,1.6e308", "--tau-rise", "0.99"],
], ids=["overflowing-steps", "unallocatable", "overflowing-tau-rise", "overflowing-delay",
        "overflowing-last-time"])
def test_srm_demo_rejects_unbuildable_grid(capsys, grid):
    """A grid too large to index or to allocate, one whose last time
    overflows, or one whose time or delays overflow in units of ``tau_rise``,
    is a config error, not NaN or an internal error."""
    rc, out, err = run_cli(capsys, "srm-demo", *grid)
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]")
    assert out == ""


@pytest.mark.parametrize("window", [1e300, 1e12], ids=["overflowing-slots", "unallocatable"])
def test_encode_rejects_unbuildable_histogram(tmp_path, iris_path, capsys, window):
    """A delay grid too fine to index or to allocate is a config error, not an internal one."""
    cfg = write_iris_config(tmp_path, iris_path,
                            coding={"scheme": "numeric", "window": window, "unit": 1.0})
    rc, out, err = run_cli(capsys, "encode", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]")
    assert out == ""
    assert not list(tmp_path.glob("*.csv"))  # no delays file without its histogram


@pytest.mark.parametrize("command", ["train", "eval", "encode"])
def test_out_that_is_a_file_error_line(tmp_path, iris_path, capsys, monkeypatch, command):
    """An ``--out`` that is, or lies under, a regular file: each command
    fails before it trains, evaluates or encodes."""
    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 1})
    assert run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))[0] == 0
    (tmp_path / "afile").touch()
    for module, name in ((pipeline, "execute_run"), (metrics, "_summarize"),
                         (datasets, "encode_dataset")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kw: pytest.fail(name))
    extra = ["--model", str(tmp_path / "cli_iris.mtspike")] if command == "eval" else []
    for blocker in (tmp_path / "afile", tmp_path / "afile" / "sub"):
        rc, _, err = run_cli(capsys, command, "--config", str(cfg), *extra,
                             "--out", str(blocker))
        assert rc == 2
        assert err.strip().startswith("mtspike: error [E_CONFIG]") and str(blocker) in err


@pytest.mark.parametrize("target", ["afile/x.csv", "."], ids=["under-a-file", "a-directory"])
def test_srm_demo_unwritable_out_error_line(tmp_path, capsys, target):
    (tmp_path / "afile").touch()
    path = tmp_path / target
    rc, out, err = run_cli(capsys, "srm-demo", "--out", str(path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]") and str(path) in err
    assert out == ""


@pytest.mark.parametrize("case, code", [
    ("name-train", "E_MODEL"), ("name-encode", "E_CONFIG"), ("dataset.path", "E_DATA"),
    ("output.model", "E_MODEL"), ("output.metrics", "E_CONFIG"), ("--out", "E_CONFIG"),
    ("--config", "E_CONFIG"), ("--model", "E_MODEL"), ("srm-demo --out", "E_CONFIG"),
])
def test_nul_in_a_path_error_line(tmp_path, iris_path, capsys, case, code):
    """``open`` and ``mkdir`` raise ``ValueError`` on a path holding a NUL:
    exit 2 with the code of the file named, the NUL printed as ``\\0``."""
    nul = str(tmp_path / "a\0b")
    section = {"name-train": {"name": "a\0b"}, "name-encode": {"name": "a\0b"},
               "dataset.path": {"dataset": {"kind": "iris", "path": nul}},
               "output.model": {"output": {"model": nul}},
               "output.metrics": {"output": {"metrics": nul}}}.get(case, {})
    cfg = str(write_iris_config(tmp_path, iris_path, train={"epochs": 1}, **section))
    out = nul if case == "--out" else str(tmp_path)
    argv = {"name-encode": ["encode", "--config", cfg, "--out", out],
            "--config": ["train", "--config", nul],
            "--model": ["eval", "--config", cfg, "--model", nul],
            "srm-demo --out": ["srm-demo", "--out", nul],
            }.get(case, ["train", "--config", cfg, "--out", out])
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.strip().startswith(f"mtspike: error [{code}] ")
    assert "a\\0b" in err and "\0" not in err


@pytest.mark.parametrize("outputs, rc", [(True, 0), (False, 2)],
                         ids=["explicit-outputs", "default-outputs"])
def test_run_line_prints_a_nul_in_the_name_as_backslash_zero(tmp_path, iris_path, capsys,
                                                              outputs, rc):
    """The ``run:`` line escapes a NUL as the error line does, whether the
    run trains or its default model path, which holds the name, fails."""
    section = {"output": {"model": str(tmp_path / "m.mtspike"),
                          "metrics": str(tmp_path / "m.csv")}} if outputs else {}
    cfg = write_iris_config(tmp_path, iris_path, name="a\0b", train={"epochs": 1}, **section)
    got, out, _ = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert got == rc
    assert "\0" not in out and out.splitlines()[0] == "run: a\\0b"


@pytest.mark.parametrize("case, code", [
    ("output.metrics", "E_CONFIG"), ("name", "E_MODEL"), ("output.model", "E_MODEL"),
    ("--out a file", "E_CONFIG"), ("--out read-only", "E_MODEL"),
])
def test_train_checks_its_outputs_before_training(tmp_path, iris_path, capsys,
                                                   monkeypatch, case, code):
    """An output ``train`` cannot write exits 2 with today's code before any
    data is read, and leaves no file: the model file's own name reports
    ``E_MODEL``, its directory and the metrics file ``E_CONFIG``."""
    nul = str(tmp_path / "a\0b")
    section = {"output.metrics": {"output": {"metrics": nul}}, "name": {"name": "a\0b"},
               "output.model": {"output": {"model": nul}}}.get(case, {})
    cfg = str(write_iris_config(tmp_path, iris_path, **section))
    out = tmp_path / {"--out a file": "afile", "--out read-only": "locked"}.get(case, "out")
    if case == "--out a file":
        out.touch()
    elif case == "--out read-only":
        out.mkdir(mode=0o555)
        if os.access(out, os.W_OK):
            pytest.skip("this user (root) may write into a read-only directory")
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    monkeypatch.setattr(pipeline, "execute_run", lambda cfg: pytest.fail("trained"))
    rc, out_text, err = run_cli(capsys, "train", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert err.strip().startswith(f"mtspike: error [{code}] cannot write ")
    assert "final_test_accuracy" not in out_text
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files


@pytest.mark.parametrize("level, epoch_lines", [("debug", 2), (" INFO ", 2), ("error", 0)])
def test_an_accepted_log_name_sets_the_level(tmp_path, level, epoch_lines):
    """``MTSPIKE_LOG`` in any case, padded or not, reaches ``logging``: a
    2-epoch run logs its epochs at INFO.  Only a fresh interpreter shows it,
    since ``logging.basicConfig`` does nothing while pytest's capture
    handlers sit on the root logger."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
           "MTSPIKE_DATA_DIR": str(REPO_ROOT / "data"), "MTSPIKE_LOG": level}
    done = subprocess.run([sys.executable, "-m", "mtspike.cli", "train", "--preset", "mt1_iris",
                           "--epochs", "2", "--out", str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True)
    epochs = [line for line in done.stderr.splitlines()
              if line.startswith("INFO mtspike.learning: epoch ")]
    assert len(epochs) == epoch_lines, done.stderr


def test_presets_lists_all_runs(capsys):
    rc, out, _ = run_cli(capsys, "presets")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert any(l.startswith("mt1_iris: iris 4-25-1 single_neuron") for l in lines)
    assert any(l.startswith("mt10_mnist_heu: mnist 169-500-10 multi_neuron")
               and "heuristic" in l for l in lines)


def test_missing_config_file_error_line(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "train", "--config",
                         str(tmp_path / "ghost.json"), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]")


def test_wrongly_typed_config_value_error_line(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path, train={"batch_size": 2.5})
    rc, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]") and "batch_size" in err


def test_training_label_outside_the_readout_error_line(tmp_path, iris_path, capsys):
    """Both iris splits hold label 2; the training set is checked, and named, first."""
    cfg = write_iris_config(tmp_path, iris_path, layers=[4, 2], readout={
        "mode": "multi_neuron", "num_classes": 2,
        "excitatory_offset": 0.0, "inhibitory_offset": 4.0})
    rc, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip() == ("mtspike: error [E_CONFIG] training label 2 is outside "
                           "the readout's 2 classes")


def test_readout_window_other_than_the_coding_window_error_line(tmp_path, capsys):
    """Refused as the config is read, before any data: the dataset path
    names no file, yet the error is the window's, and no model is written."""
    cfg = write_iris_config(tmp_path, tmp_path / "absent.csv", readout={
        "mode": "multi_neuron", "num_classes": 3, "window": 5.0,
        "excitatory_offset": 0.0, "inhibitory_offset": 4.0})
    rc, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip() == ("mtspike: error [E_CONFIG] readout window 5.0 differs from "
                           "coding window 16.0; the targets start at the coding window")
    assert out == "" and not list(tmp_path.glob("*.mtspike"))


@pytest.mark.parametrize("numerics", ["exact64", "fast"])
def test_fast_weights_float32_cannot_hold_error_line(tmp_path, iris_path, capsys, numerics):
    """Weights drawn from [1e38, 1e39] train in float64; under ``fast`` their
    float32 products would overflow before any weight moved, which is bad
    input (exit 2, E_CONFIG), not a divergence (E_DIVERGED) or exit 3."""
    cfg = write_iris_config(tmp_path, iris_path, layers=[4, 5, 3], train={
        "learning_rate": 0.01, "batch_size": 30, "epochs": 10, "seed": 0,
        "init_range": [1e38, 1e39], "numerics": numerics})
    rc, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    if numerics == "exact64":
        assert rc == 0, err
    else:
        assert rc == 2
        assert err.strip().startswith("mtspike: error [E_CONFIG] numerics 'fast' cannot "
                                      "hold weight matrix 0: ")


@pytest.mark.parametrize("overrides", [
    {"layers": [4, 1], "readout": {"mode": "single_neuron", "num_classes": 10**30,
                                   "excitatory_offset": 3.0}},
    {"layers": [4, 10**30, 3]},
    {"layers": [4, -1, 3]},
    {"train": {"init_range": [-1e308, 1e308], "epochs": 1}},
], ids=["num_classes", "hidden-layer", "negative-layer", "init_range-width"])
def test_unbuildable_sizes_error_line(tmp_path, iris_path, capsys, overrides):
    """Sizes numpy rejects before allocating are config errors, not internal ones."""
    cfg = write_iris_config(tmp_path, iris_path, **overrides)
    rc, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]")
    assert out == ""


class _FullMachine:
    """A generator whose ``uniform`` fails, as on a machine without the
    memory, for more than 10**8 values, and that otherwise acts as ``rng``."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high, size):
        if math.prod(size) > 10**8:
            raise MemoryError(f"Unable to allocate an array with shape {size}")
        return self.rng.uniform(low, high, size)


@pytest.mark.parametrize("overrides, message", [
    ({"layers": [4, 10**9, 3]}, "the weights of layers [4, 1000000000, 3]"),
    ({"layers": [4, 60000], "readout": {"mode": "multi_neuron", "num_classes": 60000,
                                        "excitatory_offset": 0.0, "inhibitory_offset": 4.0}},
     "the 60000x60000 target matrix of 60000 classes"),
], ids=["hidden-layer", "num_classes"])
def test_unallocatable_sizes_error_line(tmp_path, iris_path, capsys, monkeypatch, overrides,
                                        message):
    """Sizes numpy can address but the machine cannot allocate, 29.8 GiB of
    weights or 28.8 GB of targets, are config errors naming the sizes, not
    internal ones.  The allocations fail here as a full machine's would,
    without being tried: an overcommitting host may grant such a request
    and then kill the process."""
    default_rng, full = np.random.default_rng, np.full
    monkeypatch.setattr(np.random, "default_rng", lambda *a: _FullMachine(default_rng(*a)))

    def no_room(shape, *args, **kwargs):
        if math.prod(shape) > 10**8:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", no_room)
    cfg = write_iris_config(tmp_path, iris_path, **overrides)
    rc, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip() == f"mtspike: error [E_CONFIG] cannot allocate {message}"


def test_malformed_model_header_error_line(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 1})
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    model = tmp_path / "cli_iris.mtspike"
    rewrite_header(model, lambda h: h["scheme"].update(num_classes=float("inf")))
    rc, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--model", str(model),
                         "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_MODEL]")


@pytest.mark.parametrize("threshold", [255.5, 300.0, float("inf")])
def test_binarize_threshold_past_the_byte_range_error_line(tmp_path, iris_path, capsys,
                                                           threshold):
    """No byte pixel reaches such a threshold, so conv coding would map every
    image to one input: a config file or a model header that sets it fails."""
    coding = {"scheme": "numeric", "window": 16.0, "unit": 1.0,
              "binarize_threshold": threshold}
    cfg = write_iris_config(tmp_path, iris_path, coding=coding)
    rc, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2 and out == ""
    assert err.strip().startswith("mtspike: error [E_CONFIG]") and "binarize_threshold" in err

    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 1})
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    model = tmp_path / "cli_iris.mtspike"
    rewrite_header(model, lambda h: h["coding"].update(binarize_threshold=threshold))
    rc, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--model", str(model),
                         "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_MODEL]") and "binarize_threshold" in err


@pytest.mark.parametrize("sizes, payload_bytes", [
    ([-1, -1], 8), ([-2, -3], 48), ([-1, 3], 24),
])
def test_negative_layer_sizes_in_model_header_error_line(tmp_path, iris_path, capsys,
                                                         sizes, payload_bytes):
    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 1})
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    model = tmp_path / "cli_iris.mtspike"
    rewrite_header(model, lambda h: h.update(layer_sizes=sizes))
    raw = model.read_bytes()
    model.write_bytes(raw[:-8 * 12] + bytes(payload_bytes))  # 4-3 net: 12 weights
    rc, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--model", str(model),
                         "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_MODEL]") and "layer sizes" in err


def test_unknown_preset_error_line(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "train", "--preset", "resnet",
                         "--out", str(tmp_path))
    assert rc == 2
    assert "[E_CONFIG]" in err and "unknown preset" in err


def test_missing_model_error_line(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path)
    rc, _, err = run_cli(capsys, "eval", "--config", str(cfg),
                         "--model", str(tmp_path / "ghost.bin"),
                         "--out", str(tmp_path))
    assert rc == 2
    assert "[E_MODEL]" in err


def test_mnist_preset_without_data_fails_after_reporting_shape(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MTSPIKE_DATA_DIR", str(tmp_path))
    rc, out, err = run_cli(capsys, "train", "--preset", "mt10_mnist_heu",
                           "--out", str(tmp_path))
    assert rc == 2
    assert "weights: 89500" in out  # structure reported before data loading
    assert "[E_DATA]" in err and "missing IDX files" in err


def test_truncated_gzip_idx_file_error_line(tmp_path, idx_dir, monkeypatch, capsys):
    data = tmp_path / "mnist"
    shutil.copytree(idx_dir, data)
    plain = data / "train-images-idx3-ubyte"
    packed = gzip.compress(plain.read_bytes())
    plain.with_suffix(".gz").write_bytes(packed[: len(packed) // 2])
    plain.unlink()
    monkeypatch.setenv("MTSPIKE_DATA_DIR", str(tmp_path))
    rc, _, err = run_cli(capsys, "train", "--preset", "slmt10_mnist_noheu",
                         "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_DATA]")
    assert "train-images-idx3-ubyte.gz" in err


def _fresh_python(tmp_path, env, *args) -> str:
    """stdout of ``python *args`` in a fresh interpreter that imports the
    package from src/, with no thread variable set but those in ``env``."""
    env = {**{k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS},
           "PYTHONPATH": str(REPO_ROOT / "src"), "MTSPIKE_DATA_DIR": str(tmp_path), **env}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_model_bytes_repeat_with_and_without_a_blas_thread_variable(tmp_path):
    """169-500-10 trained for 2 epochs on 200 IDX digits writes the same
    model file with no thread variable set and with
    ``OPENBLAS_NUM_THREADS=1``, because the CLI defaults to one BLAS thread.
    Without that default the first run uses every CPU and, on a host with
    2 or more, a 169x500 product rounds differently; on a 1-CPU host this
    passes either way.  The preset trains under ``numerics: "fast"``, so
    this holds for its float32 products too."""
    data = tmp_path / "mnist"
    data.mkdir()
    for prefix, digits in (("train", make_digits(20, seed=7)), ("t10k", make_digits(5, seed=8))):
        save_mnist_idx(digits.features, digits.labels, data / f"{prefix}-images-idx3-ubyte",
                       data / f"{prefix}-labels-idx1-ubyte")
    models = []
    for name, env in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        _fresh_python(tmp_path, env, "-m", "mtspike.cli", "train", "--preset",
                      "mt10_mnist_noheu", "--epochs", "2", "--out", str(tmp_path / name))
        models.append((tmp_path / name / "mt10_mnist_noheu.mtspike").read_bytes())
    assert models[0] == models[1]


def test_cli_sets_only_the_thread_variables_the_user_left_unset(tmp_path):
    shown = "; ".join(f"print(os.environ[{var!r}])" for var in cli._THREAD_VARS)
    out = _fresh_python(tmp_path, {"OMP_NUM_THREADS": "3"}, "-c",
                        f"import os; from mtspike.cli import main; main(['presets']); {shown}")
    assert out.splitlines()[-len(cli._THREAD_VARS):] == [
        "3" if var == "OMP_NUM_THREADS" else "1" for var in cli._THREAD_VARS]


def test_cli_leaves_the_environment_alone_once_numpy_is_loaded(monkeypatch, capsys):
    """In-process calls come after numpy loaded, when the variables no
    longer reach BLAS."""
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert run_cli(capsys, "presets")[0] == 0
    assert dict(os.environ) == before


def test_usage_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])
    assert exc.value.code == 2
    assert "mtspike: error [E_USAGE]" in capsys.readouterr().err


def test_repo_data_layout_matches_presets():
    # the shipped iris CSV sits where the default presets expect it
    assert (REPO_ROOT / "data" / "iris.csv").is_file()
