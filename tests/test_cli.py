"""Command-line behaviour: output contracts, files written, error lines."""

import json

import numpy as np
import pytest

from mtspike import cli
from mtspike.model_io import load_model

from conftest import REPO_ROOT
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


def test_srm_demo_writes_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "srm-demo", "--weights", "0.01,0.01",
                         "--out", str(path))
    assert rc == 0
    assert f"trace_file: {path}" in out
    assert path.read_text().splitlines()[-1] == "# crossing,none"


def test_srm_demo_validates_lengths(capsys):
    rc, _, err = run_cli(capsys, "srm-demo", "--delays", "0,1,2",
                         "--weights", "1.0")
    assert rc == 2
    assert "mtspike: error [E_CONFIG]" in err


def test_srm_demo_rejects_non_finite_delays(capsys):
    rc, _, err = run_cli(capsys, "srm-demo", "--delays", "0,nan")
    assert rc == 2
    assert "mtspike: error [E_CONFIG]" in err


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


@pytest.mark.parametrize("overrides", [
    {"layers": [4, 1], "readout": {"mode": "single_neuron", "num_classes": 10**30,
                                   "excitatory_offset": 3.0}},
    {"layers": [4, 10**30, 3]},
    {"layers": [4, -1, 3]},
], ids=["num_classes", "hidden-layer", "negative-layer"])
def test_unbuildable_sizes_error_line(tmp_path, iris_path, capsys, overrides):
    """Sizes numpy rejects before allocating are config errors, not internal ones."""
    cfg = write_iris_config(tmp_path, iris_path, **overrides)
    rc, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_CONFIG]")
    assert out == ""


def test_malformed_model_header_error_line(tmp_path, iris_path, capsys):
    cfg = write_iris_config(tmp_path, iris_path, train={"epochs": 1})
    run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path))
    model = tmp_path / "cli_iris.mtspike"
    rewrite_header(model, lambda h: h["scheme"].update(num_classes=float("inf")))
    rc, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--model", str(model),
                         "--out", str(tmp_path))
    assert rc == 2
    assert err.strip().startswith("mtspike: error [E_MODEL]")


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


def test_usage_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])
    assert exc.value.code == 2
    assert "mtspike: error [E_USAGE]" in capsys.readouterr().err


def test_threads_flag_validates(capsys):
    rc, _, err = run_cli(capsys, "presets")
    assert rc == 0
    rc, _, err = run_cli(capsys, "train", "--threads", "0",
                         "--preset", "mt1_iris")
    assert rc == 2
    assert "[E_CONFIG]" in err and "--threads" in err


def test_repo_data_layout_matches_presets():
    # the shipped iris CSV sits where the default presets expect it
    assert (REPO_ROOT / "data" / "iris.csv").is_file()
