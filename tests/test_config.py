"""Run configuration: JSON parsing, validation, and the shipped presets."""

import copy
import dataclasses
import json
import re
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtspike.coding import CodingParams
from mtspike.config import (
    _DatasetConfig,
    RunConfig,
    config_from_dict,
    load_config,
    preset,
    _preset_names,
)
from mtspike.errors import ConfigError
from mtspike.learning import TrainConfig
from mtspike.readout import TargetScheme

from conftest import DELETE, JSON_VALUES, REPO_ROOT, set_at


def minimal_dict(**overrides):
    doc = {
        "name": "t",
        "dataset": {"kind": "iris", "path": "data/iris.csv"},
        "coding": {"scheme": "numeric", "window": 16.0, "unit": 1.0},
        "layers": [4, 3],
        "readout": {
            "mode": "multi_neuron",
            "num_classes": 3,
            "excitatory_offset": 0.0,
            "inhibitory_offset": 4.0,
        },
    }
    doc.update(overrides)
    return doc


def test_minimal_config_parses():
    cfg = config_from_dict(minimal_dict())
    assert cfg.name == "t"
    assert cfg.layer_sizes == (4, 3)
    assert cfg.scheme.mode == "multi_neuron"
    assert cfg.train.epochs == 100  # training defaults apply
    assert cfg.alpha == 1.0


def test_readout_window_defaults_to_coding_window():
    doc = minimal_dict(coding={"scheme": "numeric", "window": 8.0, "unit": 1.0})
    assert config_from_dict(doc).scheme.window == 8.0
    doc["readout"]["window"] = 12.0
    assert config_from_dict(doc).scheme.window == 12.0


def test_train_section_and_output_paths():
    doc = minimal_dict(
        train={"learning_rate": 0.5, "epochs": 7, "init_range": [0.1, 0.2],
               "batch_reduction": "mean"},
        output={"model": "m.bin", "metrics": "m.csv"},
    )
    cfg = config_from_dict(doc)
    assert cfg.train.learning_rate == 0.5
    assert cfg.train.init_range == (0.1, 0.2)
    assert cfg.train.batch_reduction == "mean"
    assert cfg.model_path == "m.bin"
    assert cfg.metrics_path == "m.csv"


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("dataset"), "missing section"),
        (lambda d: d.update(extra={}), "unknown config section"),
        (lambda d: d["dataset"].update(shuffle=True), "unknown dataset option"),
        (lambda d: d["coding"].update(gamma=2.0), "unknown coding option"),
        (lambda d: d["readout"].update(topk=3), "unknown readout option"),
        (lambda d: d.update(train={"optimizer": "sgd"}), "unknown train option"),
        (lambda d: d.update(output={"log": "x"}), "output section"),
        (lambda d: d["coding"].update(scheme="dct"), "coding scheme"),
        (lambda d: d["coding"].update(ranges=[[0, 1]] * 4), "option\\(s\\): ranges"),
    ],
)
def test_unknown_keys_are_rejected(mutate, message):
    doc = minimal_dict()
    mutate(doc)
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: d["readout"].update(num_classes="3"),
    lambda d: d.update(train={"learning_rate": "x"}),
    lambda d: d.update(layers=5),
    lambda d: d.update(train={"init_range": [0, 1, 2]}),
    lambda d: d.update(train={"batch_size": 2.5}),
    lambda d: d.update(alpha="a"),
    lambda d: d["coding"].update(kernel="4"),
    lambda d: d["dataset"].update(train_fraction="0.5"),
    lambda d: d.update(train={"seed": 1.5}),
    lambda d: d.update(layers=[4, 25.5, 1]),
    lambda d: d.update(train={"heuristic": "yes"}),
    lambda d: d.update(train={"init_range": [0.0, float("inf")]}),
    lambda d: d.update(train={"seed": -1}),
    lambda d: d.update(dataset=5),
    lambda d: d.update(output="m.bin"),
    lambda d: d["dataset"].update(split_seed=-1),
    lambda d: d["dataset"].update(subset_seed=-1),
], ids=[
    "num_classes-string", "learning_rate-string", "layers-number",
    "init_range-triple", "batch_size-fraction", "alpha-string", "kernel-string",
    "train_fraction-string", "seed-fraction", "layers-fraction", "heuristic-string",
    "init_range-infinite", "seed-negative", "dataset-number", "output-string",
    "split_seed-negative", "subset_seed-negative",
])
def test_wrongly_typed_values_are_config_errors(mutate):
    doc = minimal_dict()
    mutate(doc)
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_values_are_not_coerced():
    doc = minimal_dict(coding={"scheme": "numeric", "window": 16, "unit": 1.0})
    cfg = config_from_dict(doc)
    assert type(cfg.coding.params.window) is int
    assert type(cfg.scheme.window) is int  # the readout window defaults to it


# Every key of every section, so that a mutation can reach every field.
FULL_DOC = {
    "name": "full",
    "dataset": {"kind": "iris", "path": "data/iris.csv", "dir": None,
                "train_fraction": 0.8, "split_seed": 0, "train_subset": None,
                "test_subset": None, "subset_seed": 0},
    "coding": {"scheme": "numeric", "window": 16.0, "unit": 1.0, "kernel": None,
               "stride": 1, "binarize_threshold": 128.0, "pad": "zero", "p_max": 255.0},
    "layers": [4, 3],
    "readout": {"mode": "multi_neuron", "window": 16.0, "num_classes": 3,
                "excitatory_offset": 0.0, "inhibitory_offset": 4.0},
    "train": {"learning_rate": 0.01, "batch_size": 30, "epochs": 100, "seed": 0,
              "gradient_mode": "paper", "heuristic": False, "update_gate": "always",
              "batch_reduction": "sum", "init_range": [0.0, 1.0]},
    "alpha": 1.0,
    "output": {"model": "m.bin", "metrics": "m.csv"},
}
FIELD_PATHS = [(key,) for key in FULL_DOC] + [
    (section, key) for section, block in FULL_DOC.items()
    if isinstance(block, dict) for key in block
] + [("layers", 1), ("train", "init_range", 1)]


def _names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_full_document_names_every_parser_field():
    """A field added to a section's dataclass, or a new top-level option
    (which needs a ``RunConfig`` field), must be added here and to README."""
    assert FULL_DOC["dataset"].keys() == _names(_DatasetConfig)
    assert FULL_DOC["coding"].keys() == _names(CodingParams) | {"scheme", "p_max"}
    assert FULL_DOC["readout"].keys() == _names(TargetScheme)
    assert FULL_DOC["train"].keys() == _names(TrainConfig)
    assert _names(RunConfig) == {"name", "dataset", "coding", "layer_sizes", "scheme",
                                 "train", "alpha", "model_path", "metrics_path"}


def test_readme_config_document_lists_exactly_the_parser_fields(monkeypatch):
    """README's "Config files" part: its one JSON document parses, names the
    keys of ``FULL_DOC`` and no others, is the ``mt1_iris`` preset apart from
    its output paths, and the field list below it has one line per field."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    part = text[text.index("### Config files"):text.index("## Outputs")]
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1 and blocks[0] in part
    doc = json.loads(blocks[0])
    cfg = config_from_dict(doc)
    paths = [(key,) for key, block in FULL_DOC.items() if not isinstance(block, dict)] + [
        (section, key) for section, block in FULL_DOC.items()
        if isinstance(block, dict) for key in block
    ]
    assert doc.keys() == FULL_DOC.keys()
    for section, block in FULL_DOC.items():
        if isinstance(block, dict):
            assert doc[section].keys() == block.keys(), section
    listed = re.findall(r"^- `([\w.]+)`:", part, re.M)
    assert sorted(listed) == sorted(".".join(path) for path in paths)

    monkeypatch.delenv("MTSPIKE_DATA_DIR", raising=False)
    want = preset("mt1_iris")
    assert cfg.coding.to_dict() == want.coding.to_dict()
    assert dataclasses.replace(cfg, coding=want.coding, model_path=None,
                               metrics_path=None) == want


def has_annotated_types(value, tp) -> bool:
    """``value`` is of builtin type ``tp``; a float field may hold an int."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(has_annotated_types(value, arm) for arm in args)
    if origin is tuple:
        arms = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return (type(value) is tuple and len(value) == len(arms)
                and all(map(has_annotated_types, value, arms)))
    if tp is float:
        return type(value) in (int, float)
    if tp in (int, str, bool, type(None)):
        return type(value) is tp
    if not dataclasses.is_dataclass(tp):
        return isinstance(value, tp)
    hints = typing.get_type_hints(tp)
    return type(value) is tp and all(
        has_annotated_types(getattr(value, f.name), hints[f.name])
        for f in dataclasses.fields(tp)
    )


def test_full_document_parses_with_annotated_types():
    assert has_annotated_types(config_from_dict(FULL_DOC), RunConfig)


@settings(max_examples=400)
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES | st.just(DELETE))
def test_any_json_value_in_any_field_parses_or_raises_config_error(path, value):
    doc = copy.deepcopy(FULL_DOC)
    set_at(doc, path, value)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert has_annotated_types(cfg, RunConfig)


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="output delays"):
        config_from_dict(minimal_dict(layers=[4, 2]))
    with pytest.raises(ConfigError, match="at least input and output"):
        config_from_dict(minimal_dict(layers=[4]))
    doc = minimal_dict(coding={"scheme": "conv", "kernel": 4, "stride": 2})
    with pytest.raises(ConfigError, match="numeric coding"):
        config_from_dict(doc)
    doc = minimal_dict(alpha=0.0)
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="root"):
        config_from_dict([1, 2, 3])
    # the JSON reader never yields NaN or infinity; the Python API can
    cfg = config_from_dict(minimal_dict())
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="alpha"):
            dataclasses.replace(cfg, alpha=alpha)


def test_mnist_dataset_needs_image_coding():
    doc = minimal_dict()
    doc["dataset"] = {"kind": "mnist", "dir": "data/mnist"}
    with pytest.raises(ConfigError, match="one_to_one or conv"):
        config_from_dict(doc)


def test_dataset_config_validation():
    with pytest.raises(ConfigError):
        _DatasetConfig(kind="cifar", path="x")
    with pytest.raises(ConfigError):
        _DatasetConfig(kind="iris")  # no path
    with pytest.raises(ConfigError):
        _DatasetConfig(kind="mnist")  # no dir
    with pytest.raises(ConfigError):
        _DatasetConfig(kind="iris", path="x", train_fraction=1.0)
    with pytest.raises(ConfigError):
        _DatasetConfig(kind="iris", path="x", train_subset=0)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_dict()))
    assert load_config(path).name == "t"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(json.dumps(minimal_dict()).encode().replace(b'"t"', b'"\xff"'))
    with pytest.raises(ConfigError, match="not valid JSON.*0xff"):
        load_config(path)


def test_deeply_nested_config_is_a_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_default_data_dir_env_override(monkeypatch):
    monkeypatch.delenv("MTSPIKE_DATA_DIR", raising=False)
    assert preset("mt10_mnist_heu").dataset.dir == "data/mnist"
    monkeypatch.setenv("MTSPIKE_DATA_DIR", "/somewhere/")
    assert preset("mt10_mnist_heu").dataset.dir == "/somewhere/mnist"


def test_preset_names_and_unknown_preset():
    names = _preset_names()
    assert names == tuple(sorted(names))
    assert set(names) == {
        "mt1_iris", "slmt3_iris", "mt1_mnist",
        "mt10_mnist_heu", "mt10_mnist_noheu",
        "slmt10_mnist_heu", "slmt10_mnist_noheu",
    }
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("alexnet")


def test_every_preset_validates_and_matches_its_readout():
    for name in _preset_names():
        cfg = preset(name)
        assert cfg.name == name
        assert cfg.scheme.output_size == cfg.layer_sizes[-1]
        assert cfg.scheme.window == cfg.coding.params.window == 16.0


def test_benchmark_preset_shapes():
    assert preset("mt1_iris").layer_sizes == (4, 25, 1)
    assert preset("slmt3_iris").layer_sizes == (4, 3)
    assert preset("mt1_mnist").layer_sizes == (169, 500, 1)
    assert preset("mt10_mnist_heu").layer_sizes == (169, 500, 10)
    assert preset("slmt10_mnist_heu").layer_sizes == (169, 10)
    assert preset("mt10_mnist_heu").train.heuristic
    assert not preset("mt10_mnist_noheu").train.heuristic
    conv = preset("mt1_mnist").coding.params
    assert (conv.kernel, conv.stride) == (4, 2)


def test_each_preset_call_returns_its_own_config(monkeypatch):
    monkeypatch.delenv("MTSPIKE_DATA_DIR", raising=False)
    a = preset("mt1_iris")
    a.dataset.path = "elsewhere.csv"
    a.name = "changed"
    b = preset("mt1_iris")
    assert (b.name, b.dataset.path) == ("mt1_iris", "data/iris.csv")
    monkeypatch.setenv("MTSPIKE_DATA_DIR", "/somewhere")
    assert preset("mt1_iris").dataset.path == "/somewhere/iris.csv"
    assert preset("mt10_mnist_heu").dataset.dir == "/somewhere/mnist"


def test_iris_presets_share_their_split():
    a, b = preset("mt1_iris"), preset("slmt3_iris")
    assert a.dataset.split_seed == b.dataset.split_seed
    assert a.dataset.train_fraction == b.dataset.train_fraction
    assert a.dataset.path == b.dataset.path
