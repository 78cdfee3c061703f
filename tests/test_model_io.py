"""Model container: round trips, bit-identical saves, corruption handling."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtspike.coding import CodingParams
from mtspike.datasets import EncodingSpec
from mtspike.errors import ModelIOError
from mtspike.model_io import _FORMAT_VERSION, _MAGIC, ModelFile, load_model, save_model
from mtspike.network import Network, init_network
from mtspike.readout import TargetScheme

from conftest import DELETE, JSON_VALUES, set_at


def sample_model(seed=0):
    net = init_network([4, 6, 3], rng=np.random.default_rng(seed), window=16.0)
    coding = EncodingSpec(
        scheme="numeric",
        params=CodingParams(window=16.0, unit=1.0),
        ranges=np.array([[0.0, 8.0]] * 4),
    )
    scheme = TargetScheme(mode="multi_neuron", window=16.0, num_classes=3,
                          excitatory_offset=0.0, inhibitory_offset=4.0)
    return ModelFile(network=net, coding=coding, scheme=scheme,
                     provenance={"run": "sample", "seed": seed})


def test_round_trip_is_exact(tmp_path):
    model = sample_model()
    path = tmp_path / "m.mtspike"
    save_model(model, path)
    back = load_model(path)
    assert back.network.layer_sizes == [4, 6, 3]
    assert back.network.activation == "special_relu"
    assert back.network.window == 16.0
    for w_in, w_out in zip(model.network.weights, back.network.weights):
        assert w_in.tobytes() == w_out.tobytes()
    assert back.scheme == model.scheme
    assert back.coding.scheme == "numeric"
    assert np.array_equal(back.coding.ranges, model.coding.ranges)
    assert back.provenance == {"run": "sample", "seed": 0}


def test_saving_twice_is_bit_identical(tmp_path):
    model = sample_model()
    save_model(model, tmp_path / "a")
    save_model(model, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_a_float32_network_saves_as_its_exact_float64_upcast(tmp_path):
    model = sample_model()
    single = Network(model.network.layer_sizes,
                     [w.astype(np.float32) for w in model.network.weights], window=16.0)
    wide = Network(single.layer_sizes, [w.astype(np.float64) for w in single.weights],
                   window=16.0)
    save_model(dataclasses.replace(model, network=single), tmp_path / "single")
    save_model(dataclasses.replace(model, network=wide), tmp_path / "wide")
    assert (tmp_path / "single").read_bytes() == (tmp_path / "wide").read_bytes()
    back = load_model(tmp_path / "single").network
    for a, w in zip(back.weights, model.network.weights):
        assert a.tobytes() == w.astype(np.float32).astype(np.float64).tobytes()


def test_same_seed_same_bytes_different_seed_different_bytes(tmp_path):
    save_model(sample_model(seed=1), tmp_path / "a")
    save_model(sample_model(seed=1), tmp_path / "b")
    save_model(sample_model(seed=2), tmp_path / "c")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def test_file_layout_starts_with_magic_and_version(tmp_path):
    path = tmp_path / "m"
    save_model(sample_model(), path)
    raw = path.read_bytes()
    assert raw.startswith(_MAGIC)
    version, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    assert version == _FORMAT_VERSION
    header = json.loads(raw[len(_MAGIC) + 8:len(_MAGIC) + 8 + header_len])
    assert header["layer_sizes"] == [4, 6, 3]
    assert header["window"] == 16.0


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "m"
    path.write_bytes(b"NOTAMODEL" + b"\x00" * 32)
    with pytest.raises(ModelIOError, match="bad magic"):
        load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "m"
    save_model(sample_model(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, len(_MAGIC), _FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelIOError, match="version"):
        load_model(path)


def test_load_rejects_truncations(tmp_path):
    path = tmp_path / "m"
    save_model(sample_model(), path)
    raw = path.read_bytes()
    short = tmp_path / "short"

    short.write_bytes(raw[:4])
    with pytest.raises(ModelIOError, match="truncated model file"):
        load_model(short)

    _, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    short.write_bytes(raw[: len(_MAGIC) + 8 + header_len // 2])
    with pytest.raises(ModelIOError, match="truncated model header"):
        load_model(short)

    short.write_bytes(raw[:-8])
    with pytest.raises(ModelIOError, match="truncated weight payload"):
        load_model(short)

    short.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ModelIOError, match="oversized weight payload"):
        load_model(short)


def test_load_rejects_garbage_header(tmp_path):
    path = tmp_path / "m"
    save_model(sample_model(), path)
    raw = bytearray(path.read_bytes())
    _, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    start = len(_MAGIC) + 8
    raw[start:start + header_len] = b"{" * header_len
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelIOError, match="corrupt model header"):
        load_model(path)


def test_deeply_nested_provenance_is_a_model_error(tmp_path):
    path = tmp_path / "m"
    save_model(sample_model(), path)
    raw = path.read_bytes()
    _, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    start = len(_MAGIC) + 8
    deep = b"[" * 100_000 + b"]" * 100_000
    header = raw[start:start + header_len].replace(b'"run":"sample"', b'"run":' + deep)
    path.write_bytes(raw[:len(_MAGIC)] + struct.pack("<II", _FORMAT_VERSION, len(header))
                     + header + raw[start + header_len:])
    with pytest.raises(ModelIOError, match="corrupt model header"):
        load_model(path)


def rewrite_header(path, mutate):
    """Apply ``mutate`` to the saved JSON header, keeping the weight payload."""
    raw = path.read_bytes()
    start = len(_MAGIC) + 8
    _, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    header = json.loads(raw[start:start + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        raw[:len(_MAGIC)]
        + struct.pack("<II", _FORMAT_VERSION, len(new_header))
        + new_header
        + raw[start + header_len:]
    )


def test_load_rejects_missing_header_field(tmp_path):
    path = tmp_path / "m"
    save_model(sample_model(), path)
    rewrite_header(path, lambda h: h.pop("window"))
    with pytest.raises(ModelIOError, match="missing or malformed"):
        load_model(path)


def single_output_model():
    """A 4-25-1 iris-style model: three classes read off one output neuron."""
    net = init_network([4, 25, 1], rng=np.random.default_rng(0), window=16.0)
    coding = EncodingSpec(scheme="numeric", params=CodingParams(window=16.0, unit=1.0),
                          ranges=np.array([[0.0, 8.0]] * 4))
    scheme = TargetScheme(mode="single_neuron", window=16.0, num_classes=3,
                          excitatory_offset=3.0)
    return ModelFile(network=net, coding=coding, scheme=scheme)


@pytest.mark.parametrize("mutate, match", [
    (lambda h: h.update(activation="tanh"), "invalid network"),
    (lambda h: h.update(activation="identity"), "invalid network"),
    (lambda h: h.update(window=-1), "invalid network"),
    (lambda h: h["scheme"].update(mode="bogus"), "missing or malformed"),
    (lambda h: h["scheme"].update(mode="multi_neuron"), "output neurons"),
    (lambda h: h["coding"].update(ranges=[[0.0, 8.0]] * 3), "ranges cover 3 attributes"),
    (lambda h: h.update(layer_sizes=[4, float("inf"), 1]), "missing or malformed"),
    (lambda h: h["scheme"].update(num_classes=float("inf")), "missing or malformed"),
    (lambda h: h["coding"].update(p_max="x"), "missing or malformed"),
    (lambda h: h["coding"].update(p_max=-1.0), "p_max must be finite and positive"),
    (lambda h: h["coding"].update(p_max=0), "p_max must be finite and positive"),
    (lambda h: h["coding"].update(stride=float("inf")), "missing or malformed"),
    (lambda h: h["coding"].update(binarize_threshold=300.0), "binarize_threshold"),
    (lambda h: h["scheme"].update(excitatory_offset="3"), "missing or malformed"),
    (lambda h: h.update(window=3.0), "network window 3.0 differs from coding window 16.0"),
    (lambda h: h["scheme"].update(window=5.0),
     "readout window 5.0 differs from coding window 16.0"),
    (lambda h: h.update(layer_sizez=[1]), "unknown model header key\\(s\\): layer_sizez"),
    (lambda h: h["coding"].update(ranges=None), "numeric coding has no attribute ranges"),
    (lambda h: h["coding"].update(ranges=[[0.0, 8.0], [2.0, 2.0], [0.0, 8.0], [5.0, 1.0]]),
     "degenerate range for attribute 3"),
], ids=["activation", "activation-identity", "window", "scheme-mode", "scheme-outputs",
        "coding-ranges", "layer_sizes-infinite", "num_classes-infinite", "p_max-string",
        "p_max-negative", "p_max-zero",
        "stride-infinite", "binarize_threshold-above-255", "excitatory_offset-string",
        "window-not-coding-window", "readout-window-not-coding-window", "unknown-key",
        "coding-ranges-null", "coding-ranges-degenerate"])
def test_load_rejects_inconsistent_headers_as_model_errors(tmp_path, mutate, match):
    path = tmp_path / "m"
    save_model(single_output_model(), path)
    load_model(path)
    rewrite_header(path, mutate)
    with pytest.raises(ModelIOError, match=match) as err:
        load_model(path)
    assert err.value.code == "E_MODEL"


def test_load_then_save_is_byte_identical(tmp_path):
    path = tmp_path / "m"
    save_model(single_output_model(), path)
    save_model(load_model(path), tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == path.read_bytes()


HEADER_KEYS = ["layer_sizes", "activation", "window", "coding", "scheme", "provenance"]
CODING_KEYS = ["scheme", "window", "unit", "kernel", "stride", "binarize_threshold",
               "pad", "p_max", "ranges"]
SCHEME_KEYS = ["mode", "window", "num_classes", "excitatory_offset", "inhibitory_offset"]
HEADER_PATHS = ([(k,) for k in HEADER_KEYS] + [("coding", k) for k in CODING_KEYS]
                + [("scheme", k) for k in SCHEME_KEYS]
                + [("layer_sizes", 1), ("coding", "ranges", 0), ("coding", "ranges", 0, 1)])


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m"
    save_model(single_output_model(), path)
    return path


def loads_or_raises_model_error(path):
    try:
        load_model(path)
    except ModelIOError as exc:
        assert exc.code == "E_MODEL"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(HEADER_PATHS), value=JSON_VALUES | st.just(DELETE))
def test_any_header_mutation_loads_or_raises_model_error(saved_model, tmp_path,
                                                         path, value):
    target = tmp_path / "mutated"
    target.write_bytes(saved_model.read_bytes())
    rewrite_header(target, lambda header: set_at(header, path, value))
    loads_or_raises_model_error(target)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_or_bit_flipped_files_raise_only_model_errors(saved_model, tmp_path,
                                                                data):
    raw = saved_model.read_bytes()
    _, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    header_end = len(_MAGIC) + 8 + header_len
    target = tmp_path / "damaged"
    cut = data.draw(st.integers(0, len(raw) - 1), label="truncate at")
    target.write_bytes(raw[:cut])
    with pytest.raises(ModelIOError):
        load_model(target)
    # most flips should land where they can change the parse, not the weights
    bit = data.draw(st.integers(0, 8 * header_end - 1) | st.integers(0, 8 * len(raw) - 1),
                    label="flip bit")
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    target.write_bytes(bytes(flipped))
    loads_or_raises_model_error(target)
    # arbitrary bytes behind a valid magic and version
    target.write_bytes(raw[:len(_MAGIC) + 4] + data.draw(st.binary(max_size=64)))
    loads_or_raises_model_error(target)


def test_missing_file(tmp_path):
    with pytest.raises(ModelIOError, match="cannot read"):
        load_model(tmp_path / "absent")


def test_save_refuses_a_window_other_than_the_coding_window(tmp_path):
    model = sample_model()
    model.network.window = 3.0
    with pytest.raises(ModelIOError, match="differs from coding window") as err:
        save_model(model, tmp_path / "m")
    assert err.value.code == "E_MODEL"
    assert not (tmp_path / "m").exists()


def test_save_refuses_a_readout_window_other_than_the_coding_window(tmp_path):
    """Targets below the coding window are unreachable, so such a model would
    load as one that can only score chance."""
    model = sample_model()
    model.scheme = dataclasses.replace(model.scheme, window=3.0)
    with pytest.raises(ModelIOError,
                       match="readout window 3.0 differs from coding window 16.0") as err:
        save_model(model, tmp_path / "m")
    assert err.value.code == "E_MODEL"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("ranges, match", [
    (None, "numeric coding has no attribute ranges"),
    (np.array([[0.0, 8.0], [0.0, 8.0], [3.0, 3.0], [0.0, 8.0]]),
     "degenerate range for attribute 2"),
], ids=["none", "degenerate"])
def test_save_refuses_numeric_coding_without_usable_ranges(tmp_path, ranges, match):
    model = sample_model()
    model.coding = dataclasses.replace(model.coding, ranges=ranges)
    with pytest.raises(ModelIOError, match=match) as err:
        save_model(model, tmp_path / "m")
    assert err.value.code == "E_MODEL"
    assert not (tmp_path / "m").exists()


def test_save_to_a_directory_is_a_model_error(tmp_path):
    with pytest.raises(ModelIOError, match="cannot write") as err:
        save_model(sample_model(), tmp_path)
    assert err.value.code == "E_MODEL"


def test_non_serializable_provenance_fails_cleanly(tmp_path):
    model = sample_model()
    model.provenance = {"oops": object()}
    with pytest.raises(ModelIOError, match="JSON-serializable"):
        save_model(model, tmp_path / "m")
