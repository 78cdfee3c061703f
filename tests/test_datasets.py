"""Dataset loading, splitting, and the IDX wire format."""

import gzip
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtspike.coding import CodingParams
from mtspike.datasets import (
    EncodedDataset,
    EncodingSpec,
    RawDataset,
    encode_dataset,
    load_iris,
    load_mnist_idx,
    save_mnist_idx,
    split_dataset,
    stratified_subset,
)
from mtspike.errors import ConfigError, DataError


# --- iris-style CSV ---------------------------------------------------------


def test_load_repo_iris(iris_path):
    ds = load_iris(iris_path)
    assert ds.features.shape == (150, 4)
    assert ds.labels[0] == 0  # the file opens with setosa, first alphabetically
    assert np.bincount(ds.labels).tolist() == [50, 50, 50]


def test_byte_order_mark_does_not_hide_the_first_row(iris_path, tmp_path):
    # spreadsheets save "CSV UTF-8" with a BOM before the first field
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + iris_path.read_bytes())
    plain, marked = load_iris(iris_path), load_iris(bom)
    assert np.array_equal(marked.features, plain.features)
    assert np.array_equal(marked.labels, plain.labels)


def test_header_row_is_skipped(tmp_path):
    path = tmp_path / "flowers.csv"
    path.write_text(
        "\n"  # blank lines are skipped, before the header too
        "sepal_l,sepal_w,petal_l,petal_w,species\n"
        "5.1,3.5,1.4,0.2,Iris-setosa\n"
        "  \n"
        "6.0,2.9,4.5,1.5,Iris-versicolor\n"
    )
    ds = load_iris(path)
    assert ds.labels.tolist() == [0, 1]


def test_label_normalization_and_alphabetical_order(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "1,1,1,1,Iris-Virginica\n"
        "2,2,2,2,SETOSA\n"
        "3,3,3,3,iris-setosa\n"
    )
    ds = load_iris(path)
    assert ds.labels.tolist() == [1, 0, 0]


def test_malformed_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1,1,1,setosa\n1,1,1,setosa\n")
    with pytest.raises(DataError, match=r"bad\.csv:2"):
        load_iris(path)
    path.write_text("1,1,1,1,setosa\n1,1,oops,1,setosa\n")
    with pytest.raises(DataError, match=":2: non-numeric"):
        load_iris(path)
    path.write_text("1,1,1,1,setosa\n2,2,2,2,\n")
    with pytest.raises(DataError, match=":2: empty class label"):
        load_iris(path)


def test_non_utf8_iris_file_is_a_data_error(iris_path, tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(iris_path.read_bytes().replace(b"setosa", b"s\xe9tosa", 1))
    with pytest.raises(DataError, match=r"cannot read .*latin1\.csv.*0xe9"):
        load_iris(latin1)


def test_missing_or_empty_iris_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_iris(tmp_path / "nope.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("attribute_a,attribute_b,attribute_c,attribute_d,label\n")
    with pytest.raises(DataError, match="no data rows"):
        load_iris(empty)


# --- raw dataset container --------------------------------------------------


def test_raw_dataset_validation():
    with pytest.raises(DataError):
        RawDataset(features=np.zeros((3, 4)), labels=np.zeros(2, dtype=int))
    with pytest.raises(DataError):
        RawDataset(features=np.zeros((2, 4)), labels=np.array([0, -1]))
    with pytest.raises(DataError):
        RawDataset(features=np.zeros((2, 4)), labels=np.zeros((2, 1), dtype=int))
    with pytest.raises(DataError, match="rows or"):
        RawDataset(features=np.float64(5.0), labels=[0])
    with pytest.raises(DataError, match="rectangular"):
        RawDataset(features=[[1.0], [1.0, 2.0]], labels=[0, 1])
    with pytest.raises(DataError, match="rectangular"):
        RawDataset(features=np.zeros((2, 1)), labels=[[0], [1, 2]])


# --- splits and subsets -----------------------------------------------------


def test_split_is_stratified_and_disjoint(iris_path):
    ds = load_iris(iris_path)
    train, test = split_dataset(ds, 0.8, seed=0)
    assert np.bincount(train.labels).tolist() == [40, 40, 40]
    assert np.bincount(test.labels).tolist() == [10, 10, 10]
    joined = np.concatenate([train.features, test.features])
    assert joined.shape == ds.features.shape
    # every original row appears exactly once across the two halves
    seen = {tuple(row) for row in joined}
    assert seen == {tuple(row) for row in ds.features}


def test_split_determinism(iris_path):
    ds = load_iris(iris_path)
    a_train, _ = split_dataset(ds, 0.8, seed=3)
    b_train, _ = split_dataset(ds, 0.8, seed=3)
    c_train, _ = split_dataset(ds, 0.8, seed=4)
    assert np.array_equal(a_train.features, b_train.features)
    assert not np.array_equal(a_train.features, c_train.features)


def test_split_validation():
    ds = RawDataset(features=np.zeros((4, 2)), labels=np.array([0, 0, 1, 1]))
    with pytest.raises(ConfigError):
        split_dataset(ds, 1.0, seed=0)
    with pytest.raises(ConfigError):
        split_dataset(ds, 0.0, seed=0)
    tiny = RawDataset(features=np.zeros((1, 2)), labels=np.array([0]))
    with pytest.raises(ConfigError):
        split_dataset(tiny, 0.5, seed=0)


def test_stratified_subset_quotas():
    labels = np.array([0] * 50 + [1] * 50 + [2] * 50)
    ds = RawDataset(features=np.arange(150, dtype=float).reshape(150, 1),
                    labels=labels)
    sub = stratified_subset(ds, 10, seed=0)
    # 10/3 per class floors to 3 each; the leftover slot goes to class 0
    assert np.bincount(sub.labels).tolist() == [4, 3, 3]
    again = stratified_subset(ds, 10, seed=0)
    assert np.array_equal(sub.features, again.features)
    assert stratified_subset(ds, 150, seed=0) is ds
    with pytest.raises(ConfigError):
        stratified_subset(ds, 0, seed=0)
    with pytest.raises(ConfigError):
        stratified_subset(ds, 151, seed=0)


def test_subset_of_unbalanced_data_respects_proportions():
    labels = np.array([0] * 90 + [1] * 10)
    ds = RawDataset(features=np.zeros((100, 1)), labels=labels)
    sub = stratified_subset(ds, 20, seed=1)
    assert np.bincount(sub.labels).tolist() == [18, 2]


# --- IDX files --------------------------------------------------------------


def test_idx_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (7, 5, 5)).astype(np.uint8)
    labels = rng.integers(0, 10, 7).astype(np.uint8)
    save_mnist_idx(images, labels, tmp_path / "img", tmp_path / "lbl")
    ds = load_mnist_idx(tmp_path / "img", tmp_path / "lbl")
    assert np.array_equal(ds.features, images)
    assert np.array_equal(ds.labels, labels)
    # a second save of the loaded data reproduces the files bit for bit
    save_mnist_idx(ds.features, ds.labels, tmp_path / "img2", tmp_path / "lbl2")
    assert (tmp_path / "img").read_bytes() == (tmp_path / "img2").read_bytes()
    assert (tmp_path / "lbl").read_bytes() == (tmp_path / "lbl2").read_bytes()


def test_idx_gzip_transparent(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, (3, 4, 4)).astype(np.uint8)
    labels = np.array([1, 2, 3], dtype=np.uint8)
    save_mnist_idx(images, labels, tmp_path / "img", tmp_path / "lbl")
    for name in ("img", "lbl"):
        with open(tmp_path / name, "rb") as src:
            with gzip.open(tmp_path / f"{name}.gz", "wb") as dst:
                shutil.copyfileobj(src, dst)
    ds = load_mnist_idx(tmp_path / "img.gz", tmp_path / "lbl.gz")
    assert np.array_equal(ds.features, images)
    assert np.array_equal(ds.labels, labels)


def test_idx_error_cases(tmp_path):
    good_img, good_lbl = tmp_path / "img", tmp_path / "lbl"
    images = np.zeros((2, 3, 3), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    save_mnist_idx(images, labels, good_img, good_lbl)

    # both kinds of file report the same four kinds of damage
    bad = tmp_path / "bad"
    for kind, good, header in (("image", good_img, 16), ("label", good_lbl, 8)):
        paths = {"image": good_img, "label": good_lbl, kind: bad}
        load = lambda: load_mnist_idx(paths["image"], paths["label"])
        raw = good.read_bytes()
        bad.write_bytes(raw[:header - 1])
        with pytest.raises(DataError, match=f"truncated IDX {kind} header"):
            load()
        bad.write_bytes(b"\x00" * header)
        with pytest.raises(DataError, match=f"bad IDX {kind} magic"):
            load()
        bad.write_bytes(raw[:-1])
        with pytest.raises(DataError, match=f"truncated {kind} data"):
            load()
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(DataError, match="1 trailing bytes"):
            load()

    # mismatched counts between the two files
    save_mnist_idx(np.zeros((3, 3, 3), dtype=np.uint8),
                   np.zeros(3, dtype=np.uint8), tmp_path / "img3", tmp_path / "lbl3")
    with pytest.raises(DataError, match="does not match label count"):
        load_mnist_idx(good_img, tmp_path / "lbl3")

    # a path that cannot be written is named in the error
    with pytest.raises(DataError, match="cannot write") as excinfo:
        save_mnist_idx(images, labels, tmp_path, good_lbl)
    assert str(tmp_path) in str(excinfo.value)


def test_idx_load_allocates_one_image_file(tmp_path):
    """Pixels are read once into one buffer and wrapped, not copied."""
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, (5000, 28, 28)).astype(np.uint8)
    save_mnist_idx(images, rng.integers(0, 10, 5000), tmp_path / "img", tmp_path / "lbl")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = load_mnist_idx(tmp_path / "img", tmp_path / "lbl")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = (tmp_path / "img").stat().st_size
    assert peak <= 1.1 * size, (peak, size)
    assert np.array_equal(ds.features, images) and ds.features.flags.writeable


def _idx_files(images, labels, gz):
    """The bytes of an IDX image file and label file, optionally gzipped."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_mnist_idx(images, labels, tmp / "img", tmp / "lbl")
        blobs = [(tmp / name).read_bytes() for name in ("img", "lbl")]
    return [gzip.compress(b, mtime=0) if gz else b for b in blobs]


def _load_idx_bytes(image_bytes, label_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "img").write_bytes(image_bytes)
        (tmp / "lbl").write_bytes(label_bytes)
        return load_mnist_idx(tmp / "img", tmp / "lbl")


@given(
    side=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_plain_and_gzipped_idx_load_identically(side, n, seed):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, side, side)).astype(np.uint8)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    plain = _load_idx_bytes(*_idx_files(images, labels, gz=False))
    packed = _load_idx_bytes(*_idx_files(images, labels, gz=True))
    for ds in (plain, packed):
        assert ds.features.dtype == np.uint8 and ds.features.shape == images.shape
        assert ds.features.tobytes() == images.tobytes()
        assert ds.features.flags.writeable
        assert np.array_equal(ds.labels, labels)


@given(
    gz=st.booleans(),
    target=st.sampled_from([0, 1]),
    damage=st.sampled_from(["truncate", "extend", "flip"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_damaged_idx_files_raise_only_data_error(gz, target, damage, data):
    """Truncated, extended or byte-flipped files load or raise ``DataError``."""
    rng = np.random.default_rng(0)
    files = _idx_files(rng.integers(0, 256, (3, 4, 4)).astype(np.uint8),
                       np.array([0, 7, 9], dtype=np.uint8), gz)
    blob = files[target]
    if damage == "truncate":
        blob = blob[: data.draw(st.integers(min_value=0, max_value=len(blob) - 1))]
    elif damage == "extend":
        blob = blob + data.draw(st.binary(min_size=1, max_size=16))
    else:
        at = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bits = data.draw(st.integers(min_value=1, max_value=255))
        blob = blob[:at] + bytes([blob[at] ^ bits]) + blob[at + 1:]
    files[target] = blob
    try:
        ds = _load_idx_bytes(*files)
    except DataError:
        return
    assert ds.features.dtype == np.uint8 and ds.features.shape == (3, 4, 4)
    assert ds.labels.shape == (3,)


def test_save_idx_validation(tmp_path):
    with pytest.raises(DataError):
        save_mnist_idx(np.zeros((2, 3)), np.zeros(2), tmp_path / "a", tmp_path / "b")
    with pytest.raises(DataError):
        save_mnist_idx(np.zeros((2, 3, 3)), np.zeros(3), tmp_path / "a", tmp_path / "b")
    with pytest.raises(DataError):
        save_mnist_idx(np.full((1, 2, 2), 300.0), np.zeros(1),
                       tmp_path / "a", tmp_path / "b")
    # non-integral values would be truncated on the wire
    for images, labels in [(np.full((1, 2, 2), 3.7), np.zeros(1)),
                           (np.full((1, 2, 2), np.nan), np.zeros(1)),
                           (np.zeros((1, 2, 2)), np.array([3.7]))]:
        with pytest.raises(DataError, match="whole numbers"):
            save_mnist_idx(images, labels, tmp_path / "a", tmp_path / "b")


def test_idx_round_trip_of_zero_images(tmp_path):
    save_mnist_idx(np.zeros((0, 28, 28), dtype=np.uint8), np.zeros(0, dtype=np.uint8),
                   tmp_path / "img", tmp_path / "lbl")
    ds = load_mnist_idx(tmp_path / "img", tmp_path / "lbl")
    assert ds.features.shape == (0, 28, 28)
    assert ds.labels.shape == (0,)
    save_mnist_idx(ds.features, ds.labels, tmp_path / "img2", tmp_path / "lbl2")
    assert (tmp_path / "img").read_bytes() == (tmp_path / "img2").read_bytes()
    assert (tmp_path / "lbl").read_bytes() == (tmp_path / "lbl2").read_bytes()


# --- encoding specs and encoded datasets ------------------------------------


def test_encoding_spec_dict_round_trip():
    spec = EncodingSpec(
        scheme="numeric",
        params=CodingParams(window=8.0, unit=0.5),
        ranges=np.array([[0.0, 1.0], [2.0, 5.0]]),
    )
    back = EncodingSpec.from_dict(spec.to_dict())
    assert back.scheme == spec.scheme
    assert back.params == spec.params
    assert np.array_equal(back.ranges, spec.ranges)
    conv = EncodingSpec(scheme="conv",
                        params=CodingParams(kernel=4, stride=2))
    assert EncodingSpec.from_dict(conv.to_dict()).params.kernel == 4


def test_encoding_spec_validation():
    with pytest.raises(ConfigError):
        EncodingSpec(scheme="fourier")
    with pytest.raises(ConfigError):
        EncodingSpec(scheme="conv")  # needs a kernel
    with pytest.raises(ConfigError):
        EncodingSpec(scheme="numeric", ranges=np.zeros(4))
    with pytest.raises(ConfigError, match="missing field"):
        EncodingSpec.from_dict({"scheme": "numeric"})


def test_numeric_spec_requires_fitted_ranges():
    spec = EncodingSpec(scheme="numeric")
    ds = RawDataset(features=np.array([1.0, 2.0])[None], labels=np.zeros(1, dtype=int))
    with pytest.raises(ConfigError, match="ranges"):
        encode_dataset(ds, spec)


def test_encode_dataset_stacks_samples(iris_path):
    ds = load_iris(iris_path)
    spec = EncodingSpec(scheme="numeric",
                        ranges=np.stack([ds.features.min(0), ds.features.max(0)], axis=1))
    enc = encode_dataset(ds, spec)
    assert enc.delays.shape == (150, 4)
    assert enc.fired.all()
    assert np.array_equal(enc.labels, ds.labels)


def test_encode_dataset_rejects_empty():
    spec = EncodingSpec(scheme="numeric", ranges=np.array([[0.0, 1.0]]))
    empty = RawDataset(features=np.zeros((0, 1)), labels=np.zeros(0, dtype=int))
    with pytest.raises(DataError, match="empty"):
        encode_dataset(empty, spec)


def test_encoded_dataset_validation():
    with pytest.raises(DataError):
        EncodedDataset(delays=np.zeros((2, 3)), fired=np.ones((2, 2), bool),
                       labels=np.zeros(2, dtype=int))
    with pytest.raises(DataError):
        EncodedDataset(delays=np.zeros((2, 3)), fired=np.ones((2, 3), bool),
                       labels=np.zeros(3, dtype=int))
    with pytest.raises(DataError, match="delay matrix"):
        EncodedDataset(delays=np.zeros(5), fired=np.zeros(5, bool), labels=[0] * 5)
    with pytest.raises(DataError, match="delay matrix"):
        EncodedDataset(delays=np.zeros((5, 2, 1)), fired=np.zeros((5, 2, 1), bool),
                       labels=[0] * 5)
    with pytest.raises(DataError, match="rectangular"):
        EncodedDataset(delays=[[0.0], [0.0, 1.0]], fired=[[True], [True, True]],
                       labels=[0, 1])


@pytest.mark.parametrize("delays", [
    [["a", "b"]],
    np.array([[1 + 2j, 3.0]]),
    np.array([[0.0, None]], dtype=object),
    np.array([["2020-01-01", "2020-01-02"]], dtype="datetime64[D]"),
], ids=["str", "complex", "object", "datetime"])
def test_encoded_dataset_rejects_delays_that_are_not_real_numbers(delays):
    with pytest.raises(DataError, match="real numbers"):
        EncodedDataset(delays=delays, fired=[[True, True]], labels=[0])


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.float32, np.float64])
def test_encoded_dataset_takes_real_delay_dtypes(dtype):
    ds = EncodedDataset(delays=np.ones((1, 2), dtype=dtype), fired=[[True, True]], labels=[0])
    assert ds.delays.dtype == dtype


@pytest.mark.parametrize("make", [
    lambda: EncodedDataset([[0.0, 1.0]], [[True, True]], [0]),
    lambda: EncodedDataset(np.zeros((1, 2)), [[True, True]], [0]),
    lambda: RawDataset([[1.0, 2.0]], [0]),
], ids=["encoded_lists", "encoded_fired_list", "raw_lists"])
def test_datasets_take_nested_lists_as_arrays(make):
    ds = make()
    assert len(ds) == 1
    for value in vars(ds).values():
        assert isinstance(value, np.ndarray)
    rows = ds.delays if isinstance(ds, EncodedDataset) else ds.features
    assert rows.shape == (1, 2)


@pytest.mark.parametrize("labels", [
    [0, -1, 2],
    np.array([0.0, 1.0, 2.0]),
    np.array([True, False, True]),
    np.zeros((3, 1), dtype=int),
    np.array([0.5, 1.7, 2.2]),
])
def test_encoded_dataset_rejects_bad_labels(labels):
    with pytest.raises(DataError, match="labels"):
        EncodedDataset(delays=np.zeros((3, 2)), fired=np.ones((3, 2), bool),
                       labels=labels)
    with pytest.raises(DataError, match="labels"):
        RawDataset(features=np.zeros((3, 2)), labels=labels)
