"""Path failures: every reader and writer of a file reports one that cannot
be opened as its own error class, in one line format."""

from pathlib import Path

import numpy as np
import pytest

from mtspike import cli
from mtspike.config import load_config
from mtspike.datasets import load_iris, load_mnist_idx, save_mnist_idx
from mtspike.errors import ConfigError, DataError, ModelIOError
from mtspike.model_io import load_model, save_model

from test_model_io import sample_model

IMAGES = np.zeros((2, 3, 3), dtype=np.uint8)

# (function of one path, the error it raises, the verb of its message)
CASES = {
    "load_config": (load_config, ConfigError, "read config"),
    "load_iris": (load_iris, DataError, "read"),
    "load_mnist_idx": (lambda p: load_mnist_idx(p, p), DataError, "read"),
    "save_mnist_idx": (lambda p: save_mnist_idx(IMAGES, [0, 1], p, p), DataError, "write"),
    "save_model": (lambda p: save_model(sample_model(), p), ModelIOError, "write model to"),
    "load_model": (load_model, ModelIOError, "read model from"),
    "_write_lines": (lambda p: cli._write_lines(Path(p), ["x\n"]), ConfigError, "write"),
}


@pytest.mark.parametrize("path_kind", ["nul", "directory"])
@pytest.mark.parametrize("case", CASES)
def test_a_path_that_cannot_be_opened_names_itself(tmp_path, case, path_kind):
    """A NUL in the path (``ValueError``) and an existing directory
    (``IsADirectoryError``) raise ``cannot <verb> <path>: <reason>``."""
    call, error, verb = CASES[case]
    path = str(tmp_path / "a\0b") if path_kind == "nul" else str(tmp_path)
    with pytest.raises(error) as raised:
        call(path)
    reason = "embedded null byte" if path_kind == "nul" else "[Errno 21] Is a directory"
    assert str(raised.value).startswith(f"cannot {verb} {path}: {reason}")
    assert isinstance(raised.value.__cause__, (OSError, ValueError))
