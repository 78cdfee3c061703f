"""The package layout: each module's ``__all__`` is its API, and importing
the package or the CLI loads no numpy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mtspike

MODULES = [info.name for info in pkgutil.iter_modules(mtspike.__path__)]


def test_every_export_resolves():
    for name in MODULES:
        module = importlib.import_module(f"mtspike.{name}")
        if name == "cli":  # an entry point, not a library module
            continue
        assert module.__all__, name
        for export in module.__all__:
            assert hasattr(module, export), f"mtspike.{name}.{export}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        mtspike.not_an_export


def test_import_loads_no_numpy():
    # --threads caps BLAS pools through environment variables, which numpy
    # reads only when it is first imported
    src = str(Path(mtspike.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, mtspike, mtspike.cli; "
        "assert mtspike.__file__.startswith(sys.argv[1]), mtspike.__file__; "
        "print('numpy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
