"""The package layout: each module's ``__all__`` is its API, and importing
the package or the CLI loads no numpy."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mtspike

from conftest import REPO_ROOT

MODULES = [info.name for info in pkgutil.iter_modules(mtspike.__path__)]


def test_every_export_resolves():
    for name in MODULES:
        module = importlib.import_module(f"mtspike.{name}")
        if name == "cli":  # an entry point, not a library module
            continue
        assert module.__all__, name
        for export in module.__all__:
            assert hasattr(module, export), f"mtspike.{name}.{export}"


def test_names_in_the_readme_are_exported():
    """``mtspike.<module>.<name>`` and ``from mtspike.<module> import <name>``
    in README.md name only what that module's ``__all__`` lists."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bmtspike\.(\w+)\.(\w+)", text))
    for module, names in re.findall(
        r"\bfrom\s+mtspike\.(\w+)\s+import\s+(\w+(?:\s*,\s*\w+)*)", text
    ):
        named.update((module, name) for name in re.split(r"\s*,\s*", names))
    assert named
    for module, name in sorted(named):
        exports = importlib.import_module(f"mtspike.{module}").__all__
        assert name in exports, f"mtspike.{module}.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        mtspike.not_an_export


def test_import_loads_no_numpy():
    # the CLI imports its numeric modules lazily: loading them eagerly would
    # at least double the start-up time of `mtspike --help`
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
