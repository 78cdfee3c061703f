"""The package layout: each module's ``__all__`` is its API, and importing
the package or the CLI loads no numpy."""

import ast
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


def _code_reads(source: str) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs Python ``source`` reads: attributes
    ``module.name`` and names imported from a module."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            reads.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            reads.add((owner, node.attr))
    return reads


def _markdown_code(text: str) -> str:
    """The code blocks and code spans of Markdown ``text``, without its prose."""
    blocks = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return "\n".join(blocks + spans)


def _is_read(module: str, export: str, reads, readme_code: str) -> bool:
    return ((module, export) in reads
            or re.search(rf"\b{re.escape(export)}\b", readme_code) is not None)


def test_every_export_has_a_reader_outside_the_tests():
    """Each ``__all__`` name is read by code outside its own module and the
    tests: as ``module.name`` or in an import from its module, in a Python
    file of the package or of ``perfbench/``, or inside a code span or code
    block of README.md.  A word in prose is no reader, and a name that only
    its own module and the tests use is private."""
    package = Path(mtspike.__file__).parent
    sources = [*package.glob("*.py"), *(REPO_ROOT / "perfbench").rglob("*.py")]
    reads = {path.resolve(): _code_reads(path.read_text(encoding="utf-8")) for path in sources}
    readme_code = _markdown_code((REPO_ROOT / "README.md").read_text(encoding="utf-8"))
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"mtspike.{name}")
        own = Path(module.__file__).resolve()
        others = set().union(*(pairs for path, pairs in reads.items() if path != own))
        unread += [f"mtspike.{name}.{export}" for export in getattr(module, "__all__", ())
                   if not _is_read(name, export, others, readme_code)]
    assert not unread, unread


def test_prose_is_no_reader_of_an_export():
    """The reader rule counts code, not words: README prose that says
    "type-checked" does not read ``schema.checked``; code does."""
    prose = _markdown_code("Config values are type-checked, not coerced.")
    assert not _is_read("schema", "checked", _code_reads("checked = 1\n"), prose)
    assert _is_read("schema", "checked", set(), _markdown_code("call `checked(v)`"))
    for source in ("from .schema import checked\n", "from mtspike import schema\nschema.checked\n"):
        assert _is_read("schema", "checked", _code_reads(source), prose)


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
