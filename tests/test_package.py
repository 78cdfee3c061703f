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
from mtspike.errors import MTSpikeError

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
    ``module.name``, names imported from a module, calls that name an
    attribute as a string (``wrap(module, "name")``, ``getattr``) and
    ``"module.name"`` strings."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            reads.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            reads.add((owner, node.attr))
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            owner, attr = node.args[:2]
            if isinstance(owner, ast.Name) and isinstance(attr, ast.Constant) \
                    and isinstance(attr.value, str):
                reads.add((owner.id, attr.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+\.\w+", node.value):
            reads.add(tuple(node.value.split(".")))
    return reads


def _defined_where(reads) -> set[tuple[str, str]]:
    """``reads`` with each package object under the module that defines it:
    ``pipeline.load_iris`` reads ``datasets.load_iris``."""
    named = set()
    for owner, attr in reads:
        value = getattr(importlib.import_module(f"mtspike.{owner}"), attr, None) \
            if owner in MODULES else None
        home = getattr(value, "__module__", None) or ""
        named.add((home.rpartition(".")[2], attr) if home.startswith("mtspike.")
                  else (owner, attr))
    return named


def _annotated(name: str) -> set[tuple[str, str]]:
    """What the annotations of module ``name``'s exports name, each export's
    own name aside: a function's signature, and a class's fields and the
    signatures of its public methods."""
    module = importlib.import_module(f"mtspike.{name}")
    exports = getattr(module, "__all__", ())
    named = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if getattr(node, "name", None) not in exports:
            continue
        notes = []
        for member in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(member, ast.AnnAssign):
                notes.append(member.annotation)
            elif isinstance(member, ast.FunctionDef) and (
                    member is node or not member.name.startswith("_")):
                notes += [member.returns, *(arg.annotation for arg in ast.walk(member.args)
                                            if isinstance(arg, ast.arg))]
        words = {n.id if isinstance(n, ast.Name) else n.attr
                 for note in notes if note is not None for n in ast.walk(note)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        named |= _defined_where((name, word) for word in words) - {(name, node.name)}
    return named


def _markdown_code(text: str) -> str:
    """The code blocks and code spans of Markdown ``text``, without its prose."""
    blocks = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return "\n".join(blocks + spans)


def _workflow_code(text: str) -> str:
    """The commands of a GitHub workflow's ``run:`` steps, without comments."""
    commands = []
    for match in re.finditer(r"^( *)(?:- )?run: *(\|?)(.*)\n((?:\1 +.*\n|\s*\n)*)", text, re.M):
        commands += [match[3]] if not match[2] else match[4].splitlines()
    return "\n".join(line for line in commands if not line.lstrip().startswith("#"))


def _text_reads(code: str) -> set[tuple[str, str]]:
    """The Python-shaped references of README or workflow ``code``:
    ``module.name``, names imported from ``mtspike.module``, and calls
    ``name(...)`` as ``("", name)``.  A CLI word such as ``mtspike train``
    or ``--preset`` is none of these."""
    reads = set(re.findall(r"\b(?=(\w+)\.(\w+))", code))
    for module, names in re.findall(
        r"\bfrom\s+mtspike\.(\w+)\s+import\s+(\w+(?:\s*,\s*\w+)*)", code
    ):
        reads.update((module, name) for name in re.split(r"\s*,\s*", names))
    reads.update(("", name) for name in re.findall(r"\b(\w+)\(", code))
    return reads


def _is_read(module: str, export: str, reads) -> bool:
    return (module, export) in reads or ("", export) in reads


# schema's one export: test_every_export_resolves wants every library module
# to export a name, and only config and datasets call it
_UNREAD_EXPORTS = {"mtspike.schema.from_json"}


def test_every_export_has_a_reader_outside_the_tests():
    """Each ``__all__`` name is public because code outside the package and
    the tests names it, an annotation of another export names it, or it is an
    ``MTSpikeError``.  The outside code is the Python of ``perfbench/`` (as
    ``module.name``, an import from its module, an attribute named as a
    string, or a ``"module.name"`` label), README.md's code spans and code
    blocks, and the CI workflow's commands.  A word in prose is no reader,
    and a name read only by its sibling modules and the tests is private."""
    reads = set().union(*(_code_reads(path.read_text(encoding="utf-8"))
                          for path in (REPO_ROOT / "perfbench").rglob("*.py")))
    reads |= _text_reads("\n".join([
        _markdown_code((REPO_ROOT / "README.md").read_text(encoding="utf-8")),
        *(_workflow_code(path.read_text(encoding="utf-8"))
          for path in (REPO_ROOT / ".github" / "workflows").glob("*.yml")),
    ]))
    reads = _defined_where(reads) | set().union(*map(_annotated, MODULES))
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"mtspike.{name}")
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export)
            if not (_is_read(name, export, reads)
                    or isinstance(value, type) and issubclass(value, MTSpikeError)):
                unread.append(f"mtspike.{name}.{export}")
    assert sorted(unread) == sorted(_UNREAD_EXPORTS)


def test_prose_is_no_reader_of_an_export():
    """The reader rule counts Python, not words: README prose that says
    "type-checked", a workflow's step name or comment, or a CLI command such
    as ``mtspike train --preset NAME`` does not read ``schema.checked``,
    ``learning.train`` or ``config.preset``; code does."""
    prose = _text_reads(_markdown_code("Config values are type-checked, not coerced."))
    steps = "      # checked\n      - name: checked\n        run: |\n          # checked\n"
    assert not _is_read("schema", "checked", _text_reads(_workflow_code(steps + "          ls\n")))
    for line in ("checked(v)", "python -c 'from mtspike.schema import checked'"):
        code = _workflow_code(f"{steps}          {line}\n")
        assert _is_read("schema", "checked", _text_reads(code)), line
    assert not _is_read("schema", "checked", _code_reads("checked = 1\n") | prose)
    assert _is_read("schema", "checked", _text_reads(_markdown_code("call `checked(v)`")))
    for source in ("from .schema import checked\n", "from mtspike import schema\nschema.checked\n"):
        assert _is_read("schema", "checked", _code_reads(source) | prose)
    commands = [
        _markdown_code("Run `mtspike train --preset mt1_iris --out out/` first."),
        _workflow_code("      - run: mtspike train --preset mt1_iris --epochs 5 --out x\n"),
        _workflow_code("        run: |\n          mtspike eval --preset mt1_iris --model m\n"),
    ]
    for code in commands:
        assert code.strip()
        assert not _is_read("learning", "train", _text_reads(code)), code
        assert not _is_read("config", "preset", _text_reads(code)), code
    assert _is_read("learning", "train", _text_reads("learning.train(net, data, scheme, cfg)"))
    assert _is_read("config", "preset", _text_reads("cfg = preset('mt1_iris')"))


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
