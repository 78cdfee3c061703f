"""The package namespace: every advertised name resolves lazily."""

import importlib

import pytest

import mtspike


def test_every_export_resolves():
    for name in mtspike.__all__:
        value = getattr(mtspike, name)
        if name != "__version__":
            module = importlib.import_module(mtspike._EXPORTS[name], "mtspike")
            assert value is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        mtspike.not_an_export
