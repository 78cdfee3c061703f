"""One checked way to build a dataclass from parsed JSON.

Run configs, presets and model headers all go through :func:`from_json`:
no unknown keys, no missing required fields, every value of its field's
annotated JSON type, never coerced (a JSON ``16`` stays ``16``).  Every
failure is a :class:`~mtspike.errors.ConfigError`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

import numpy as np

from .errors import ConfigError

__all__ = ["from_json"]


def _fits(value, tp) -> bool:
    """Whether a parsed JSON ``value`` has the type annotated as ``tp``.

    An int accepts no bool, a float accepts an int but no NaN or infinity,
    a tuple accepts a list of its length and an ndarray nested number lists.
    """
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if tp is float:  # NaN and Infinity are not JSON; only Python's reader takes them
        return _fits(value, int) or isinstance(value, float) and math.isfinite(value)
    if tp is np.ndarray:
        return isinstance(value, list) and all(
            _fits(v, np.ndarray if isinstance(v, list) else float) for v in value
        )
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in args)
    if origin is tuple:
        if not isinstance(value, list):
            return False
        arms = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(arms) and all(map(_fits, value, arms))
    return isinstance(value, tp)


def _checked(value, tp, name: str):
    """``value`` if it fits annotation ``tp``; a list becomes a tuple for a tuple field."""
    if not _fits(value, tp):
        text = tp.__name__ if isinstance(tp, type) else str(tp)
        raise ConfigError(f"{name} must be of type {text}, got {value!r}")
    return tuple(value) if typing.get_origin(tp) is tuple else value


@functools.cache
def _fields(cls) -> tuple[dict, set]:
    """Field annotations of dataclass ``cls``, and the fields without a default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    return {f.name: hints[f.name] for f in fields}, required


def from_json(cls, obj, section: str, complete: bool = False, **defaults):
    """Build dataclass ``cls`` from the JSON object ``obj`` of block ``section``.

    ``defaults`` fill keys that ``obj`` leaves out; with ``complete``, as in
    a model header, every field must be present.  A ``TypeError``,
    ``ValueError`` or ``OverflowError`` from the constructor becomes a
    ``ConfigError`` too.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} section must be a JSON object, got {obj!r}")
    annotated, required = _fields(cls)
    unknown = obj.keys() - annotated.keys()
    if unknown:
        raise ConfigError(f"unknown {section} option(s): {', '.join(sorted(unknown))}")
    obj = {**defaults, **obj}
    missing = (annotated.keys() if complete else required) - obj.keys()
    if missing:
        raise ConfigError(f"{section} is missing field(s): {', '.join(sorted(missing))}")
    kwargs = {k: _checked(v, annotated[k], f"{section} option {k}") for k, v in obj.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {section}: {exc}") from exc
