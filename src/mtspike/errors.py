"""Exception hierarchy shared across the package.

Every error carries a short machine-greppable code; the CLI prints it as a
single-line ``mtspike: error [CODE] message`` before exiting nonzero.
:func:`_reported` is the one place that decides what a path failure is and
how its message reads: ``cannot <verb> <path>: <reason>``.
"""

from contextlib import contextmanager

__all__ = [
    "MTSpikeError",
    "ConfigError",
    "DataError",
    "StructureError",
    "ModelIOError",
    "DivergenceError",
    "EvaluationError",
]


class MTSpikeError(Exception):
    """Base class for all package errors."""

    code = "E_INTERNAL"


class ConfigError(MTSpikeError):
    """Invalid or inconsistent configuration (parameters, presets, config files)."""

    code = "E_CONFIG"


class DataError(MTSpikeError):
    """Malformed or unreadable input data (CSV rows, IDX payloads, counts)."""

    code = "E_DATA"


class StructureError(MTSpikeError):
    """Network/input shape mismatch or structurally invalid network."""

    code = "E_SHAPE"


class ModelIOError(MTSpikeError):
    """Corrupt, truncated, or unsupported model files."""

    code = "E_MODEL"


class DivergenceError(MTSpikeError):
    """Training aborted because the loss became non-finite."""

    code = "E_DIVERGED"


class EvaluationError(MTSpikeError):
    """Evaluation encountered values that cannot be classified (e.g. NaN delays)."""

    code = "E_EVAL"


@contextmanager
def _reported(error, doing, path, *also):
    """Raise an ``OSError``, a ``ValueError`` (a NUL in the path, text that is
    not UTF-8) or an ``also`` type from the block as ``error`` naming ``path``."""
    try:
        yield
    except (OSError, ValueError, *also) as exc:
        raise error(f"cannot {doing} {path}: {exc}") from exc
