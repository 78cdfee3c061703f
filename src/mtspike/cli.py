"""Command-line interface.

Subcommands: ``train``, ``eval``, ``encode``, ``srm-demo``, ``presets``.
``train`` and friends take either ``--config PATH`` (JSON, schema in
README.md's "Config files" section) or ``--preset NAME``.  Verbosity comes
from the ``MTSPIKE_LOG`` environment variable (debug/info/warning/error).

Every failure prints one machine-greppable line of the form
``mtspike: error [E_CODE] message`` to stderr and exits nonzero.

Numeric imports happen inside the command handlers: loading numpy and the
numeric modules up front would at least double the start-up time of
``--help`` and of usage errors.  Model bytes repeat for the same numpy/BLAS
build and thread count, so :func:`main` sets each BLAS thread variable left
unset to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from itertools import chain
from pathlib import Path

from .errors import ConfigError, ModelIOError, MTSpikeError, _reported

log = logging.getLogger(__name__)

_LOG_LEVELS = ("debug", "info", "warning", "error")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors match the CLI error-line format."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"mtspike: error [E_USAGE] {message}", file=sys.stderr)
        raise SystemExit(2)


def _setup_logging():
    name = os.environ.get("MTSPIKE_LOG", "warning").strip().lower()
    logging.basicConfig(
        level=name.upper() if name in _LOG_LEVELS else "WARNING",
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if name and name not in _LOG_LEVELS:
        log.warning("unknown MTSPIKE_LOG level %r, using warning", name)


def _shown(text: str) -> str:
    """``text`` for a terminal line: a NUL would make grep read the line as binary."""
    return text.replace("\0", "\\0")


def _resolve_config(args):
    from .config import load_config, preset

    if args.preset is not None:
        return preset(args.preset)
    return load_config(args.config)


def _write_lines(path: Path | None, lines) -> None:
    """Write text ``lines`` as UTF-8 to ``path``, creating its directory.

    ``None`` is stdout.  Lines carry their own ends: ``\\r\\n`` in the CSV
    files, as ``csv.writer`` wrote them.  Failing to create or write the
    file is a ConfigError naming ``path``.
    """
    if path is None:
        sys.stdout.writelines(lines)
        return
    with _reported(ConfigError, "write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(lines)


def _check_writable(path: Path, error=ConfigError, doing="write") -> None:
    """Make ``path``'s directory, then fail as writing ``path`` would, creating no file."""
    with _reported(ConfigError, "write", path):
        path.parent.mkdir(parents=True, exist_ok=True)
    with _reported(error, doing, path):
        try:  # without O_CREAT and O_TRUNC, open only a file that exists, as it is
            open(path, "wb", opener=lambda p, flags: os.open(
                p, flags & ~(os.O_CREAT | os.O_TRUNC))).close()
        except FileNotFoundError:
            if not os.access(path.parent, os.W_OK | os.X_OK):
                open(path, "wb").close()  # fails, with the system's own reason


def cmd_train(args) -> int:
    from dataclasses import replace

    from . import pipeline
    from .model_io import save_model
    from .network import _weight_count

    cfg = _resolve_config(args)
    if args.seed is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
    if args.epochs is not None:
        cfg.train = replace(cfg.train, epochs=args.epochs)

    print(f"run: {_shown(cfg.name)}")
    print(f"layers: {'-'.join(str(s) for s in cfg.layer_sizes)}")
    print(f"weights: {_weight_count(cfg.layer_sizes)}")
    sys.stdout.flush()

    out = Path(args.out)
    model_path = Path(cfg.model_path or out / f"{cfg.name}.mtspike")
    metrics_path = Path(cfg.metrics_path or out / f"{cfg.name}_metrics.csv")
    # an output that cannot be written fails here, not after the last epoch
    _check_writable(model_path, ModelIOError, "write model to")
    _check_writable(metrics_path)

    result = pipeline.execute_run(cfg)
    save_model(result.model, model_path)
    # execute_run always evaluates, so every epoch has a test accuracy
    _write_lines(metrics_path, chain(
        ["epoch,mse,train_accuracy,test_accuracy\r\n"],
        (f"{row.epoch},{row.mse!r},{row.train_accuracy!r},{row.test_accuracy!r}\r\n"
         for row in result.history),
    ))

    print(f"final_test_accuracy: {result.metrics.test_accuracy:.6f}")
    print(f"model_file: {model_path}")
    print(f"metrics_file: {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    from . import pipeline
    from .datasets import encode_dataset
    from .metrics import _summarize
    from .model_io import load_model

    cfg = _resolve_config(args)
    confusion_path = Path(args.out) / f"{cfg.name}_{args.split}_confusion.csv"
    _check_writable(confusion_path)  # before any data is read, as in train
    model = load_model(args.model)
    train_raw, test_raw = pipeline._load_raw(cfg)
    raw = train_raw if args.split == "train" else test_raw
    # the model's own coding snapshot, not the config's, defines the encoding
    encoded = encode_dataset(raw, model.coding)
    result = _summarize(model.network, encoded, model.scheme, alpha=cfg.alpha)

    _write_lines(confusion_path, chain(
        [",".join(["true\\pred", *map(str, range(len(result.confusion)))]) + "\r\n"],
        (",".join(map(str, [i, *row])) + "\r\n"
         for i, row in enumerate(result.confusion.tolist())),
    ))

    print(f"run: {_shown(cfg.name)} ({args.split} split, {len(encoded)} samples)")
    print(f"accuracy: {result.test_accuracy:.6f}")
    print(f"total_spikes: {result.total_spikes}")
    print(f"mean_spikes_per_inference: {result.total_spikes / len(encoded):.2f}")
    print(f"energy_alpha_units: {result.energy:g}")
    print(f"confusion_file: {confusion_path}")
    return 0


def cmd_encode(args) -> int:
    import numpy as np

    from . import pipeline
    from .datasets import encode_dataset

    cfg = _resolve_config(args)
    out = Path(args.out)
    delays_path = out / f"{cfg.name}_{args.split}_delays.csv"
    histogram_path = out / f"{cfg.name}_{args.split}_histogram.csv"
    for path in (delays_path, histogram_path):  # before any data is read, as in train
        _check_writable(path)
    train_raw, test_raw = pipeline._load_raw(cfg)
    spec = pipeline._fit_coding(cfg.coding, train_raw)
    raw = train_raw if args.split == "train" else test_raw
    encoded = encode_dataset(raw, spec)
    resolution = spec.params.resolution
    bins = np.round(encoded.delays[encoded.fired] / spec.params.unit).astype(np.int64)
    try:
        counts = np.bincount(bins, minlength=resolution + 1)
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate a {resolution + 1}-slot delay histogram") from exc

    width = encoded.delays.shape[1]
    rows = zip(encoded.labels.tolist(), encoded.delays.tolist(), encoded.fired.tolist())
    _write_lines(delays_path, chain(
        [",".join(["label", *(f"n{i}" for i in range(width))]) + "\r\n"],
        # + 0.0 prints a -0.0 delay (a value just past the fitted range) as 0
        (",".join([str(label), *(f"{d + 0.0:g}" if f else "-" for d, f in zip(ds, fs))])
         + "\r\n"
         for label, ds, fs in rows),
    ))
    _write_lines(histogram_path, chain(
        ["delay_units,count\r\n"],
        (f"{unit_delay},{count}\r\n" for unit_delay, count in enumerate(counts.tolist())),
    ))

    print(f"samples: {len(encoded)}")
    print(f"columns: {width + 1}")
    print(f"delays_file: {delays_path}")
    print(f"histogram_file: {histogram_path}")
    return 0


def _parse_floats(text: str, flag: str):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}") from exc


def cmd_srm_demo(args) -> int:
    from dataclasses import fields

    import numpy as np

    from .coding import DelayVector
    from .srm import _TRACE_SLICE, SrmParams, _voltage_trace, threshold_crossing

    delays = np.array(_parse_floats(args.delays, "--delays"))
    weights = np.array(_parse_floats(args.weights, "--weights"))
    if args.fired is None:
        fired = np.ones(delays.shape[0], dtype=bool)
    else:
        flags = _parse_floats(args.fired, "--fired")
        if any(v not in (0.0, 1.0) for v in flags):
            raise ConfigError(f"--fired expects 0/1 flags, got {args.fired!r}")
        fired = np.array(flags, dtype=bool)
    if weights.shape != delays.shape or fired.shape != delays.shape:
        raise ConfigError("--delays, --weights, and --fired must have equal lengths")

    params = SrmParams(**{f.name: getattr(args, f.name) for f in fields(SrmParams)
                          if hasattr(args, f.name)})
    inputs = DelayVector(delays=delays, fired=fired)
    times, voltage = _voltage_trace(inputs, weights, params)
    crossing = threshold_crossing(inputs, weights, params)

    lines = chain(
        ["t,v\n"],
        # Python floats format about twice as fast as numpy scalars, same text;
        # a slice at a time: lists of a whole 1e7-point grid took the peak RSS
        # from 412 MB to 948 MB
        (f"{t:.6g},{v:.8g}\n"
         for start in range(0, len(times), _TRACE_SLICE)
         for t, v in zip(times[start:start + _TRACE_SLICE].tolist(),
                         voltage[start:start + _TRACE_SLICE].tolist())),
        [f"# crossing,{'none' if crossing is None else f'{crossing:.6g}'}\n"],
    )
    _write_lines(Path(args.out) if args.out else None, lines)
    if args.out:
        print(f"trace_file: {Path(args.out)}")
    return 0


def cmd_presets(args) -> int:
    from .config import _preset_names, preset

    for name in _preset_names():
        cfg = preset(name)
        shape = "-".join(str(s) for s in cfg.layer_sizes)
        suffix = " (heuristic)" if cfg.train.heuristic else ""
        print(f"{name}: {cfg.dataset.kind} {shape} {cfg.scheme.mode}{suffix}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mtspike",
        description="Single-spike delay-coded network training and evaluation.",
    )
    with_config = argparse.ArgumentParser(add_help=False)
    group = with_config.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="JSON run config")
    group.add_argument("--preset", metavar="NAME", help="named built-in config")
    with_out = argparse.ArgumentParser(add_help=False)
    with_out.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (default: .)"
    )
    with_split = argparse.ArgumentParser(add_help=False)
    with_split.add_argument(
        "--split", choices=("train", "test"), default="test",
        help="which split to read (default: test)",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_train = sub.add_parser(
        "train", parents=[with_config, with_out],
        help="train a network and write model + metrics files",
    )
    p_train.add_argument("--seed", type=int, default=None, help="override training seed")
    p_train.add_argument("--epochs", type=int, default=None, help="override epoch count")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval", parents=[with_config, with_out, with_split],
        help="evaluate a saved model on a dataset split",
    )
    p_eval.add_argument("--model", metavar="PATH", required=True, help="model file")
    p_eval.set_defaults(func=cmd_eval)

    p_encode = sub.add_parser(
        "encode", parents=[with_config, with_out, with_split],
        help="write encoded spike delays and a delay histogram as CSV",
    )
    p_encode.set_defaults(func=cmd_encode)

    # SRM flags left out are left out of SrmParams too, which holds their defaults
    p_srm = sub.add_parser(
        "srm-demo", help="print a reference SRM voltage trace and its crossing time",
        argument_default=argparse.SUPPRESS,
    )
    p_srm.add_argument("--delays", default="0,2", help="input spike delays, comma-separated")
    p_srm.add_argument("--weights", default="1.0,0.8", help="synaptic weights, comma-separated")
    p_srm.add_argument("--fired", default=None, help="0/1 spike-presence flags (default: all 1)")
    p_srm.add_argument("--tau-decay", type=float)
    p_srm.add_argument("--tau-rise", type=float)
    p_srm.add_argument("--threshold", type=float, dest="v_threshold", metavar="THRESHOLD")
    p_srm.add_argument("--dt", type=float)
    p_srm.add_argument("--horizon", type=float)
    p_srm.add_argument("--out", metavar="PATH", default=None, help="write CSV here instead of stdout")
    p_srm.set_defaults(func=cmd_srm_demo)

    p_presets = sub.add_parser("presets", help="list built-in run configurations")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # once loaded, BLAS keeps its thread count
        for var in _THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except MTSpikeError as exc:
        log.debug("command failed", exc_info=True)
        print(f"mtspike: error [{exc.code}] {_shown(str(exc))}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("mtspike: error [E_INTERRUPTED] interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); die quietly like cat does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except Exception as exc:  # pragma: no cover - last-resort guard
        log.debug("unexpected failure", exc_info=True)
        print(f"mtspike: error [E_INTERNAL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
