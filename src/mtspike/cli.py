"""Command-line interface.

Subcommands: ``train``, ``eval``, ``encode``, ``srm-demo``, ``presets``.
``train`` and friends take either ``--config PATH`` (JSON, schema in
:mod:`mtspike.config`) or ``--preset NAME``.  Verbosity comes from the
``MTSPIKE_LOG`` environment variable (debug/info/warning/error).

Every failure prints one machine-greppable line of the form
``mtspike: error [E_CODE] message`` to stderr and exits nonzero.

Numeric imports happen inside the command handlers, after ``--threads`` has
set the BLAS/OpenMP environment caps; that ordering is the whole reason this
module keeps its imports lazy.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from .errors import ConfigError, MTSpikeError

log = logging.getLogger(__name__)

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors match the CLI error-line format."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"mtspike: error [E_USAGE] {message}", file=sys.stderr)
        raise SystemExit(2)


def _setup_logging():
    name = os.environ.get("MTSPIKE_LOG", "warning").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if name and name not in _LOG_LEVELS:
        log.warning("unknown MTSPIKE_LOG level %r, using warning", name)


def _limit_threads(n: int):
    """Cap numeric worker threads through the BLAS/OpenMP environment variables.

    numpy reads them only when it is first imported, so a caller that has
    already loaded numpy gets a warning instead.
    """
    if n < 1:
        raise ConfigError("--threads must be >= 1")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = str(n)
    if "numpy" in sys.modules:
        log.warning("numpy already loaded; --threads may not take effect")


def _resolve_config(args):
    from .config import load_config, preset

    if args.preset is not None:
        return preset(args.preset)
    return load_config(args.config)


@contextmanager
def _writing(path: Path):
    """Create the directory of output ``path``; failing to write it is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_train(args) -> int:
    from dataclasses import replace

    from . import pipeline
    from .metrics import write_metrics_csv
    from .model_io import save_model
    from .network import weight_count

    cfg = _resolve_config(args)
    if args.seed is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
    if args.epochs is not None:
        cfg.train = replace(cfg.train, epochs=args.epochs)

    print(f"run: {cfg.name}")
    print(f"layers: {'-'.join(str(s) for s in cfg.layer_sizes)}")
    print(f"weights: {weight_count(cfg.layer_sizes)}")
    sys.stdout.flush()

    result = pipeline.execute_run(cfg)

    out = Path(args.out)
    model_path = Path(cfg.model_path) if cfg.model_path else out / f"{cfg.name}.mtspike"
    metrics_path = (
        Path(cfg.metrics_path) if cfg.metrics_path else out / f"{cfg.name}_metrics.csv"
    )
    with _writing(model_path), _writing(metrics_path):
        save_model(result.model, model_path)
        write_metrics_csv(metrics_path, result.history)

    print(f"final_test_accuracy: {result.metrics.test_accuracy:.6f}")
    print(f"model_file: {model_path}")
    print(f"metrics_file: {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    from . import pipeline
    from .datasets import encode_dataset
    from .metrics import summarize, write_confusion_csv
    from .model_io import load_model

    cfg = _resolve_config(args)
    model = load_model(args.model)
    train_raw, test_raw = pipeline.load_raw(cfg)
    raw = train_raw if args.split == "train" else test_raw
    # the model's own coding snapshot, not the config's, defines the encoding
    encoded = encode_dataset(raw, model.coding)
    result = summarize(model.network, encoded, model.scheme, alpha=cfg.alpha)

    out = Path(args.out)
    confusion_path = out / f"{cfg.name}_{args.split}_confusion.csv"
    with _writing(confusion_path):
        write_confusion_csv(confusion_path, result.confusion)

    print(f"run: {cfg.name} ({args.split} split, {len(encoded)} samples)")
    print(f"accuracy: {result.test_accuracy:.6f}")
    print(f"total_spikes: {result.total_spikes}")
    print(f"mean_spikes_per_inference: {result.total_spikes / len(encoded):.2f}")
    print(f"energy_alpha_units: {result.energy:g}")
    print(f"confusion_file: {confusion_path}")
    return 0


def cmd_encode(args) -> int:
    import csv

    import numpy as np

    from . import pipeline
    from .datasets import encode_dataset

    cfg = _resolve_config(args)
    train_raw, test_raw = pipeline.load_raw(cfg)
    spec = pipeline.fit_coding(cfg.coding, train_raw)
    raw = train_raw if args.split == "train" else test_raw
    encoded = encode_dataset(raw, spec)
    resolution = spec.params.resolution
    bins = np.round(encoded.delays[encoded.fired] / spec.params.unit).astype(np.int64)
    try:
        counts = np.bincount(bins, minlength=resolution + 1)
    except MemoryError as exc:
        raise ConfigError(f"cannot allocate a {resolution + 1}-slot delay histogram") from exc

    out = Path(args.out)
    delays_path = out / f"{cfg.name}_{args.split}_delays.csv"
    histogram_path = out / f"{cfg.name}_{args.split}_histogram.csv"

    width = encoded.delays.shape[1]
    with _writing(delays_path), open(
        delays_path, "w", newline="", encoding="utf-8"
    ) as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"n{i}" for i in range(width)])
        for i in range(len(encoded)):
            row = [str(int(encoded.labels[i]))]
            for d, f in zip(encoded.delays[i], encoded.fired[i]):
                row.append(f"{d:g}" if f else "-")
            writer.writerow(row)

    with _writing(histogram_path), open(
        histogram_path, "w", newline="", encoding="utf-8"
    ) as fh:
        writer = csv.writer(fh)
        writer.writerow(["delay_units", "count"])
        for unit_delay in range(resolution + 1):
            writer.writerow([unit_delay, int(counts[unit_delay])])

    print(f"samples: {len(encoded)}")
    print(f"columns: {width + 1}")
    print(f"delays_file: {delays_path}")
    print(f"histogram_file: {histogram_path}")
    return 0


def _parse_floats(text: str, flag: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} expects at least one value")
    return values


def cmd_srm_demo(args) -> int:
    import numpy as np

    from .coding import DelayVector
    from .srm import SrmParams, _first_crossing, voltage_trace

    delays = np.array(_parse_floats(args.delays, "--delays"))
    weights = np.array(_parse_floats(args.weights, "--weights"))
    if args.fired is None:
        fired = np.ones(delays.shape[0], dtype=bool)
    else:
        fired = np.array(
            [v != 0 for v in _parse_floats(args.fired, "--fired")], dtype=bool
        )
    if weights.shape != delays.shape or fired.shape != delays.shape:
        raise ConfigError("--delays, --weights, and --fired must have equal lengths")

    params = SrmParams(
        tau_decay=args.tau_decay,
        tau_rise=args.tau_rise,
        v_threshold=args.threshold,
        dt=args.dt,
        horizon=args.horizon,
    )
    inputs = DelayVector(delays=delays, fired=fired)
    times, voltage = voltage_trace(inputs, weights, params)
    crossing = _first_crossing(inputs, times, voltage, params)

    lines = chain(
        ["t,v\n"],
        # Python floats format about twice as fast as numpy scalars, same text
        (f"{t:.6g},{v:.8g}\n" for t, v in zip(times.tolist(), voltage.tolist())),
        [f"# crossing,{'none' if crossing is None else f'{crossing:.6g}'}\n"],
    )
    if not args.out:
        sys.stdout.writelines(lines)
        return 0
    out = Path(args.out)
    with _writing(out), open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"trace_file: {out}")
    return 0


def cmd_presets(args) -> int:
    from .config import preset, preset_names

    for name in preset_names():
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
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=int, metavar="N", default=None,
        help="cap BLAS/OpenMP worker threads",
    )
    with_config = argparse.ArgumentParser(add_help=False)
    group = with_config.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="JSON run config")
    group.add_argument("--preset", metavar="NAME", help="named built-in config")
    with_out = argparse.ArgumentParser(add_help=False)
    with_out.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (default: .)"
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_train = sub.add_parser(
        "train", parents=[threads, with_config, with_out],
        help="train a network and write model + metrics files",
    )
    p_train.add_argument("--seed", type=int, default=None, help="override training seed")
    p_train.add_argument("--epochs", type=int, default=None, help="override epoch count")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval", parents=[threads, with_config, with_out],
        help="evaluate a saved model on a dataset split",
    )
    p_eval.add_argument("--model", metavar="PATH", required=True, help="model file")
    p_eval.add_argument(
        "--split", choices=("train", "test"), default="test",
        help="which split to evaluate (default: test)",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_encode = sub.add_parser(
        "encode", parents=[threads, with_config, with_out],
        help="write encoded spike delays and a delay histogram as CSV",
    )
    p_encode.add_argument(
        "--split", choices=("train", "test"), default="test",
        help="which split to encode (default: test)",
    )
    p_encode.set_defaults(func=cmd_encode)

    p_srm = sub.add_parser(
        "srm-demo", parents=[threads],
        help="print a reference SRM voltage trace and its crossing time",
    )
    p_srm.add_argument("--delays", default="0,2", help="input spike delays, comma-separated")
    p_srm.add_argument("--weights", default="1.0,0.8", help="synaptic weights, comma-separated")
    p_srm.add_argument("--fired", default=None, help="0/1 spike-presence flags (default: all 1)")
    p_srm.add_argument("--tau-decay", type=float, default=4.0, dest="tau_decay")
    p_srm.add_argument("--tau-rise", type=float, default=1.0, dest="tau_rise")
    p_srm.add_argument("--threshold", type=float, default=1.0)
    p_srm.add_argument("--dt", type=float, default=0.01)
    p_srm.add_argument("--horizon", type=float, default=64.0)
    p_srm.add_argument("--out", metavar="PATH", default=None, help="write CSV here instead of stdout")
    p_srm.set_defaults(func=cmd_srm_demo)

    p_presets = sub.add_parser("presets", help="list built-in run configurations")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging()
    try:
        if getattr(args, "threads", None) is not None:
            _limit_threads(args.threads)
        return args.func(args)
    except MTSpikeError as exc:
        log.debug("command failed", exc_info=True)
        print(f"mtspike: error [{exc.code}] {exc}", file=sys.stderr)
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
