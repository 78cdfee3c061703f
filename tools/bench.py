#!/usr/bin/env python3
"""Run the four benchmark workloads on one revision; write ``BENCH_<label>.json``.

Usage, from the repository root::

    python3 tools/bench.py --label parent --rev HEAD~1

Each workload runs ``perfbench/run.py`` once, with seed 0, for
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``), in a fresh
local clone of ``--rev`` (default ``HEAD``), so uncommitted edits are not
measured: a run from a working checkout read ``digits_train``
``items_per_s`` about 2% lower than a fresh clone of the same commit.  The
file holds each workload's last output line (the result object) with the
commit, host, CPU count and the BLAS thread count the benchmark pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> str:
    """Clone this repository into ``dest`` at ``rev``; return the commit id.

    A local clone rather than ``git worktree``: it registers nothing in
    this repository's ``.git``, so an interrupted run leaves nothing behind.
    """
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    _git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(dest))
    _git("checkout", "--quiet", "--detach", commit, cwd=dest)
    return commit


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in checkout ``root``: (result line, details line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    try:
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{workload} in {root} exited {done.returncode} without a result:\n"
                 f"{done.stderr[-2000:]}")
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--rev", default="HEAD", help="revision to measure (default: HEAD)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    results = {}
    with tempfile.TemporaryDirectory(prefix="mtspike-bench-") as scratch:
        tree = Path(scratch) / "tree"
        commit = checkout(args.rev, tree)
        for workload in WORKLOADS:
            results[workload], details = run_workload(tree, workload, 0, args.seconds)
            print(f"{workload}: correct={results[workload]['correct']}", file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({
        "label": args.label,
        "commit": commit,
        "host": platform.node(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": details["env"]["blas_threads"],
        "seed": 0,
        "seconds": args.seconds,
        "workloads": results,
    }, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
