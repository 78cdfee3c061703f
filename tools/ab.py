#!/usr/bin/env python3
"""Paired A/B runs of one benchmark workload on two revisions.

Usage, from the repository root::

    python3 tools/ab.py PARENT CHILD --workload digits_train --pairs 10 --seconds 20

Both revisions are checked out as fresh local clones (``bench.checkout``).
Each pair runs ``perfbench/run.py`` once on each side, the parent first in
odd pairs and the child first in even ones.  For every end-to-end metric
of ``BENCHMARK.json`` it then prints one line: the median of the per-pair
child/parent ratios, each side's median and quartiles, in how many pairs
the child was better (by the metric's ``better``; ties count for neither
side), and a verdict (:func:`verdict`).  Exits 1 when a run fails its
checks.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

from bench import BENCHMARK, WORKLOADS, checkout, run_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], child: list[float], wins: int, metric: dict) -> str:
    """``better`` when the child won at least 9 in 10 pairs and its median
    beats the parent's by more than the parent's quartile spread;
    otherwise ``unresolved`` when that spread is wider than the metric's
    relative ``bound``, ``worse`` when the child's median is worse than the
    parent's by more than the bound, and ``within bound`` when it is not."""
    (p1, p2, p3), c2 = quartiles(parent), statistics.median(child)
    gain = c2 - p2 if metric["better"] == "higher" else p2 - c2
    allowed = metric["bound"] * abs(p2)
    if 10 * wins >= 9 * len(parent) and gain > p3 - p1:
        return "better"
    if p3 - p1 > allowed:
        return "unresolved"
    return "worse" if -gain > allowed else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    values = {"parent": [], "child": []}
    with tempfile.TemporaryDirectory(prefix="mtspike-ab-") as scratch:
        trees = {side: Path(scratch) / side for side in values}
        commits = {side: checkout(getattr(args, side), trees[side]) for side in values}
        print(f"parent {commits['parent']}  child {commits['child']}  "
              f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
        for pair in range(args.pairs):
            order = ("parent", "child") if pair % 2 == 0 else ("child", "parent")
            for side in order:
                result, _ = run_workload(trees[side], args.workload, args.seed, args.seconds)
                if not result["correct"]:
                    print(f"pair {pair + 1}: the {side} failed its checks: {result}")
                    return 1
                values[side].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"pair {pair + 1}/{args.pairs} done, {order[0]} first", file=sys.stderr)

    for metric in BENCHMARK["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [v[name] for v in values["parent"]]
        child = [v[name] for v in values["child"]]
        ratios = [c / p for p, c in zip(parent, child) if p]
        wins = sum(c > p if higher else c < p for p, c in zip(parent, child))
        ratio = f"{statistics.median(ratios):.4f}" if ratios else "n/a"
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(child)
        print(f"{name}: ratio {ratio} child/parent; parent {p2:.6g} "
              f"(quartiles {p1:.6g}-{p3:.6g}), child {c2:.6g} ({c1:.6g}-{c3:.6g}), "
              f"{metric['better']} is better, child better in {wins}/{args.pairs}: "
              f"{verdict(parent, child, wins, metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
