"""The A/B driver's statistics: ``tools/ab.py``'s ``quartiles`` and ``verdict``.

Every speed claim quotes a verdict of ``tools/ab.py``; these pin the rule it
states: ``better`` needs the child to win at least 9 pairs in 10 and to beat
the parent's median by more than the parent's quartile spread; otherwise a
spread wider than the metric's relative bound is ``unresolved``, and the
child's median is ``worse`` or ``within bound`` by the same bound.
"""

import importlib.util
import sys

import pytest

from conftest import REPO_ROOT


def _load(name):
    """Import ``tools/<name>.py`` by path; ``ab`` imports ``bench`` as a sibling."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("bench")
ab = _load("ab")

HIGHER = {"name": "items_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "run_s", "better": "lower", "bound": 0.25}
# ten parent runs with median 100 and quartiles 99.25-100.75
PARENT = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]


def test_quartiles_are_inclusive_and_one_value_is_its_own():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles(PARENT) == (99.25, 100.0, 100.75)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("metric, child", [(HIGHER, 110.0), (LOWER, 90.0)])
def test_better_needs_nine_wins_in_ten(metric, child):
    children = [child] * 10
    assert ab.verdict(PARENT, children, 10, metric) == "better"
    assert ab.verdict(PARENT, children, 9, metric) == "better"
    assert ab.verdict(PARENT, children, 8, metric) == "within bound"


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1.0), (LOWER, -1.0)])
def test_better_needs_a_median_gain_above_the_parents_spread(metric, sign):
    """A spread of 1.5 around 100: a gain of 1.6 is better, one of 1.5 or 1.4 is not."""
    assert ab.verdict(PARENT, [100.0 + sign * 1.6] * 10, 10, metric) == "better"
    assert ab.verdict(PARENT, [100.0 + sign * 1.5] * 10, 10, metric) == "within bound"
    assert ab.verdict(PARENT, [100.0 + sign * 1.4] * 10, 10, metric) == "within bound"


@pytest.mark.parametrize("metric", [HIGHER, LOWER])
def test_a_spread_wider_than_the_bound_is_unresolved(metric):
    """Quartiles 70-130 around 100 are wider than 25% of it, so neither a
    small gain nor a large loss can be told apart from the noise."""
    parent = [60.0, 70.0, 70.0, 70.0, 100.0, 100.0, 130.0, 130.0, 130.0, 140.0]
    assert ab.quartiles(parent) == (70.0, 100.0, 130.0)
    assert ab.verdict(parent, [100.0] * 10, 5, metric) == "unresolved"
    worse = 50.0 if metric is HIGHER else 150.0
    assert ab.verdict(parent, [worse] * 10, 0, metric) == "unresolved"
    better = 200.0 if metric is HIGHER else 20.0
    assert ab.verdict(parent, [better] * 10, 10, metric) == "better"


@pytest.mark.parametrize("metric, sign", [(HIGHER, -1.0), (LOWER, 1.0)])
def test_worse_and_within_bound_sit_either_side_of_the_bound(metric, sign):
    """The bound is 25% of the parent's median of 100, on the metric's bad side."""
    assert ab.verdict(PARENT, [100.0 + sign * 26.0] * 10, 0, metric) == "worse"
    assert ab.verdict(PARENT, [100.0 + sign * 24.0] * 10, 0, metric) == "within bound"
    assert ab.verdict(PARENT, [100.0] * 10, 0, metric) == "within bound"


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1.0), (LOWER, -1.0)])
def test_a_single_pair(metric, sign):
    """One pair has no spread: a win by any margin is better, a loss is
    judged against the bound alone."""
    assert ab.verdict([100.0], [100.0 + sign * 0.5], 1, metric) == "better"
    assert ab.verdict([100.0], [100.0 - sign * 0.5], 0, metric) == "within bound"
    assert ab.verdict([100.0], [100.0 - sign * 30.0], 0, metric) == "worse"
    assert ab.verdict([100.0], [100.0], 0, metric) == "within bound"
