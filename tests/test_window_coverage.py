"""`transitivity_probe` reads the window's points of a line ball that is
j + c over a top cell spaced mod 1 straight from the sorted cell, one
bisected slice per shift j, without building or sorting the ball; every
other action and base point goes through `orbit`.  Either way the report
is the one the orbit's points give: the set of eps-bins hit in the window
and the orbit's size.  Its errors keep their order: eps, the window, a
circle window, the bin count, the word budget, then the base point."""

import math
import random

import pytest

from circledyn import (ZnAction, build_circle_action, build_line_action,
                       orbit, transitivity_probe)
from circledyn import probes
from circledyn.errors import BudgetExceededError, DomainError
from test_level_orbit import OFF_SHAPE
from test_sorted_ball import ALPHA, LEVELS, _former_coverage
from test_spaced_orbit import TRANSLATIONS

EPSILONS = (0.1, 0.013, 1e-9)


def _windows(x0, radius):
    """(0, 1), (0.2, 0.8), (-0.7, 1.3), one with an integer end, one across
    the ball's top edge, and one beyond the ball on either side."""
    top = math.floor(x0) + radius
    return [(0.0, 1.0), (0.2, 0.8), (-0.7, 1.3), (-2, 0.45),
            (top - 0.3, top + 2.5), (-1e4, -1e4 + 3.0),
            (1e16, 1e16 + 2.0)]


def _reference(points, size, eps, radius, window):
    """The report that the orbit's points and size give."""
    a, b = float(window[0]), float(window[1])
    coverage = _former_coverage(points, eps, (a, b))
    verdict = "SUPPORTS" if coverage == 1.0 else "INCONCLUSIVE"
    return {"verdict": verdict, "coverage": coverage,
            "parameters": {"eps": eps, "radius": radius, "window": [a, b],
                           "orbit_size": size}}


#: -1 + 1.2 rounds to just below 0.2, though 1.2 is not below 0.2 + 1 as
#: floats: the window's test must be taken on the rounded sums
ROUNDED_SUM = 1.2


def _check(action, x0, radius):
    sample = orbit(action, x0, radius)
    for window in _windows(x0, radius):
        for eps in EPSILONS:
            report = transitivity_probe(action, x0, eps, radius, window)
            want = _reference(sample.points, len(sample), eps, radius,
                              window)
            assert report.as_jsonable() == want, (x0, window, eps)


@pytest.mark.parametrize("n,radius", LEVELS + [(2, 50), (3, 8), (4, 5)])
def test_line_construction_reports_the_orbit(n, radius):
    action = build_line_action(ALPHA, n)
    rng = random.Random(f"window coverage {n} {radius}")
    seeded = [rng.uniform(-3.0, 3.0) for _ in range(50)]
    for x0 in seeded + [0.0, 2.0, -3.0, 1.0, ROUNDED_SUM]:
        _check(action, x0, radius)


def test_unspaced_cell_reports_the_orbit():
    # n = 4 at the middle of the cell: its top cell repeats points
    _check(build_line_action(ALPHA, 4), 0.5, 5)


@pytest.mark.parametrize("name", sorted(TRANSLATIONS))
@pytest.mark.parametrize("radius", [0, 1, 5])
def test_translations_report_the_orbit(name, radius):
    gens = TRANSLATIONS[name]
    action = ZnAction(n=len(gens), generators=gens)
    rng = random.Random(f"window translations {name}")
    seeded = [rng.uniform(-3.0, 3.0) for _ in range(6)]
    for x0 in seeded + [0.0, 0.37, 2.0, 1e15, -1e15 + 0.5, ROUNDED_SUM]:
        _check(action, x0, radius)


def _calls(monkeypatch, action, x0, radius):
    """The calls of orbit and of merge_sorted while the probe runs."""
    calls = []
    for name in ("orbit", "merge_sorted"):
        real = getattr(probes, name)

        def spy(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(probes, name, spy)
    transitivity_probe(action, x0, 0.05, radius, (0.2, 0.8))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spaced_line_ball_skips_orbit(n, monkeypatch):
    assert _calls(monkeypatch, build_line_action(ALPHA, n), 0.37, 5) == []


@pytest.mark.parametrize("action,x0", [
    (build_circle_action(ALPHA, 2, 2, (1, 0)), 0.37),
    (ZnAction(n=2, generators=OFF_SHAPE["affine translation"]), 0.37),
    (ZnAction(n=2, generators=TRANSLATIONS["half, alpha"]), 0.37),
    # the top cell repeats points, and a wall is fixed by every transplant
    (build_line_action(ALPHA, 4), 0.5),
    (build_line_action(ALPHA, 3), 2.0),
])
def test_fallbacks_call_orbit_once(action, x0, monkeypatch):
    assert _calls(monkeypatch, action, x0, 3).count("orbit") == 1


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_non_finite_base_point_raises(x0):
    action = build_line_action(ALPHA, 3)
    with pytest.raises(DomainError,
                       match=f"^non-finite evaluation point {x0!r}$"):
        transitivity_probe(action, x0, 0.1, 2)


def test_budget_is_checked_before_the_base_point():
    action = build_line_action(ALPHA, 3)
    with pytest.raises(BudgetExceededError):
        transitivity_probe(action, math.nan, 0.1, 10**4)


def test_errors_keep_their_order():
    action = build_line_action(ALPHA, 3)
    with pytest.raises(ValueError, match="eps"):
        transitivity_probe(action, math.nan, 0.0, 10**4, (1.0, 0.0))
    with pytest.raises(ValueError, match="nonempty"):
        transitivity_probe(action, math.nan, 0.1, 10**4, (1.0, 0.0))
    circle = build_circle_action(ALPHA, 2, 2, (1, 0))
    with pytest.raises(ValueError, match="must lie inside"):
        transitivity_probe(circle, math.nan, 1e-300, 10**4, (-1e300, 1e300))
    with pytest.raises(ValueError, match="too many bins"):
        transitivity_probe(action, math.nan, 1e-300, 10**4, (-1e300, 1e300))
