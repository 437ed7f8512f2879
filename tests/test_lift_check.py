"""The one lift check: normalize_lift decides what a lifting is from one
pass of 128 evaluations, for project, CircleHomeo and its composites alike.
The check's grid, tolerance and accuracy are module constants."""

import inspect
import math

import pytest

from circledyn import circle, expr, groups, probes, rotnum
from circledyn.circle import (CircleHomeo, merge_circular, normalize_lift,
                              project, rotation, sine_lift)
from circledyn.errors import NotALiftError
from circledyn.expr import HomeoExpr


class _Map(HomeoExpr):
    """A custom node that the lift check has to judge by its values."""

    __slots__ = ("fn",)
    kind = "custom"

    def __init__(self, fn):
        self.fn = fn

    def _eval(self, x, eps):
        return self.fn(x)


#: commutes with the unit translation but decreases around x = 1/2
WOBBLE = _Map(lambda x: x + 0.3 * math.sin(2.0 * math.pi * x))


@pytest.fixture
def evaluations(monkeypatch):
    calls = []
    real = circle.evaluate

    def counting(h, x, eps=expr.DEFAULT_EPS):
        calls.append(x)
        return real(h, x, eps)

    monkeypatch.setattr(circle, "evaluate", counting)
    return calls


def test_project_makes_one_pass_of_128_evaluations(evaluations):
    project(sine_lift(0.3, 0.05))
    assert len(evaluations) == 2 * circle.CHECK_GRID == 128


def test_compose_makes_one_pass_of_128_evaluations(evaluations):
    f = project(sine_lift(0.3, 0.05))
    g = project(sine_lift(0.1, 0.02))
    evaluations.clear()
    f.compose(g)
    assert len(evaluations) == 128


def test_check_grid_points(evaluations):
    project(sine_lift(0.3, 0.05))
    xs = [j / 64 for j in range(64)]
    assert sorted(evaluations) == sorted(xs + [x + 1.0 for x in xs])


@pytest.mark.parametrize("check", [project, CircleHomeo, normalize_lift])
def test_non_increasing_commuting_map_is_rejected(check):
    assert circle.commutation_defect(WOBBLE) < 1e-12
    with pytest.raises(NotALiftError, match="not increasing"):
        check(WOBBLE)


def test_monotonicity_is_reported_before_commutation():
    # decreasing and not commuting: the monotonicity message comes first
    with pytest.raises(NotALiftError, match="not increasing"):
        project(_Map(lambda x: -x))
    with pytest.raises(NotALiftError, match="commutation defect"):
        project(_Map(lambda x: 2.0 * x))


def test_composites_inverses_and_powers_are_checked():
    f = project(sine_lift(0.3, 0.05))
    for h in (f.compose(rotation(0.25)), f.inverse(), f.power(3)):
        assert 0.0 <= h.lift_value(0.0) < 1.0


def test_check_values_are_constants():
    assert circle.CHECK_GRID == 64 and circle.CHECK_TOL == 1e-9
    assert circle.DEFAULT_EVAL_EPS == expr.DEFAULT_EPS == 1e-12
    assert not hasattr(circle, "monotonicity_defect")
    knobs = {"grid", "tol", "eps", "window", "samples"}
    for fn, keep in [(circle.commutation_defect, set()),
                     (circle.normalize_lift, set()),
                     (circle.CircleHomeo.__init__, set()),
                     (circle.project, set()),
                     (groups.conjugacy_verdict, {"tol"}),
                     (rotnum.conjugate_to_translation, set()),
                     (probes.fixed_points, {"tol"}),
                     (probes._identity_on_interval, {"tol", "eps"})]:
        params = set(inspect.signature(fn).parameters)
        assert params & knobs == keep, fn.__qualname__


def _former_circular_dedup(angles, resolution):
    kept = []
    for x in sorted(angles):
        if kept and x - kept[-1] < resolution:
            continue
        kept.append(x)
    if len(kept) > 1 and (1.0 - kept[-1]) + kept[0] < resolution:
        kept.pop()
    return kept


@pytest.mark.parametrize("angles", [
    [], [0.5], [0.0, 1.0 - 1e-13], [0.2, 0.2 + 5e-13, 0.7, 0.9999999999999],
    [0.3, 0.1, 0.30000000000001, 0.99999999999999, 1e-14],
])
def test_merge_circular_matches_the_former_loops(angles):
    for resolution in (1e-12, 2e-9):
        assert (merge_circular(angles, resolution)
                == _former_circular_dedup(angles, resolution))


#: a translation by 1/4 that returns NaN at the grid point x = 1/2
NAN_AT_HALF = _Map(lambda x: math.nan if x == 0.5 else x + 0.25)


@pytest.mark.parametrize("check", [project, CircleHomeo])
def test_non_finite_grid_value_is_rejected(check):
    with pytest.raises(NotALiftError, match="not finite"):
        check(NAN_AT_HALF)
