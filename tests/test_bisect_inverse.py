"""Bisection-backed inverses and composition enclosures near the largest
float: midpoints are taken as 0.5*lo + 0.5*hi, so a bracket near the
overflow threshold no longer sums to infinity, and every other result is
unchanged."""

import math
import random

import pytest

from circledyn import (Compose, PiecewiseMonotone, Translate, evaluate,
                       inverse, sine_lift)
from circledyn.expr import BISECT_MAX_ITER


def old_bisect_inverse(h, y, eps):
    """The former bisection, with the midpoint 0.5*(lo + hi)."""
    feval = eps * 1e-2
    lo, hi = y - 1.0, y + 1.0
    step = 1.0
    while evaluate(h, lo, feval) > y:
        step *= 2.0
        lo -= step
    step = 1.0
    while evaluate(h, hi, feval) < y:
        step *= 2.0
        hi += step
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= eps:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if evaluate(h, mid, feval) < y:
            lo = mid
        else:
            hi = mid
    raise AssertionError("no convergence")


LIFT = sine_lift(0.3, 0.1)


@pytest.mark.parametrize("y", [9e307, 1e308, 1.7e308, -1.7e308, -9e307])
def test_inverse_near_the_largest_float_is_finite(y):
    x = evaluate(inverse(LIFT), y)
    assert math.isfinite(x)
    assert abs(evaluate(LIFT, x) - y) <= math.ulp(y)


@pytest.mark.parametrize("y", [9e307, 1.7e308, -1.7e308])
def test_compose_enclosure_near_the_largest_float_is_finite(y):
    # an approximate member sends the composition down the enclosure path
    h = Compose(Translate(0.5), inverse(LIFT))
    assert h.approximate
    assert evaluate(h, y) == evaluate(inverse(LIFT), y) + 0.5


def test_inverse_equals_former_bisection_at_normal_points():
    cubic = PiecewiseMonotone([0.0, 0.3, 0.8, 1.0], [0.0, 0.2, 0.9, 1.0])
    rng = random.Random(11)
    ys = [rng.uniform(-50.0, 50.0) for _ in range(20)] + [0.0, 0.5, 1e3, -2e3]
    for h in (LIFT, cubic):
        for y in ys:
            for eps in (1e-12, 1e-9):
                assert evaluate(inverse(h), y, eps) == old_bisect_inverse(h, y, eps)
