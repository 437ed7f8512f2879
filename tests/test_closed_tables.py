"""A periodic `PiecewiseMonotone` table is closed once, by the knot
(xs[0] + 1, ys[0] + 1): its wrap segment is the last ordinary segment.

Evaluation must give the very same floats (`==`) as the reference in
`test_kernels`, which builds the wrap segment by hand, at the knots, next
to them, just below a whole period, where rounding leaves the reduced
point below xs[0], and far from the table.
"""

import math
import random

import pytest

from circledyn import PiecewiseMonotone, evaluate, sine_lift
from test_kernels import _ref_eval

SHIFTS = (0, 1, -1, 7, -13, 10**6, -10**6)


def _tables():
    rng = random.Random(15)
    out = [sine_lift(0.3, 0.1), sine_lift(-0.07, 0.13)]
    for interp in ("cubic", "linear"):
        out.append(PiecewiseMonotone([0.0, 0.5], [0.1, 0.4], interp, "periodic"))
        out.append(PiecewiseMonotone([0.3, 0.9], [-0.2, 0.5], interp, "periodic"))
        out.append(PiecewiseMonotone([-5.0, -4.5, -4.2], [3.0, 3.2, 3.9],
                                     interp, "periodic"))
        x0, y0 = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        xs = sorted(x0 + rng.uniform(0.0, 0.95) for _ in range(9))
        ys = sorted(y0 + rng.uniform(0.0, 0.95) for _ in range(9))
        out.append(PiecewiseMonotone(xs, ys, interp, "periodic"))
        out.append(PiecewiseMonotone(xs, ys, interp, "linear"))
    n = 10**4
    xs = [j / n for j in range(n)]
    ys = [x + 0.05 * math.sin(2.0 * math.pi * x) / (2.0 * math.pi) for x in xs]
    out.append(PiecewiseMonotone(xs, ys, "linear", "periodic"))
    return out


TABLES = _tables()


def _points(pm, rng):
    xs = list(pm.xs)
    if len(xs) > 32:
        xs = xs[::len(xs) // 16] + xs[-3:]
    first, wrap = pm.xs[0], pm.xs[0] + 1.0
    pts = xs + [math.nextafter(wrap, -math.inf), -1e-17, 1e-17, -5e-324]
    pts += [math.nextafter(x, -math.inf) for x in xs]
    pts += [math.nextafter(x, math.inf) for x in xs]
    pts += [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    pts += [rng.uniform(first - 2.0, wrap + 2.0) for _ in range(100)]
    out = []
    for p in pts:
        for k in SHIFTS:
            # just below a shifted point, the reduced point can round to
            # below xs[0]
            out += [p + k, math.nextafter(p + k, -math.inf)]
    return out + [2.0**60, -2.0**60, 2.0**53 + 2.0, 1e300, -1e300]


@pytest.mark.parametrize("index", range(len(TABLES)))
def test_evaluation_matches_reference(index):
    pm = TABLES[index]
    rng = random.Random(index)
    for x in _points(pm, rng):
        assert evaluate(pm, x) == _ref_eval(pm, x), (pm.interpolation,
                                                     pm.extension, x)


def test_reduced_point_below_first_knot_uses_first_segment():
    # -1e-17 reduces to itself: floor gives -1, and -1e-17 + 1 rounds to 1.0
    pm = PiecewiseMonotone([0.0, 0.4], [0.0, 0.7], "linear", "periodic")
    assert evaluate(pm, -1e-17) == _ref_eval(pm, -1e-17) == -1e-17 * 0.7 / 0.4


@pytest.mark.parametrize("interp", ["cubic", "linear"])
def test_far_point_stays_on_the_wrap_segment(interp):
    # with xs[0] <= -1 a point beyond 2**53 reduces to 0.0, past the
    # closing knot xs[0] + 1
    pm = PiecewiseMonotone([-5.0, -4.5, -4.2], [3.0, 3.2, 3.9], interp,
                           "periodic")
    assert evaluate(pm, 2.0**60) == _ref_eval(pm, 2.0**60)


def test_cubic_periodic_table_ends_with_the_wrap_segment():
    pm = PiecewiseMonotone([0.1, 0.4, 0.7], [0.2, 0.3, 0.9], "cubic",
                           "periodic")
    d = pm._compute_tangents()
    assert len(pm._segments) == len(pm.xs)
    h = (0.1 + 1.0) - 0.7
    assert pm._segments[-1] == (0.7, h, 0.9, 1.2, h * d[-1], h * d[0])
    line = PiecewiseMonotone(pm.xs, pm.ys, "cubic", "linear")
    assert len(line._segments) == len(pm.xs) - 1
