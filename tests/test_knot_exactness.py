"""A monotone table evaluates every segment by its polynomial, at the knots
too: there s = (t - x0)/h is exactly 0, so the Hermite form gives y0 * 1.0
plus products with 0.0 and the linear form y0 + 0.0, the knot's own value.
The fused orbit kernel started on a knot is the generic loop, and a step
that lands just below an integer wraps to angle 0.0 with no deck step."""

import random

import pytest

from circledyn import Affine, PiecewiseMonotone, Translate, evaluate, sine_lift
from circledyn.expr import HomeoExpr

EPS = 1e-11
#: knots of the periodic tables are multiples of this, so xs[i] + m is exact
GRID = 2.0 ** -10


def _rising(rng, count, first, span):
    """count strictly increasing floats from first, spanning less than
    span, with random gaps."""
    gaps = [rng.uniform(0.1, 1.0) for _ in range(count)]
    scale = span / sum(gaps)
    out = [first]
    for gap in gaps[:-1]:
        out.append(out[-1] + gap * scale)
    return out


def _tables():
    rng = random.Random("knot exactness")
    tables = [sine_lift(0.37, 0.09), sine_lift(0.0, 0.1)]
    for interpolation in ("cubic", "linear"):
        for knots in (2, 3, rng.randrange(4, 40)):
            # periodic: dyadic knots less than a period apart
            steps = sorted(rng.sample(range(1, 1023), knots - 1))
            x_first = rng.randrange(-5 * 1024, 5 * 1024) * GRID
            xs = [x_first] + [x_first + j * GRID for j in steps]
            ys = _rising(rng, knots, rng.uniform(-2.0, 2.0), 0.99)
            tables.append(PiecewiseMonotone(xs, ys, interpolation, "periodic"))
            # non-periodic: any increasing knots
            xs = _rising(rng, knots, rng.uniform(-3.0, 3.0), rng.uniform(0.5, 9.0))
            ys = _rising(rng, knots, rng.uniform(-3.0, 3.0), rng.uniform(0.5, 9.0))
            tables.append(PiecewiseMonotone(xs, ys, interpolation, "linear"))
    return tables


@pytest.mark.parametrize("table", _tables())
def test_a_table_takes_its_knot_values_exactly(table):
    for x, y in zip(table.xs, table.ys):
        assert evaluate(table, x, EPS) == y, (x, y)
        if table.extension == "periodic":
            for m in (-2, 1, 3):
                assert evaluate(table, x + m, EPS) == y + m, (x, m)


@pytest.mark.parametrize("table", [t for t in _tables()
                                   if t.extension == "periodic"])
def test_an_orbit_started_on_a_knot_is_the_generic_loop(table):
    for x in table.xs:
        for start in (x, x - 1.0):
            got_angles, want_angles = [], []
            got = table._orbit(start, 50, EPS, got_angles)
            want = HomeoExpr._orbit(table, start, 50, EPS, want_angles)
            # repr tells -0.0 from 0.0
            assert repr((got, got_angles)) == repr((want, want_angles))


def _just_below_zero():
    """Maps that send 0.0 to -1e-20, whose reduction 1 - 1e-20 rounds to
    1.0: the translation kernel, the generic loop and the table kernel."""
    xs = (0.0, 0.25, 0.5, 0.75)
    return [Translate(-1e-20), Affine(1.0, -1e-20),
            PiecewiseMonotone(xs, (-1e-20, 0.3, 0.5, 0.8), "cubic", "periodic")]


@pytest.mark.parametrize("node", _just_below_zero())
def test_a_step_just_below_an_integer_wraps_to_zero(node):
    assert evaluate(node, 0.0, EPS) == -1e-20
    angles = []
    assert node._orbit(0.0, 1, EPS, angles) == (0.0, 0)
    assert angles == [0.0]
