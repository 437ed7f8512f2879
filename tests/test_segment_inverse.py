"""The segment-local inverse of cubic tables against bisection: the same
values within eps, and bisection's certificate, at seeded points, knots,
the wrap segment, tables with xs[0] != 0 and non-periodic tables, for eps
from 1e-6 down to 1e-14."""

import json
import random

import pytest

import circledyn.expr as expr_module
from circledyn import (Inverse, PiecewiseMonotone, evaluate,
                       expr_from_jsonable, expr_to_jsonable, inverse,
                       sine_lift)
from circledyn.expr import _bisect_inverse

EPSES = (1e-6, 1e-9, 1e-12, 1e-14)


def _tables():
    rng = random.Random(18)
    off_xs = sorted(rng.uniform(0.1, 0.9) for _ in range(6))
    off_ys = sorted(rng.uniform(0.3, 1.2) for _ in range(6))
    line_xs = sorted(rng.uniform(-3.0, 3.0) for _ in range(7))
    line_ys = sorted(rng.uniform(-2.0, 5.0) for _ in range(7))
    return [sine_lift(0.3, 0.1),
            sine_lift(0.77, 0.15, knots=7),
            PiecewiseMonotone(off_xs, off_ys, "cubic", "periodic"),
            PiecewiseMonotone([0.0, 0.3, 0.8, 1.0], [0.0, 0.2, 0.9, 1.0]),
            PiecewiseMonotone(line_xs, line_ys, "cubic", "linear"),
            PiecewiseMonotone(line_xs[:2], line_ys[:2], "cubic", "linear")]


def _seeded(rng):
    return [rng.uniform(-10.0, 10.0) for _ in range(2000)]


def _arguments(h, rng):
    """Seeded points, every knot value shifted by 0, +-1 and 7, and the wrap
    segment of a periodic table."""
    ys = list(h.ys)
    points = _seeded(rng)
    points += [y + k for y in ys for k in (0, 1, -1, 7)]
    if h.extension == "periodic":
        top, closing = ys[-1], ys[0] + 1.0
        points += [top + (closing - top) * j / 7 + k
                   for j in range(1, 7) for k in (0, 1, -1, 7)]
    return points


@pytest.mark.parametrize("index", range(len(_tables())))
@pytest.mark.parametrize("eps", EPSES)
def test_agrees_with_bisection_within_eps(index, eps):
    h = _tables()[index]
    for y in _arguments(h, random.Random(index)):
        x = evaluate(Inverse(h), y, eps)
        assert abs(x - _bisect_inverse(h, y, eps)) <= eps, (y, eps)


@pytest.mark.parametrize("index", range(len(_tables())))
@pytest.mark.parametrize("eps", (1e-6, 1e-9, 1e-12))
def test_result_is_certified_by_the_table_itself(index, eps):
    # x is the midpoint of lo < hi with hi - lo <= eps and F(lo) < y <= F(hi),
    # so the table crosses y within eps of x
    h = _tables()[index]
    for y in _arguments(h, random.Random(index)):
        x = evaluate(Inverse(h), y, eps)
        assert h._eval(x - eps, eps) < y <= h._eval(x + eps, eps)


@pytest.mark.parametrize("eps", (1e-6, 1e-9, 1e-12))
def test_cubic_tables_do_not_bisect_at_seeded_points(monkeypatch, eps):
    # Seeded points only: next to a knot whose tangent is 0, as at the end of
    # table 4, the table is flat to rounding for about 1e-8, so its float
    # crossing lies that far from the Hermite root and the certificate sends
    # y to bisection.
    calls = []
    monkeypatch.setattr(expr_module, "_bisect_inverse",
                        lambda *args: calls.append(args))
    for index, h in enumerate(_tables()):
        for y in _seeded(random.Random(index)):
            evaluate(Inverse(h), y, eps)
    assert calls == []


def test_linear_tables_still_bisect():
    h = PiecewiseMonotone([0.0, 0.4, 1.0], [0.0, 0.7, 1.0], "linear")
    for y in (-3.0, 0.2, 0.7, 0.95, 5.5):
        assert evaluate(Inverse(h), y, 1e-12) == _bisect_inverse(h, y, 1e-12)


def test_the_node_is_unchanged():
    lift = sine_lift(0.3, 0.1)
    node = inverse(lift)
    assert type(node) is Inverse and node.approximate
    doc = json.loads(json.dumps(expr_to_jsonable(node)))
    assert doc["kind"] == "inverse"
    assert expr_from_jsonable(doc) == node == Inverse(sine_lift(0.3, 0.1))
