"""Property tests of the cell-transplant node on random cell edges: inverse
round trips, commutation with the unit translation, powers, fixed edges."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circledyn import (CellHat, Translate, UnitCellHat, evaluate,  # noqa: E402
                       inverse, power)
from circledyn.expr import BOUNDARY_DELTA  # noqa: E402

EPS = 1e-12
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def cell_hats(draw):
    """A CellHat over 2 to 7 random edges spanning at most one unit, with a
    translation or a unit-cell transplant of one inside."""
    lo = draw(st.floats(-2.0, 2.0))
    offsets = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7,
                            unique=True))
    edges = sorted({lo + f for f in offsets})
    assume(len(edges) >= 2 and edges[-1] - edges[0] <= 1.0)
    assume(min(b - a for a, b in zip(edges, edges[1:])) >= 1e-3)
    inner = Translate(draw(st.floats(-3.0, 3.0)))
    if draw(st.booleans()):
        inner = UnitCellHat(inner)
    return CellHat(inner, edges)


points = st.floats(-3.0, 3.0)


@PROPERTY
@given(cell_hats(), points)
def test_inverse_round_trip(h, x):
    y = evaluate(h, x, EPS)
    assert abs(evaluate(inverse(h), y, EPS) - x) <= 1e-9


@PROPERTY
@given(cell_hats(), points)
def test_commutes_with_unit_translation(h, x):
    assert abs(evaluate(h, x + 1.0, EPS) - (evaluate(h, x, EPS) + 1.0)) <= 1e-12


@PROPERTY
@given(cell_hats(), st.integers(-3, 3), st.integers(-3, 3), points)
def test_powers_add(h, a, b, x):
    pa, pb, pab = power(h, a), power(h, b), power(h, a + b)
    assert abs(evaluate(pa, evaluate(pb, x, EPS), EPS)
               - evaluate(pab, x, EPS)) <= 1e-9


@PROPERTY
@given(cell_hats(), st.integers(-3, 3))
def test_edges_are_fixed(h, m):
    # the last edge can round into the chart guard band, whose clamp moves
    # it by up to about BOUNDARY_DELTA; every other edge stays put
    for g in (h, inverse(h)):
        for e in h.edges:
            x = e + m
            if Fraction(x) != Fraction(e) + m:
                continue    # x is not the edge itself but a rounding of it
            y = evaluate(g, x, EPS)
            if e == h.edges[-1]:
                assert abs(y - x) <= 2 * BOUNDARY_DELTA
            else:
                assert y == x
