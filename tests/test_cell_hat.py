"""The cell-transplant node: CellHat(inner, edges) against copies of the
one-cell nodes it replaced (UnitCellHat, ArcHat) and of the k-fold chain of
ArcHats that built circle generators, plus edges, JSON and powers."""

import json
import math
import random
from fractions import Fraction
from math import atan, floor, pi, tan

import pytest

from circledyn import (ArcHat, CellHat, Compose, Translate, UnitCellHat,
                       build_circle_action, evaluate, expr_from_jsonable,
                       expr_to_jsonable, inverse, parse_quad_irrational,
                       power)
from circledyn.errors import PrecisionError
from circledyn.expr import BOUNDARY_DELTA, HAT_CLAMP_TOL

AF = 0.41421356237309503
INNERS = (Translate(AF), Translate(-0.7), UnitCellHat(Translate(0.3)))


# -- oracles: the evaluation of the former UnitCellHat and ArcHat nodes ------

def _old_hbar_inv(y, eps):
    if y <= 0.0 or y >= 1.0:
        raise AssertionError("unreachable for cell arguments")
    if y < BOUNDARY_DELTA or y > 1.0 - BOUNDARY_DELTA:
        yc = min(max(y, BOUNDARY_DELTA), 1.0 - BOUNDARY_DELTA)
        t = tan(pi * (yc - 0.5))
        drift = pi * (1.0 + t * t) * abs(yc - y)
        if drift > eps:
            raise PrecisionError("guard band")
        return t
    return tan(pi * (y - 0.5))


def _old_cell_core(inner, t, eps):
    if t < BOUNDARY_DELTA or t > 1.0 - BOUNDARY_DELTA:
        if eps < HAT_CLAMP_TOL:
            raise PrecisionError("guard band")
        t = min(max(t, BOUNDARY_DELTA), 1.0 - BOUNDARY_DELTA)
    u = _old_hbar_inv(t, eps)
    return atan(evaluate(inner, u, eps)) / pi + 0.5


def old_unit_cell_hat(inner, x, eps=1e-12):
    i = floor(x)
    if x == i:
        return x
    return i + _old_cell_core(inner, x - i, eps)


def old_arc_hat(inner, lo, hi, x, eps=1e-12):
    length = hi - lo
    m = floor(x - lo)
    t = x - lo - m
    u = t / length
    if u <= 0.0 or u >= 1.0:
        return x
    v = _old_cell_core(inner, u, eps)
    return lo + m + v * length


def old_arc_chain(inner, k, x, eps=1e-12):
    """The former k-fold arc transplant: Compose(ArcHat_0, ..., ArcHat_k-1),
    so the last arc is applied first."""
    for i in reversed(range(k)):
        x = old_arc_hat(inner, i / k, (i + 1) / k, x, eps)
    return x


def _edge_points(edges, shifts=range(-3, 4)):
    """Every edge shifted by the integers, with its +-1 ulp neighbours."""
    out = []
    for e in edges:
        for m in shifts:
            b = e + m
            out += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
    return out


def _seeded(seed, count=400, lo=-3.0, hi=3.0):
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(count)]


# -- (a) one-cell nodes equal the former nodes --------------------------------

@pytest.mark.parametrize("inner", INNERS, ids=["t", "neg", "nested"])
def test_unit_cell_equals_former_unit_cell_hat(inner):
    h = UnitCellHat(inner)
    assert h == CellHat(inner, (0.0, 1.0))
    pts = _seeded(1) + _edge_points((0.0, 1.0))
    pts += [x + m for x in _seeded(2, 50, 0.0, 1.0) for m in (-2, -1, 1, 5)]
    for x in pts:
        if x - floor(x) == 1.0:
            # x - floor(x) rounds up to 1.0 for x just below 0; the former
            # node transplanted that wall argument (about -1e-15 out), the
            # cell node leaves x alone
            assert evaluate(h, x) == x
            continue
        assert evaluate(h, x) == old_unit_cell_hat(inner, x), x


@pytest.mark.parametrize("lo,hi", [(0.25, 0.75), (0.5, 1.0), (1 / 3, 2 / 3),
                                   (0.2, 0.4), (-0.3, 0.7), (1.0, 2.0)])
def test_arc_cell_equals_former_arc_hat(lo, hi):
    for inner in INNERS:
        h = ArcHat(inner, lo, hi)
        assert h == CellHat(inner, (lo, hi))
        pts = _seeded(3) + _edge_points((lo, hi))
        pts += [x + m for x in _seeded(4, 50, lo, hi) for m in (-2, -1, 1, 3)]
        for x in pts:
            assert evaluate(h, x) == old_arc_hat(inner, lo, hi, x), (lo, hi, x)


# -- (b) k cells equal the former chain of k arcs ----------------------------

@pytest.mark.parametrize("k", range(1, 8))
def test_k_cells_equal_former_arc_chain(k):
    edges = [i / k for i in range(k + 1)]
    for inner in INNERS:
        h = CellHat(inner, edges)
        for x in _seeded(10 + k, 300):
            assert evaluate(h, x) == old_arc_chain(inner, k, x), (k, x)


# -- (c) edges ---------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 8))
def test_every_edge_is_fixed(k):
    edges = [i / k for i in range(k + 1)]
    for inner in INNERS:
        h = CellHat(inner, edges)
        hinv = inverse(h)
        for m in range(-40, 41):
            for e in edges:
                x = e + m
                if Fraction(x) == Fraction(e) + m:
                    # x is the edge itself
                    assert evaluate(h, x) == x and evaluate(hinv, x) == x
                else:
                    # x is the edge rounded to the nearest float; the
                    # transplant fixes it up to the rounding of its formula
                    for g in (h, hinv):
                        assert abs(evaluate(g, x) - x) <= 2 * math.ulp(x)


def test_identity_outside_the_cells():
    h = CellHat(Translate(5), (0.25, 0.5, 0.6))
    for x in (0.0, 0.2, 0.6, 0.75, 0.99, 1.2, -0.1, -0.3, -0.5):
        assert evaluate(h, x) == x
    assert evaluate(h, 0.3) != 0.3 and evaluate(h, 0.55) != 0.55


# -- (d) JSON and validation --------------------------------------------------

def test_cell_hat_document_roundtrip():
    h = CellHat(Compose(Translate(1), Translate(0.25)), [i / 5 for i in range(6)])
    doc = expr_to_jsonable(h)
    assert doc["kind"] == "cell_hat" and doc["edges"] == [i / 5 for i in range(6)]
    back = expr_from_jsonable(json.loads(json.dumps(doc)))
    assert back == h and hash(back) == hash(h)


def test_legacy_documents_load():
    inner = {"kind": "translate", "amount": AF}
    unit = expr_from_jsonable({"kind": "unit_cell_hat", "children": [inner]})
    arc = expr_from_jsonable({"kind": "arc_hat", "lo": 0.25, "hi": 0.75,
                              "children": [inner]})
    assert unit == UnitCellHat(Translate(AF))
    assert arc == ArcHat(Translate(AF), 0.25, 0.75)
    assert expr_to_jsonable(unit)["kind"] == "cell_hat"


@pytest.mark.parametrize("edges", [(), (0.5,), (0.0, 0.0), (0.5, 0.25),
                                   (0.0, 0.5, 0.5), (0.0, 1.5),
                                   (-0.5, 0.2, 0.6), (0.0, math.nan),
                                   (0.0, math.inf)])
def test_bad_edges_raise(edges):
    with pytest.raises(ValueError):
        CellHat(Translate(1), edges)


# -- (e) powers of circle generators ----------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_power_of_circle_generator_is_one_node(k):
    action = build_circle_action(parse_quad_irrational("sqrt(2)-1"), 2, k, (1, 0))
    for gen in action.generators[:2]:
        lift = gen.lift
        assert isinstance(lift, CellHat) and len(lift.edges) == k + 1
        for e in (2, 3, -2):
            p = power(lift, e)
            assert isinstance(p, CellHat) and p.edges == lift.edges
            step = lift if e > 0 else inverse(lift)
            for x in _seeded(20 + k, 40, -1.0, 2.0):
                y = x
                for _ in range(abs(e)):
                    y = evaluate(step, y)
                assert abs(evaluate(p, x) - y) <= 1e-14


def test_span_over_one_unit_is_rejected_exactly():
    # the float difference of these edges rounds to 1.0, but the exact span
    # is 1 + 1.1e-16, so neighbouring cells would overlap
    edges = (-0.7967095749099499, 0.20329042509005024)
    assert edges[1] - edges[0] == 1.0
    assert Fraction(edges[1]) - Fraction(edges[0]) > 1
    with pytest.raises(ValueError):
        CellHat(Translate(0.3), edges)
    CellHat(Translate(0.3), (edges[0], edges[0] + 1.0))
