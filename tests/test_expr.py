"""Expression-tree node semantics: evaluation, inversion, serialization."""

import math
import random

import pytest

from circledyn import (Affine, CellHat, Compose, HBar, HBarInv, Identity,
                       Inverse, PiecewiseMonotone, Translate, UnitCellHat,
                       evaluate, expr_from_jsonable, expr_to_jsonable,
                       inverse, power)
from circledyn.errors import DomainError, PrecisionError


def test_hbar_at_zero():
    # arctan 0 = 0, so the chart sends 0 to 1/2
    assert evaluate(HBar(), 0, 1e-12) == pytest.approx(0.5, abs=1e-15)


def test_hbar_range_and_inverse_roundtrip():
    for x in (-50.0, -1.0, 0.0, 0.3, 7.5):
        y = evaluate(HBar(), x, 1e-12)
        assert 0.0 < y < 1.0
        assert evaluate(HBarInv(), y, 1e-9) == pytest.approx(x, abs=1e-9, rel=1e-9)


def test_hbar_inv_domain_error():
    with pytest.raises(DomainError):
        evaluate(HBarInv(), 0.0, 1e-12)
    with pytest.raises(DomainError):
        evaluate(HBarInv(), 1.0, 1e-12)
    with pytest.raises(DomainError):
        evaluate(HBarInv(), -0.2, 1e-12)


def test_hbar_inv_guard_band_raises():
    with pytest.raises(PrecisionError):
        evaluate(HBarInv(), 5e-16, 1e-12)


def test_unit_cell_hat_fixes_integers_exactly():
    h = UnitCellHat(Translate(1))
    for m in range(-4, 5):
        assert evaluate(h, float(m), 1e-12) == float(m)
    assert evaluate(h, 3, 1e-12) == 3.0


def test_unit_cell_hat_half_cell_value():
    # hbar^{-1}(0.5) = 0, shift by 1, hbar(1) = 1/pi (pi/4 + pi/2) = 3/4
    h = UnitCellHat(Translate(1))
    assert evaluate(h, 0.5, 1e-10) == pytest.approx(0.75, abs=1e-12)
    # invert the same example
    assert evaluate(inverse(h), 0.75, 1e-10) == pytest.approx(0.5, abs=1e-10)


def test_unit_cell_hat_commutes_with_unit_translation():
    h = UnitCellHat(Translate(0.4142135623730951))
    for j in range(40):
        x = -2.0 + 4.0 * j / 39
        assert evaluate(h, x + 1.0, 1e-12) == pytest.approx(
            evaluate(h, x, 1e-12) + 1.0, abs=1e-12)


def test_unit_cell_hat_is_homomorphism_in_argument():
    # hat(s1 o s2) agrees with hat(s1) o hat(s2) pointwise
    s1 = Translate(1)
    s2 = Translate(0.4142135623730951)
    lhs = UnitCellHat(Compose(s1, s2))
    rhs = Compose(UnitCellHat(s1), UnitCellHat(s2))
    for j in range(33):
        x = -1.5 + 3.0 * j / 32
        assert evaluate(lhs, x, 1e-12) == pytest.approx(
            evaluate(rhs, x, 1e-12), abs=1e-11)


def test_structural_inverses():
    assert inverse(Translate(0.3)) == Translate(-0.3)
    ab = Compose(Affine(2, 1), Translate(0.25))
    assert inverse(ab) == Compose(inverse(Translate(0.25)), inverse(Affine(2, 1)))
    assert inverse(HBar()) == HBarInv()
    assert inverse(Inverse(HBar())) == HBar()
    assert inverse(UnitCellHat(Translate(2))) == UnitCellHat(Translate(-2))


def test_inverse_roundtrip_random_points():
    rng = random.Random(20240817)
    exprs = [
        Affine(1.7, -0.3),
        Compose(Translate(0.8), Affine(0.5, 0.1)),
        UnitCellHat(Translate(1)),
        CellHat(Translate(2), (0.25, 0.75)),
    ]
    for h in exprs:
        hinv = inverse(h)
        for _ in range(200):
            x = rng.uniform(-4.0, 4.0)
            y = evaluate(h, x, 5e-13)
            assert evaluate(hinv, y, 5e-13) == pytest.approx(x, abs=1e-9)


def test_monotone_on_grid():
    candidates = [
        Affine(0.7, 2.0),
        UnitCellHat(Translate(0.4142135623730951)),
        Compose(UnitCellHat(Translate(1)), Translate(0.3)),
        PiecewiseMonotone([0.0, 0.2, 0.6, 1.0], [0.0, 0.35, 0.7, 1.0]),
    ]
    for h in candidates:
        prev = None
        for j in range(1000):
            x = -2.0 + 4.0 * j / 999
            y = evaluate(h, x, 1e-12)
            if prev is not None:
                assert y > prev - 1e-12
            prev = y


def test_arc_hat_matches_unit_cell_hat_on_unit_arc():
    inner = Translate(0.4142135623730951)
    a = CellHat(inner, (0.0, 1.0))
    b = UnitCellHat(inner)
    for j in range(50):
        x = -1.8 + 3.6 * j / 49
        assert evaluate(a, x, 1e-12) == pytest.approx(
            evaluate(b, x, 1e-12), abs=1e-13)


def test_arc_hat_identity_outside_cells():
    h = CellHat(Translate(5), (0.25, 0.5))
    # the transplanted cells are (0.25 + m, 0.5 + m); everything else is fixed
    for x in (0.0, 0.2, 0.5, 0.75, 1.0, 1.2, -0.1, 0.25):
        assert evaluate(h, x, 1e-12) == x
    assert evaluate(h, 0.3, 1e-12) != 0.3


def test_piecewise_monotone_linear_inverse_is_table_swap():
    pm = PiecewiseMonotone([0.0, 0.5, 1.0], [0.0, 0.7, 1.2], "linear")
    assert inverse(pm) == PiecewiseMonotone([0.0, 0.7, 1.2], [0.0, 0.5, 1.0], "linear")


def test_piecewise_monotone_cubic_inverse_by_bisection():
    pm = PiecewiseMonotone([0.0, 0.3, 0.8, 1.0], [0.0, 0.2, 0.9, 1.0], "cubic")
    pinv = inverse(pm)
    for x in (0.05, 0.33, 0.61, 0.97):
        y = evaluate(pm, x, 1e-12)
        assert evaluate(pinv, y, 1e-11) == pytest.approx(x, abs=1e-10)


def test_piecewise_monotone_periodic_commutes():
    xs = [j / 16 for j in range(16)]
    ys = [x + 0.3 + 0.04 * math.sin(2 * math.pi * x) for x in xs]
    pm = PiecewiseMonotone(xs, ys, "cubic", "periodic")
    for j in range(25):
        x = -1.5 + 3.0 * j / 24
        assert evaluate(pm, x + 1.0, 1e-12) == pytest.approx(
            evaluate(pm, x, 1e-12) + 1.0, abs=1e-12)


def test_piecewise_monotone_rejects_bad_tables():
    with pytest.raises(ValueError):
        PiecewiseMonotone([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        PiecewiseMonotone([0.0, 0.5, 1.0], [0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        PiecewiseMonotone([0.0, 1.5], [0.0, 0.5], extension="periodic")


def test_compose_inverse_cancels():
    h = Compose(UnitCellHat(Translate(1)), Affine(2, 0.1))
    c = Compose(inverse(h), h)
    for x in (-1.1, 0.0, 0.4, 2.7):
        assert evaluate(c, x, 1e-12) == pytest.approx(x, abs=1e-10)


def test_power_closed_forms():
    assert power(Translate(0.3), 3) == Translate(0.3 * 3)
    assert power(Translate(2), -2) == Translate(-4)
    assert power(Affine(2.0, 1.0), 2) == Affine(4.0, 3.0)
    assert power(UnitCellHat(Translate(1)), 2) == UnitCellHat(Translate(2))
    assert power(HBar(), 0) == Identity()


def test_eval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evaluate(Identity(), 0.0, 0.0)
    with pytest.raises(DomainError):
        evaluate(Identity(), float("nan"))


def test_serialization_roundtrip():
    exprs = [
        Identity(),
        Translate(0.3),
        Affine(2.0, -0.5),
        Compose(HBar(), HBarInv()),
        UnitCellHat(Compose(Translate(1), Translate(0.25))),
        CellHat(Translate(2), (0.5, 1.0)),
        Inverse(PiecewiseMonotone([0.0, 0.4, 1.0], [0.0, 0.3, 1.0])),
    ]
    for h in exprs:
        doc = expr_to_jsonable(h)
        back = expr_from_jsonable(doc)
        assert back == h


def test_serialization_keeps_fractions_exact():
    from fractions import Fraction
    h = Translate(Fraction(1, 3))
    back = expr_from_jsonable(expr_to_jsonable(h))
    assert back.amount == Fraction(1, 3)


def test_inverse_document_loads_as_its_closed_form():
    doc = {"kind": "inverse", "children": [expr_to_jsonable(HBar())]}
    assert expr_from_jsonable(doc) == HBarInv()
    pm = PiecewiseMonotone([0.0, 0.4, 1.0], [0.0, 0.3, 1.0])
    back = expr_from_jsonable(expr_to_jsonable(Inverse(pm)))
    assert back == Inverse(pm) and back.approximate
    assert evaluate(back, 0.3, 1e-12) == pytest.approx(0.4, abs=1e-12)
