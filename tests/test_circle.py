"""Lift normalization, projection, and the CircleHomeo wrapper."""

import math

import pytest

from circledyn import (CircleHomeo, Compose, Identity, Translate,
                       circular_distance, cocycle_value, evaluate, frac,
                       normalize_lift, project, rotation, sine_lift,
                       commutation_defect)
from circledyn.errors import DomainError, NotALiftError


def test_normalize_translate():
    F0, n = normalize_lift(Translate(2.7))
    assert n == 2
    assert evaluate(F0, 0.0, 1e-12) == pytest.approx(0.7, abs=1e-12)
    F0, n = normalize_lift(Translate(0.3))
    assert n == 0
    assert evaluate(F0, 0.0, 1e-12) == pytest.approx(0.3, abs=1e-15)


def test_normalize_exact_rational_translation():
    from fractions import Fraction
    F0, n = normalize_lift(Compose(Translate(Fraction(1, 3)),
                                   Translate(Fraction(2, 3))))
    assert n == 1
    assert evaluate(F0, 0.25, 1e-12) == 0.25


def test_exact_translations_of_any_size_normalize_exactly():
    # an exact translation tree is decided before the float grid, where
    # x + 2**53 would swallow x and 10**308 + 10**308 would overflow
    from fractions import Fraction
    assert rotation(2**53).lift == Translate(0)
    assert rotation(10**20).lift == Translate(0)
    assert rotation(Fraction(10**20 + 1, 3)).lift == Translate(Fraction(2, 3))
    big = CircleHomeo(Compose(Translate(10**308), Translate(10**308)))
    assert big.lift == Translate(0)
    assert cocycle_value(rotation(10**20), rotation(Fraction(2, 3))) == 0


def test_normalize_sine_lift():
    # x + 2.5 + 0.1 sin(2 pi x) normalizes to x + 0.5 + 0.1 sin(2 pi x);
    # the interpolants differ by exactly the integer 2 at every point.
    F = sine_lift(2.5, 0.1)
    F0, n = normalize_lift(F)
    assert n == 2
    G = sine_lift(0.5, 0.1)
    for j in range(41):
        x = -1.0 + 2.0 * j / 40
        assert evaluate(F0, x, 1e-12) == pytest.approx(
            evaluate(G, x, 1e-12), abs=1e-12)


def test_lift_uniqueness():
    # two lifts of the same circle map differ by a constant integer and
    # normalize to the same reduced lift
    F = sine_lift(0.3, 0.05)
    G = Compose(Translate(3), F)
    F0, nf = normalize_lift(F)
    G0, ng = normalize_lift(G)
    assert ng - nf == 3
    for j in range(17):
        x = j / 17
        assert evaluate(F0, x, 1e-12) == pytest.approx(
            evaluate(G0, x, 1e-12), abs=1e-12)
        assert evaluate(G, x, 1e-12) - evaluate(F, x, 1e-12) == pytest.approx(
            3.0, abs=1e-12)


def test_project_translation_is_rotation():
    f = project(Translate(0.4142135623730951))
    assert f(0.0) == pytest.approx(0.4142135623730951, abs=1e-15)
    assert f(0.9) == pytest.approx(0.3142135623730951, abs=1e-12)


def test_project_unit_translation_is_identity():
    f = project(Translate(1))
    assert evaluate(f.lift, 0.0, 1e-12) == 0.0
    assert f(0.37) == pytest.approx(0.37, abs=1e-15)


def test_project_arnold_family():
    F = sine_lift(0.3, 0.05)
    f = project(F)
    assert 0.0 <= f.lift(0.0) < 1.0
    assert commutation_defect(f.lift) < 1e-12


def test_project_rejects_non_lift():
    from circledyn import Affine
    with pytest.raises(NotALiftError):
        project(Affine(2.0, 0.0))


def test_commutation_check_configurable():
    # a linear-extension interpolant is not a lift unless slope is 1
    from circledyn import PiecewiseMonotone
    pm = PiecewiseMonotone([0.0, 1.0], [0.0, 1.5], "linear", "linear")
    with pytest.raises(NotALiftError):
        normalize_lift(pm)


def test_circle_homeo_composition_and_inverse():
    a = rotation(0.3)
    b = rotation(0.45)
    ab = a.compose(b)
    assert ab(0.0) == pytest.approx(0.75, abs=1e-15)
    assert 0.0 <= ab.lift(0.0) < 1.0
    ainv = a.inverse()
    assert ainv(a(0.2)) == pytest.approx(0.2, abs=1e-12)


def test_circle_homeo_power():
    f = rotation(0.3)
    f3 = f.power(3)
    assert f3(0.0) == pytest.approx(0.9, abs=1e-12)
    fm2 = f.power(-2)
    assert fm2(0.0) == pytest.approx(0.4, abs=1e-12)
    assert f.power(0)(0.123) == pytest.approx(0.123, abs=1e-15)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_angles_raise_domain_error(x):
    # math.floor raised OverflowError on an infinity and ValueError on NaN
    for angle_map in (frac, rotation(0.3), lambda a: circular_distance(a, 0.0)):
        with pytest.raises(DomainError, match="non-finite angle"):
            angle_map(x)
