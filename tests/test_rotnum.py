"""Rotation numbers, rational screening, and the conjugation constructions."""

import math
import random

import pytest

from circledyn import (Affine, Identity, PiecewiseMonotone, Translate,
                       circular_distance, conjugate_to_translation, evaluate,
                       frac, project, rational_screen,
                       rotation, rotation_number, sine_lift,
                       approximate_poincare_conjugacy)
from circledyn.errors import (DomainError, HasFixedPointError,
                              RationalRotationError)

ALPHA = 0.41421356237309503   # nearest double to sqrt(2) - 1

# Long-run reference for the sine-family lift x + 0.3 + 0.05 sin(2 pi x)
# (256 knots): reduced iteration at N = 10^7 from base point 0, cross-checked
# against N = 10^6 from base point 0.37 (agreement 1.9e-8).  Frozen.
ARNOLD_RHO_N1E7 = 0.2971387104939004


def test_rotation_number_of_translation_is_exact():
    est = rotation_number(rotation(0.3), 100)
    assert est.value == pytest.approx(0.3, abs=1e-13)
    assert est.error_bound == pytest.approx(0.01)
    assert est.iterations == 100


def test_rotation_number_identity():
    for n in (1, 7, 100):
        assert rotation_number(rotation(0), n).value == 0.0


def test_rotation_number_rho_alpha():
    est = rotation_number(rotation(ALPHA), 10000)
    assert abs(est.value - ALPHA) < 1e-12


def test_rotation_number_arnold_vs_long_run_oracle():
    f = project(sine_lift(0.3, 0.05))
    est = rotation_number(f, 10**4)
    assert abs(est.value - ARNOLD_RHO_N1E7) < 1e-4


def test_base_point_independence():
    f = project(sine_lift(0.3, 0.05))
    n = 2000
    a = rotation_number(f, n, 0.0).value
    b = rotation_number(f, n, 0.37).value
    assert circular_distance(a, b) <= 2.0 / n


def test_conjugation_invariance():
    f = project(sine_lift(0.3, 0.05))
    n = 2000
    base = rotation_number(f, n).value
    rng = random.Random(11)
    for _ in range(5):
        xs = [0.0] + sorted(rng.uniform(0.05, 0.9) for _ in range(6))
        ys = [0.0] + sorted(rng.uniform(0.05, 0.9) for _ in range(6))
        c = project(PiecewiseMonotone(xs, ys, "linear", "periodic"))
        g = c.compose(f).compose(c.inverse())
        assert circular_distance(rotation_number(g, n).value, base) <= 2.0 / n


def test_power_rule():
    f = project(sine_lift(0.3, 0.05))
    n = 1000
    for m in (2, 3):
        lhs = rotation_number(f.power(m), n).value
        rhs = frac(m * rotation_number(f, m * n).value)
        assert circular_distance(lhs, rhs) <= 1.0 / n + m / (m * n) + 1e-12


def test_rotation_number_rejects_unattainable_accuracy():
    from circledyn.errors import PrecisionError
    with pytest.raises(PrecisionError):
        rotation_number(rotation(0.3), 10**8)


def test_rational_screen():
    assert rational_screen(0.5, 0.001, 10) == (1, 2)
    assert rational_screen(0.0001, 0.001, 10) == (0, 1)
    assert rational_screen(0.9999, 0.001, 10) == (0, 1)
    assert rational_screen(ALPHA, 1e-4, 50) is None
    assert rational_screen(ALPHA, 1e-4, 1000) is not None   # Dirichlet kicks in


def test_conjugate_translation_by_affine():
    h = conjugate_to_translation(Translate(2), Affine(0.5, 0))
    for x in (-3.3, -1.0, 0.0, 0.7, 2.0, 5.9):
        assert evaluate(h, x, 1e-10) == pytest.approx(0.5 * x, abs=1e-10)
        assert evaluate(h, x + 2.0, 1e-10) == pytest.approx(
            evaluate(h, x, 1e-10) + 1.0, abs=1e-10)


def test_conjugate_translation_identity_case():
    h = conjugate_to_translation(Translate(1), Identity())
    for x in (-2.4, 0.0, 0.3, 4.8):
        assert evaluate(h, x, 1e-10) == pytest.approx(x, abs=1e-12)


def test_conjugate_translation_nonlinear():
    # f(x) = x + 1 + 0.3 sin^2(pi x) = x + 1.15 - 0.15 cos(2 pi x)
    xs = [j / 256 for j in range(256)]
    ys = [x + 1.15 - 0.15 * math.cos(2 * math.pi * x) for x in xs]
    f = PiecewiseMonotone(xs, ys, "cubic", "periodic")
    phi = PiecewiseMonotone([0.0, 0.3, 0.7, 1.0], [0.0, 0.45, 0.8, 1.0], "cubic")
    h = conjugate_to_translation(f, phi)
    worst = 0.0
    for j in range(1000):
        x = -5.0 + 10.0 * j / 999
        lhs = evaluate(h, evaluate(f, x, 1e-12), 1e-10)
        rhs = evaluate(h, x, 1e-10) + 1.0
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_conjugate_translation_inverse_roundtrip():
    h = conjugate_to_translation(Translate(2), Affine(0.5, 0))
    from circledyn import inverse
    hinv = inverse(h)
    for x in (-1.7, 0.0, 0.4, 3.2):
        assert evaluate(hinv, evaluate(h, x, 1e-10), 1e-10) == pytest.approx(
            x, abs=1e-9)


def test_conjugate_translation_rejects_fixed_points():
    # x + 0.1 sin(2 pi x) + tiny has f(0) > 0 but crosses; use a shifted sine
    xs = [j / 128 for j in range(128)]
    ys = [x + 0.05 + 0.02 * math.sin(2 * math.pi * x) for x in xs]
    bad = PiecewiseMonotone(xs, [y - 0.1 for y in ys], "cubic", "periodic")
    with pytest.raises((HasFixedPointError, DomainError)):
        conjugate_to_translation(bad, Affine(1.0, 0.0))
    with pytest.raises(HasFixedPointError):
        # positive at 0, fixed points elsewhere
        ys2 = [x + 0.01 + 0.05 * math.sin(2 * math.pi * x) for x in xs]
        conjugate_to_translation(PiecewiseMonotone(xs, ys2, "cubic", "periodic"),
                                 Affine(1.0, 0.0))


def test_conjugate_translation_checks_phi_contract():
    with pytest.raises(DomainError):
        conjugate_to_translation(Translate(2), Affine(0.25, 0))   # onto [0, 0.5)


def test_poincare_on_rotation_is_identity_on_breakpoints():
    h, defect = approximate_poincare_conjugacy(rotation(ALPHA), 300)
    assert defect < 1e-9
    for x in h.xs[::7]:
        assert frac(evaluate(h, x, 1e-10)) == pytest.approx(x, abs=1e-9)


def test_poincare_conjugated_rotation():
    c = project(sine_lift(0.0, 0.13))
    f = c.compose(rotation(ALPHA)).compose(c.inverse())
    n = 10**4
    h, defect = approximate_poincare_conjugacy(f, n)
    assert defect < 1e-3
    # h recovers c^{-1} up to a rigid rotation on the orbit
    cinv = c.inverse()
    shift = frac(cinv(h.xs[0]) - evaluate(h, h.xs[0], 1e-10))
    worst = 0.0
    for x in h.xs[::101]:
        worst = max(worst, circular_distance(
            frac(evaluate(h, x, 1e-10)), frac(cinv(x) - shift)))
    assert worst < 5e-3


def test_poincare_defect_decreases():
    c = project(sine_lift(0.0, 0.13))
    f = c.compose(rotation(ALPHA)).compose(c.inverse())
    _, d1 = approximate_poincare_conjugacy(f, 1000)
    _, d2 = approximate_poincare_conjugacy(f, 8000)
    assert d2 < d1


def test_poincare_rejects_rational_rotation():
    with pytest.raises(RationalRotationError) as info:
        approximate_poincare_conjugacy(project(sine_lift(0.0, 0.1)), 100)
    assert (info.value.p, info.value.q) == (0, 1)
