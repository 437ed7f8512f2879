"""The fused `_orbit` kernels of periodic tables and translations do the
float operations of the generic loop `HomeoExpr._orbit`: the same last
angle, deck count and collected angles, bit for bit.  A subclass that
replaces `_eval` is iterated through its own `_eval`."""

import hashlib
import random
import warnings
from fractions import Fraction

import pytest

from circledyn import (PiecewiseMonotone, Translate,
                       approximate_poincare_conjugacy, compose_all, inverse,
                       project, rotation, rotation_number, sine_lift)
from circledyn.errors import RationalRotationError
from circledyn.expr import HomeoExpr
from test_conjugate_orbit import CountingTable

EPS = 1e-11
# reduced angles, the top of [0, 1), and start points outside [0, 1) as
# psi^-1 of a conjugate split produces them
STARTS = (0.0, 0.3, 0.999, 1.0 - 2.0 ** -53, -0.25, -3.7, 4.5, 1234.567)


def starts(n):
    """Every start point for short orbits, three for long ones."""
    return STARTS if n <= 1 else (0.3, -3.7, 1234.567)


def random_periodic(rng, interpolation, x_first, knots):
    """A periodic table with knots knots from x_first, random gaps and a
    random y offset."""
    def positions(first):
        gaps = [rng.uniform(0.1, 1.0) for _ in range(knots + 1)]
        total = sum(gaps)
        return [first + sum(gaps[:k]) / total for k in range(knots)]
    return PiecewiseMonotone(positions(x_first),
                             positions(rng.uniform(-2.0, 2.0)),
                             interpolation, "periodic")


def assert_same_orbit(node, y, n):
    got_angles, want_angles = [], []
    got = node._orbit(y, n, EPS, got_angles)
    want = HomeoExpr._orbit(node, y, n, EPS, want_angles)
    # repr tells -0.0 from 0.0
    assert repr(got) == repr(want)
    assert repr(got_angles) == repr(want_angles) and len(got_angles) == n
    assert repr(node._orbit(y, n, EPS, None)) == repr(want)


def _tables():
    rng = random.Random(20)
    tables = [sine_lift(0.37, 0.09), sine_lift(0.81, 0.15)]
    for interpolation in ("cubic", "linear"):
        for x_first in (0.0, 0.3, -5.0, rng.uniform(-3.0, 3.0)):
            for knots in (2, rng.randrange(3, 40)):
                tables.append(random_periodic(rng, interpolation, x_first,
                                              knots))
    return tables


@pytest.mark.parametrize("table", _tables())
@pytest.mark.parametrize("n", [0, 1, 10**4])
def test_periodic_table_kernel_is_the_generic_loop(table, n):
    for y in starts(n):
        assert_same_orbit(table, y, n)
    # start at a knot, where _eval's polynomial is taken at s = 0
    assert_same_orbit(table, table.xs[-1] - 1.0, n)


@pytest.mark.parametrize("amount", [0, 3, -2, Fraction(2, 7), Fraction(-13, 5),
                                    0.6180339887498949, -0.3819660112501051,
                                    2.75, 1e-17])
@pytest.mark.parametrize("n", [0, 1, 10**4])
def test_translate_kernel_is_the_generic_loop(amount, n):
    for y in starts(n):
        assert_same_orbit(Translate(amount), y, n)


class HalfTranslate(Translate):
    __slots__ = ()

    def _eval(self, x, eps):
        return x + 0.5 * self._af


def test_a_subclass_replacing_eval_is_iterated_through_it():
    base = sine_lift(0.37, 0.09)
    table = CountingTable(base.xs, base.ys, "cubic", "periodic")
    assert repr(table._orbit(0.2, 500, EPS, None)) == repr(
        base._orbit(0.2, 500, EPS, None))
    assert table.calls == 500
    half = HalfTranslate(0.5)
    assert half._orbit(0.0, 4, EPS, None) == (0.0, 1)
    assert Translate(0.5)._orbit(0.0, 4, EPS, None) == (0.0, 2)


def _estimates_and_conjugacies():
    """Rotation numbers and Poincare conjugacies of 20 seeded maps of each
    kind: sine, conjugate sine, rigid, conjugate rigid, inverse sine, a
    shifted piecewise-linear map and an exact rational rotation."""
    rng = random.Random(2020)
    out = []
    for _ in range(20):
        t, amp = rng.uniform(0.05, 0.95), rng.uniform(0.03, 0.12)
        lift = sine_lift(t, amp)
        c = random_periodic(rng, "linear", 0.0, 8)
        a = rng.random()
        x0 = rng.uniform(-3.0, 3.0)
        maps = [project(lift), project(compose_all([c, lift, inverse(c)])),
                rotation(a),
                project(compose_all([c, Translate(a), inverse(c)])),
                project(inverse(lift)),
                project(PiecewiseMonotone(c.xs, [y + a for y in c.ys],
                                          "linear", "periodic")),
                rotation(Fraction(rng.randrange(1, 97), 97))]
        for f in maps:
            for N in (1, 10, 3000):
                out.append(rotation_number(f, N, x0))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    conj, defect = approximate_poincare_conjugacy(f, 1000, x0)
                out.append((conj.xs, conj.ys, defect))
            except (RationalRotationError, ValueError) as exc:
                out.append(repr(exc))
    return out


#: sha256 of the repr of _estimates_and_conjugacies(), recorded from the
#: per-step `_eval` loop that preceded the kernels (x86-64 Linux, CPython
#: 3.11; sine_lift samples math.sin, so another libm may differ)
RECORDED_DIGEST = ("1abb0a864e6267ee4f908ef45271788f"
                   "6ef4a3788d52a07b32d8f4f5249e0d8c")


def test_estimates_and_conjugacies_match_the_recorded_floats():
    digest = hashlib.sha256(repr(_estimates_and_conjugacies()).encode())
    assert digest.hexdigest() == RECORDED_DIGEST
