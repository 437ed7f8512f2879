"""Arithmetic results are built by `QuadIrrational._canonical`, which skips
the public constructor's checks; they must equal what the validating
constructor builds from the same parts."""

import operator
import random
from fractions import Fraction

from circledyn import QuadIrrational, quadirr
from circledyn.quadirr import Gl2zMatrix, mobius_apply

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _operand(rng, d):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QuadIrrational(rng.randint(-20, 20), rng.choice([-3, -2, -1, 1, 2, 3]),
                          d, rng.choice([-6, -4, -1, 1, 2, 5, 12]))


def _results(cases):
    out = []
    for x, y, op in cases:
        try:
            out.append(op(x, y))
        except ZeroDivisionError:
            out.append(ZeroDivisionError)
    for x, y, op in cases[:200]:
        if isinstance(x, QuadIrrational):
            out.append(-x)
            out.append(mobius_apply(Gl2zMatrix(3, 2, 4, 3), x))
    return out


def test_results_equal_the_validating_constructor(monkeypatch):
    rng = random.Random(1009)
    cases = []
    while len(cases) < 1000:
        d = rng.choice([2, 3, 5, 6, 7, 10, 13, 9991])
        x, y = _operand(rng, d), _operand(rng, d)
        if isinstance(x, QuadIrrational) or isinstance(y, QuadIrrational):
            cases.append((x, y, rng.choice(OPS)))
    fast = _results(cases)
    monkeypatch.setattr(quadirr.QuadIrrational, "_canonical", classmethod(
        lambda cls, p, q, d, r: cls(p, q, d, r)))
    checked = _results(cases)
    assert [type(v) for v in fast] == [type(v) for v in checked]
    assert fast == checked
    irrational = [v for v in fast if isinstance(v, QuadIrrational)]
    assert len(irrational) > 500
    assert all(type(v.p) is type(v.q) is type(v.r) is int and v.r > 0
               for v in irrational)
