"""Exact quadratic irrational arithmetic, continued fractions, and the
GL(2,Z) equivalence decision."""

import math
import random
from fractions import Fraction

import pytest

from circledyn import (CfExpansion, Gl2zMatrix, QuadIrrational, cf_expand,
                       gl2z_equivalent, mobius_apply,
                       parse_quad_irrational)

SQRT2M1 = QuadIrrational(-1, 1, 2)      # sqrt(2) - 1
GOLDEN_CONJ = QuadIrrational(-1, 1, 5, 2)  # (sqrt(5) - 1) / 2


def test_canonicalization():
    assert QuadIrrational(0, 2, 2, 2) == QuadIrrational(0, 1, 2, 1)
    assert QuadIrrational(0, 1, 8) == QuadIrrational(0, 2, 2)   # sqrt(8) = 2 sqrt(2)
    assert QuadIrrational(1, 1, 2, -1) == QuadIrrational(-1, -1, 2, 1)
    with pytest.raises(ValueError):
        QuadIrrational(1, 0, 2)
    with pytest.raises(ValueError):
        QuadIrrational(1, 1, 9)   # sqrt(9) is rational
    with pytest.raises(ValueError):
        QuadIrrational(1, 1, 2, 0)


def test_value_oracle():
    assert SQRT2M1.value(1e-12) == pytest.approx(math.sqrt(2) - 1, abs=2e-12)
    assert GOLDEN_CONJ.value(1e-12) == pytest.approx((math.sqrt(5) - 1) / 2, abs=2e-12)
    # canonical double denotes the same value
    assert (QuadIrrational(0, 2, 2, 2).value(1e-12)
            == QuadIrrational(0, 1, 2).value(1e-12))


def test_exact_floor_and_comparisons():
    assert SQRT2M1.floor() == 0
    assert QuadIrrational(0, 1, 2).floor() == 1
    assert (QuadIrrational(0, 1, 2) + 10).floor() == 11
    assert (-QuadIrrational(0, 1, 2)).floor() == -2
    assert SQRT2M1 > 0
    assert SQRT2M1 < 1
    big = QuadIrrational(10**40, 1, 2)
    assert big.floor() == 10**40 + 1


def test_cf_expansions():
    assert cf_expand(SQRT2M1) == CfExpansion([0], [2])
    assert cf_expand(GOLDEN_CONJ) == CfExpansion([0], [1])
    assert cf_expand(QuadIrrational(0, 1, 2) + 1) == CfExpansion([], [2])
    assert cf_expand(QuadIrrational(0, 1, 3)) == CfExpansion([1], [1, 2])


def test_cf_convergents_rate():
    # |x - p_k/q_k| < 1/(q_k q_{k+1})
    x = QuadIrrational(0, 1, 7)
    exp = cf_expand(x)
    convs = list(exp.convergents(12))
    for a, b in zip(convs, convs[1:]):
        err = abs(Fraction(x.value(1e-16)).limit_denominator(10**12) - a)
        bound = Fraction(1, a.denominator * b.denominator)
        assert err <= bound * Fraction(102, 100)


def test_cf_value_roundtrip():
    for x in (SQRT2M1, GOLDEN_CONJ, QuadIrrational(0, 1, 13) - 3,
              QuadIrrational(3, -2, 6, 5)):
        exp = cf_expand(x)
        approx = list(exp.convergents(25))[-1]
        assert abs(float(approx) - x.value(1e-15)) < 1e-9


def test_mobius_trivial_examples():
    alpha = QuadIrrational(0, 1, 3)
    assert mobius_apply(Gl2zMatrix(1, 1, 1, 0), alpha) == alpha + 1
    assert mobius_apply(Gl2zMatrix(0, 1, 1, 0), alpha) == alpha
    inv = mobius_apply(Gl2zMatrix(1, 0, 0, 1), alpha)   # 1/alpha
    assert inv == QuadIrrational(0, 1, 3, 3)


def test_mobius_preserves_d():
    assert mobius_apply(Gl2zMatrix(2, 3, 1, 2), SQRT2M1).d == 2


def test_gl2z_matrix_validates_det():
    with pytest.raises(ValueError):
        Gl2zMatrix(1, 0, 0, 2)
    assert Gl2zMatrix(1, 1, 1, 0).det == -1


def test_equivalence_examples():
    eq, w = gl2z_equivalent(SQRT2M1, QuadIrrational(0, 1, 2) + 1)
    assert eq and w is not None
    assert mobius_apply(w, SQRT2M1) == QuadIrrational(0, 1, 2) + 1
    assert abs(w.det) == 1

    eq, w = gl2z_equivalent(GOLDEN_CONJ, SQRT2M1)
    assert not eq and w is None

    alpha = QuadIrrational(0, 1, 3)
    eq, w = gl2z_equivalent(alpha, alpha + 1)
    assert eq
    assert mobius_apply(w, alpha) == alpha + 1


def _random_unimodular(rng: random.Random) -> Gl2zMatrix:
    # random word in the standard generators keeps entries modest
    mats = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0))]
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 8)):
        g = rng.choice(mats)
        m = (
            (m[0][0] * g[0][0] + m[0][1] * g[1][0],
             m[0][0] * g[0][1] + m[0][1] * g[1][1]),
            (m[1][0] * g[0][0] + m[1][1] * g[1][0],
             m[1][0] * g[0][1] + m[1][1] * g[1][1]),
        )
    return Gl2zMatrix(m1=m[0][1], n1=m[0][0], m2=m[1][1], n2=m[1][0])


def _random_quad(rng: random.Random) -> QuadIrrational:
    d = rng.choice([2, 3, 5, 6, 7, 10, 13])
    while True:
        p = rng.randint(-9, 9)
        q = rng.choice([-3, -2, -1, 1, 2, 3])
        r = rng.randint(1, 9)
        return QuadIrrational(p, q, d, r)


def test_randomized_completeness():
    rng = random.Random(1729)
    for _ in range(100):
        x = _random_quad(rng)
        M = _random_unimodular(rng)
        y = mobius_apply(M, x)
        eq, w = gl2z_equivalent(x, y)
        assert eq, (x, M, y)
        assert mobius_apply(w, x) == y
        assert abs(w.det) == 1


def test_equivalence_is_symmetric_and_transitive():
    rng = random.Random(99)
    for _ in range(25):
        x = _random_quad(rng)
        y = mobius_apply(_random_unimodular(rng), x)
        z = mobius_apply(_random_unimodular(rng), y)
        assert gl2z_equivalent(x, y)[0]
        assert gl2z_equivalent(y, x)[0]
        assert gl2z_equivalent(x, z)[0]
    # inequivalent stays inequivalent both ways
    assert not gl2z_equivalent(SQRT2M1, GOLDEN_CONJ)[0]
    assert not gl2z_equivalent(GOLDEN_CONJ, SQRT2M1)[0]


def test_equivalent_values_share_squarefree_kernel():
    rng = random.Random(5)
    for _ in range(50):
        x = _random_quad(rng)
        y = mobius_apply(_random_unimodular(rng), x)
        assert x.d == y.d


def test_parser():
    assert parse_quad_irrational("sqrt(2)-1") == SQRT2M1
    assert parse_quad_irrational("(0+1*sqrt(2))/1 - 1") == SQRT2M1
    assert parse_quad_irrational("(sqrt(5)-1)/2") == GOLDEN_CONJ
    assert parse_quad_irrational("golden - 1") == GOLDEN_CONJ
    assert parse_quad_irrational("golden") == QuadIrrational(1, 1, 5, 2)
    assert parse_quad_irrational("2*sqrt(3)/3") == QuadIrrational(0, 2, 3, 3)
    assert parse_quad_irrational("1/(1+sqrt(2))") == SQRT2M1
    with pytest.raises(ValueError):
        parse_quad_irrational("3/4")
    with pytest.raises(ValueError):
        parse_quad_irrational("sqrt(4)-1")
    with pytest.raises(ValueError):
        parse_quad_irrational("sqrt(2) + sqrt(3)")
    with pytest.raises(ValueError):
        parse_quad_irrational("sqrt(2) +")
