"""The GL(2,Z) algebra of Gl2zMatrix (composition, inverse, the prefix maps
behind the witness and the convergents) and the negative branches of the
equivalence decision."""

import random
from fractions import Fraction

from circledyn import (CfExpansion, Gl2zMatrix, QuadIrrational, Verdict,
                       build_circle_action, cf_expand, conjugacy_verdict,
                       gl2z_equivalent, mobius_apply)

IDENTITY = Gl2zMatrix(0, 1, 1, 0)
RADICANDS = (2, 3, 5, 6, 7, 10, 13, 19, 21)


def _unimodular(rng):
    """A random product of [[1, +-1], [0, 1]] and [[0, 1], [1, 0]], written
    as the Moebius map of the matrix [[a, b], [c, e]]: (a x + b)/(c x + e)."""
    a, b, c, e = 1, 0, 0, 1
    for _ in range(rng.randint(1, 10)):
        k = rng.choice([1, -1, 0])
        if k == 0:
            a, b, c, e = b, a, e, c
        else:
            b, e = b + k * a, e + k * c
    return Gl2zMatrix(m1=b, n1=a, m2=e, n2=c)


def _quad(rng):
    return QuadIrrational(rng.randint(-20, 20), rng.choice([-3, -2, -1, 1, 2, 3]),
                          rng.choice(RADICANDS), rng.randint(1, 12))


def test_composition_is_the_map_after_the_map():
    rng = random.Random(14)
    for _ in range(300):
        A, B, x = _unimodular(rng), _unimodular(rng), _quad(rng)
        assert mobius_apply(A @ B, x) == mobius_apply(A, mobius_apply(B, x))


def test_composition_is_associative():
    rng = random.Random(15)
    for _ in range(300):
        A, B, C = _unimodular(rng), _unimodular(rng), _unimodular(rng)
        assert (A @ B) @ C == A @ (B @ C)
        assert A @ IDENTITY == A == IDENTITY @ A


def test_inverse_composes_to_the_identity():
    rng = random.Random(16)
    for _ in range(300):
        M, x = _unimodular(rng), _quad(rng)
        assert M @ M.inverse() == IDENTITY == M.inverse() @ M
        assert mobius_apply(M.inverse(), mobius_apply(M, x)) == x


def test_inverse_sign_follows_the_matrix_determinant():
    # x -> x + 1 has det == -1 and matrix [[1, 1], [0, 1]] of determinant
    # +1, so its inverse is written (-1 + x)/1, not (1 - x)/(-1)
    shift = Gl2zMatrix(1, 1, 1, 0)
    assert shift.det == -1
    assert shift.inverse() == Gl2zMatrix(-1, 1, 1, 0)
    flip = Gl2zMatrix(1, 0, 0, 1)                  # x -> 1/x, det == 1
    assert flip.inverse() == flip


def test_products_and_inverses_stay_unimodular():
    # @ and inverse() skip the determinant check of the public constructor
    rng = random.Random(19)
    for _ in range(300):
        A, B = _unimodular(rng), _unimodular(rng)
        for M in (A @ B, A.inverse(), (A @ B).inverse(), A @ B.inverse()):
            assert abs(M.det) == 1
            assert M == Gl2zMatrix(*M.as_tuple())


def test_convergents_match_the_three_term_recurrence():
    rng = random.Random(17)
    for _ in range(200):
        exp = cf_expand(_quad(rng))
        p0, p1, q0, q1 = 1, exp.term(0), 0, 1
        expected = [Fraction(p1, q1)]
        for a in exp.terms(12)[1:]:
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
            expected.append(Fraction(p1, q1))
        assert list(exp.convergents(12)) == expected


def test_expansions_equal_the_checked_constructor():
    # cf_expand skips the constructor's checks; the terms are the same
    rng = random.Random(19)
    surds = [_quad(rng) for _ in range(1500)]
    surds += [QuadIrrational(p, q, d, r) for d in (2, 3, 19, 94, 991)
              for p in (-7, 0, 5) for q in (1, -2) for r in (1, 3, 10)]
    for x in surds:
        exp = cf_expand(x)
        checked = CfExpansion(exp.preperiod, exp.period)
        assert exp == checked
        assert all(type(a) is int for a in exp.preperiod + exp.period)


def test_witness_maps_x_to_y_on_seeded_pairs():
    rng = random.Random(18)
    for _ in range(200):
        x = _quad(rng)
        y = mobius_apply(_unimodular(rng), x)
        equivalent, witness = gl2z_equivalent(x, y)
        assert equivalent and mobius_apply(witness, x) == y
        assert mobius_apply(witness.inverse(), y) == x


def test_minimal_cycle_keeps_a_primitive_period():
    assert CfExpansion([1], [2, 2, 2]).period == (2,)
    assert CfExpansion([1], [1, 2, 1, 2]).period == (1, 2)
    assert CfExpansion([1], [1, 1, 2]).period == (1, 1, 2)


def test_period_lengths_differ():
    root2, three_root2 = QuadIrrational(0, 1, 2), 3 * QuadIrrational(0, 1, 2)
    assert cf_expand(root2) == CfExpansion([1], [2])
    assert cf_expand(three_root2) == CfExpansion([4], [4, 8])
    assert gl2z_equivalent(root2, three_root2) == (False, None)


def test_no_rotation_of_the_period_matches():
    root5 = QuadIrrational(0, 1, 5)
    assert cf_expand(QuadIrrational(1, 1, 5, 2)).period == (1,)
    assert cf_expand(root5) == CfExpansion([2], [4])
    assert gl2z_equivalent(QuadIrrational(1, 1, 5, 2), root5) == (False, None)


def test_verdict_separates_inequivalent_base_irrationals():
    a = build_circle_action(QuadIrrational(1, 1, 5, 2) - 1, 2, 2, (1, 0))
    b = build_circle_action(QuadIrrational(0, 1, 5) - 2, 2, 2, (1, 0))
    report = conjugacy_verdict(a, b)
    assert report.verdict is Verdict.NOT_CONJUGATE
    assert report.reason == "base irrationals are not GL(2,Z) equivalent"


def test_mobius_apply_maps_a_rational_through_the_operators():
    M = Gl2zMatrix(1, 2, 3, 5)     # x -> (1 + 2x) / (3 + 5x)
    assert mobius_apply(M, Fraction(1, 2)) == Fraction(4, 11)
    # an int is taken as a Fraction, not divided as a float
    for M, x, image in ((Gl2zMatrix(0, 1, 1, 0), 7, Fraction(7)),
                        (Gl2zMatrix(1, 1, 0, 1), 3, Fraction(4, 3))):
        result = mobius_apply(M, x)
        assert type(result) is Fraction and result == image
    assert mobius_apply(Gl2zMatrix(1, 1, 0, 1), 3.0) == 4.0 / 3.0
