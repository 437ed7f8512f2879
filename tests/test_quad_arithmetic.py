"""Exact arithmetic in Q(sqrt(d)): the operators and mobius_apply against a
reference copy of the earlier per-operation formulas, field identities,
the constructor's input checks, and a fuzz test of the irrational
grammar."""

import decimal
import math
import random
import re
from fractions import Fraction

import pytest

from circledyn import (Gl2zMatrix, QuadIrrational, golden_ratio,
                       mobius_apply, parse_quad_irrational, sqrt_of)
from circledyn.quadirr import MAX_RADICAND

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
RADICANDS = (2, 3, 5, 6, 21)


# -- reference: the formulas the operators replaced --------------------------

def _ref_add(x, t):
    t = Fraction(t)
    return QuadIrrational(x.p * t.denominator + t.numerator * x.r,
                          x.q * t.denominator, x.d, x.r * t.denominator)


def _ref_mul(x, t):
    t = Fraction(t)
    return QuadIrrational(x.p * t.numerator, x.q * t.numerator, x.d,
                          x.r * t.denominator)


def _ref_mobius(M, x):
    A = M.m1 * x.r + M.n1 * x.p
    B = M.n1 * x.q
    C = M.m2 * x.r + M.n2 * x.p
    D = M.n2 * x.q
    return QuadIrrational(A * C - B * D * x.d, B * C - A * D, x.d,
                          C * C - D * D * x.d)


def _random_quad(rng, d):
    q = rng.choice([v for v in range(-9, 10) if v])
    return QuadIrrational(rng.randint(-40, 40), q, d, rng.randint(1, 40))


def _random_rational(rng):
    if rng.random() < 0.5:
        return rng.randint(-40, 40)
    return Fraction(rng.randint(-40, 40), rng.randint(1, 40))


def _unimodular(word):
    """The product of GL(2,Z) generators [[1, k], [0, 1]] (k = +-1) and
    [[0, 1], [1, 0]] (k = 0) along word, as a Moebius map."""
    a, b, c, e = 1, 0, 0, 1     # [[a, b], [c, e]] acts as (a x + b)/(c x + e)
    for k in word:
        if k == 0:
            a, b, c, e = b, a, e, c
        else:
            b, e = b + k * a, e + k * c
    return Gl2zMatrix(m1=b, n1=a, m2=e, n2=c)


def _random_unimodular(rng):
    return _unimodular([rng.choice([1, -1, 0]) for _ in range(rng.randint(1, 10))])


def test_operators_match_the_reference_formulas():
    rng = random.Random(20240611)
    for case in range(1200):
        x = _random_quad(rng, RADICANDS[case % len(RADICANDS)])
        t = _random_rational(rng)
        assert x + t == _ref_add(x, t)
        assert t + x == _ref_add(x, t)
        assert x - t == _ref_add(x, -Fraction(t))
        assert t - x == _ref_add(-x, t)
        M = _random_unimodular(rng)
        assert mobius_apply(M, x) == _ref_mobius(M, x)
        if t == 0:
            continue
        assert x * t == _ref_mul(x, t)
        assert t * x == _ref_mul(x, t)
        assert x / t == _ref_mul(x, 1 / Fraction(t))
        assert t / x == _ref_mul(_ref_mobius(Gl2zMatrix(1, 0, 0, 1), x), t)


def test_parser_matches_the_written_value():
    rng = random.Random(7)
    for case in range(300):
        x = _random_quad(rng, RADICANDS[case % len(RADICANDS)])
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        text = f"({x.p} {'-' if x.q < 0 else '+'} {abs(x.q)}*sqrt({x.d}))/{x.r}"
        assert parse_quad_irrational(text) == x
        shifted = (f"{text} {'+' if t < 0 else '-'} "
                   f"{abs(t.numerator)}/{t.denominator}")
        assert parse_quad_irrational(shifted) == _ref_add(x, -t)


def test_results_that_are_rational_are_fractions():
    x = QuadIrrational(3, -2, 7, 5)
    assert x * 0 == Fraction(0) and isinstance(x * 0, Fraction)
    assert x - x == Fraction(0) and isinstance(x - x, Fraction)
    assert x * (x.r / (x.p + x.q * sqrt_of(7))) == 1
    assert sqrt_of(2) * sqrt_of(8) == Fraction(4)
    assert sqrt_of(3) / sqrt_of(12) == Fraction(1, 2)


def test_irrationals_over_one_radicand_combine():
    a, b = QuadIrrational(1, 2, 3), QuadIrrational(-4, 1, 3, 5)
    assert a + b == QuadIrrational(1, 11, 3, 5)
    assert a * b == QuadIrrational(2, -7, 3, 5)
    assert (a * b) / b == a
    assert golden_ratio() * golden_ratio() == golden_ratio() + 1


def test_mixed_radicands_and_foreign_types_are_refused():
    with pytest.raises(ValueError, match="mixed sqrt radicands"):
        sqrt_of(2) + sqrt_of(3)
    with pytest.raises(TypeError):
        sqrt_of(2) * 1.5
    with pytest.raises(ZeroDivisionError):
        sqrt_of(2) / 0


@st.composite
def _field_elements(draw, d):
    kind = draw(st.sampled_from(["int", "fraction", "quad"]))
    p = draw(st.integers(-10**6, 10**6))
    r = draw(st.integers(1, 10**6))
    if kind == "int":
        return p
    if kind == "fraction":
        return Fraction(p, r)
    q = draw(st.integers(-10**6, 10**6).filter(bool))
    return QuadIrrational(p, q, d, r)


@st.composite
def _pairs(draw):
    d = draw(st.sampled_from(RADICANDS + (7, 10**10 - 1)))
    return draw(_field_elements(d)), draw(_field_elements(d))


@PROPERTY
@given(_pairs())
def test_field_identities(pair):
    x, y = pair
    assume(isinstance(x, QuadIrrational) or isinstance(y, QuadIrrational))
    assert (x + y) - y == x
    assert (x - y) + y == x
    if y != 0:
        assert (x * y) / y == x


@PROPERTY
@given(st.sampled_from(RADICANDS), st.integers(-10**4, 10**4),
       st.integers(-10**4, 10**4).filter(bool),
       st.integers(-10**4, 10**4).filter(bool),
       st.lists(st.sampled_from([1, -1, 0]), max_size=12))
def test_mobius_apply_is_the_operator_form(d, p, q, r, word):
    M, x = _unimodular(word), QuadIrrational(p, q, d, r)
    expected = (M.m1 + M.n1 * x) / (M.m2 + M.n2 * x)
    got = mobius_apply(M, x)
    assert got == expected and type(got) is type(expected)


@PROPERTY
@given(st.sampled_from(RADICANDS), st.integers(-10**4, 10**4),
       st.integers(-10**4, 10**4).filter(bool), st.integers(1, 10**4),
       st.lists(st.sampled_from([1, -1, 0]), max_size=12))
def test_mobius_inverse_undoes_mobius(d, p, q, r, word):
    M = _unimodular(word)
    # (m1 + n1 x)/(m2 + n2 x) is the matrix [[n1, m1], [n2, m2]]; its
    # inverse up to sign is [[m2, -m1], [-n2, n1]]
    inv = Gl2zMatrix(m1=-M.m1, n1=M.m2, m2=M.n1, n2=-M.n2)
    x = QuadIrrational(p, q, d, r)
    assert mobius_apply(inv, mobius_apply(M, x)) == x
    assert mobius_apply(M, x) == _ref_mobius(M, x)


@PROPERTY
@given(st.sampled_from(RADICANDS), st.integers(-10**4, 10**4),
       st.integers(-10**4, 10**4).filter(bool), st.integers(1, 10**4),
       st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50),
                                                 st.integers(1, 50))))
@example(2, 1, 1, 1, 0)
@example(2, 1, 1, 1, Fraction(0))
def test_rational_scalars_distribute(d, p, q, r, c):
    x = QuadIrrational(p, q, d, r)
    assert c * x + c == c * (x + 1)


# -- constructor checks ------------------------------------------------------

@pytest.mark.parametrize("args", [(1.5, 1, 2, 1), (1, 2.0, 2, 1),
                                  (1, 1, 2.9, 1), (-1.7, 1, 2.9),
                                  (1, 1, 2, True), (True, 1, 2, 1),
                                  (1, 1, "2", 1), (1, 1, Fraction(2), 1)])
def test_constructor_requires_integers(args):
    with pytest.raises(ValueError, match="must be integers"):
        QuadIrrational(*args)


def test_radicand_bound():
    assert MAX_RADICAND == 10**10
    assert QuadIrrational(0, 1, MAX_RADICAND - 1).d == 1111111111
    for d in (MAX_RADICAND + 1, 10**14 + 31, 10**40 + 1):
        with pytest.raises(ValueError, match="MAX_RADICAND"):
            QuadIrrational(0, 1, d)
        with pytest.raises(ValueError, match="MAX_RADICAND"):
            parse_quad_irrational(f"sqrt({d}) - 1")
    with pytest.raises(ValueError, match="MAX_RADICAND"):
        parse_quad_irrational("sqrt(99999999999999999999999999999999999)")


# -- the grammar -------------------------------------------------------------

@pytest.mark.parametrize("text", ["1/0", "sqrt(2)/(sqrt(2)-sqrt(2))",
                                  "golden/(golden*2-1-sqrt(5))", "1/(0*sqrt(3))"])
def test_division_by_zero_is_a_value_error(text):
    with pytest.raises(ValueError, match="divides by zero"):
        parse_quad_irrational(text)


def test_deep_parentheses_are_a_value_error():
    assert parse_quad_irrational("(" * 50 + "sqrt(2)" + ")" * 50) == sqrt_of(2)
    with pytest.raises(ValueError, match="too deeply"):
        parse_quad_irrational("(" * 5000 + "sqrt(2)" + ")" * 5000)


def _decimal_value(text):
    """The text evaluated in 60-digit decimal floating point, independently
    of the parser: Python evaluates it after each integer literal becomes a
    Decimal."""
    source = re.sub(r"\d+", lambda m: f"D('{m.group()}')", text)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        scope = {"__builtins__": {}, "D": decimal.Decimal,
                 "sqrt": lambda v: v.sqrt(),
                 "golden": (1 + decimal.Decimal(5).sqrt()) / 2}
        return eval(source, scope)


GRAMMAR_CHARS = "0123456789sqrtgolden+-*/() "
GRAMMAR_TOKENS = ["0", "1", "2", "3", "5", "7", "12", "sqrt", "sqrt(",
                  "golden", "+", "-", "*", "/", "(", ")", " "]


# texts the grammar derives, over radicands that are mostly in Q(sqrt(2)),
# so that most of them parse and their values are checked
GRAMMAR_TEXTS = st.recursive(
    st.one_of(st.integers(0, 99).map(str),
              st.sampled_from(["sqrt(2)", "sqrt(8)", "sqrt(18)", "sqrt(4)",
                               "sqrt(5)", "golden"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        inner.map("({})".format), inner.map("(-{})".format)),
    max_leaves=10)


@PROPERTY
@given(st.one_of(st.text(GRAMMAR_CHARS, max_size=30),
                 st.lists(st.sampled_from(GRAMMAR_TOKENS),
                          max_size=24).map("".join),
                 GRAMMAR_TEXTS))
def test_parser_fuzz(text):
    try:
        x = parse_quad_irrational(text)
    except ValueError:
        return
    assert isinstance(x, QuadIrrational)
    exact = _decimal_value(text)
    assert math.isclose(float(x), float(exact), rel_tol=1e-9, abs_tol=1e-9)
