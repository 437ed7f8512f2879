"""Exact quadratic irrationals, periodic continued fractions, and the
GL(2,Z) equivalence decision.

A value is stored as (p + q*sqrt(d)) / r with integer p, q, r, a squarefree
d >= 2, gcd(p, q, r) = 1 and r > 0, which makes the representation unique.
Two irrationals are equivalent when one is the image of the other under an
integer Moebius map (m1 + n1*x)/(m2 + n2*x) with |m1*n2 - n1*m2| = 1;
by Serret's theorem this holds exactly when their continued fraction
expansions share a common tail, i.e. when their minimal periods agree as
cyclic words.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

from ._record import Record


#: Largest radicand: splitting off its square factors is trial division up
#: to sqrt(d), and the continued fraction period grows like sqrt(d).
MAX_RADICAND = 10**10


@functools.lru_cache(maxsize=128)
def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, d0) with d = s*s*d0 and d0 squarefree."""
    s = 1
    d0 = d
    p = 2
    while p * p <= d0:
        while d0 % (p * p) == 0:
            d0 //= p * p
            s *= p
        p += 1
    return s, d0


class QuadIrrational:
    """Canonical exact quadratic irrational (p + q*sqrt(d)) / r.

    The arithmetic operators combine it exactly with ints, Fractions and
    QuadIrrationals over the same d; a rational result is a Fraction."""

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int, d: int, r: int = 1):
        if not (type(p) is type(q) is type(d) is type(r) is int):
            raise ValueError("p, q, d and r must be integers")
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        if q == 0:
            raise ValueError("q = 0 would make the value rational")
        if not 0 < d <= MAX_RADICAND:
            raise ValueError("d must satisfy 0 < d <= MAX_RADICAND = 10**10")
        s, d = _squarefree_split(d)
        q *= s
        if d == 1:
            raise ValueError("d must not be a perfect square (value would be rational)")
        self._assign(p, q, d, r)

    def _assign(self, p: int, q: int, d: int, r: int):
        """Store the value with r > 0 and gcd(p, q, r) = 1."""
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        self.p = p // g
        self.q = q // g
        self.d = d
        self.r = r // g

    @classmethod
    def _canonical(cls, p: int, q: int, d: int, r: int) -> "QuadIrrational":
        """The constructor for results of canonical operands: ints p, q != 0,
        r != 0 and a square-free d >= 2.  It skips the checks and the
        radicand split of __init__ and keeps only the sign and gcd step."""
        x = object.__new__(cls)
        x._assign(p, q, d, r)
        return x

    def _tuple(self):
        return (self.p, self.q, self.d, self.r)

    def __eq__(self, other):
        if not isinstance(other, QuadIrrational):
            return NotImplemented
        return self._tuple() == other._tuple()

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self):
        return f"QuadIrrational(({self.p} + {self.q}*sqrt({self.d})) / {self.r})"

    def compare_fraction(self, t: Fraction) -> int:
        """Exact sign of self - t (never 0; the value is irrational)."""
        return 1 if (self - Fraction(t)).floor() >= 0 else -1

    def __lt__(self, other):
        return self.compare_fraction(Fraction(other)) < 0

    def __gt__(self, other):
        return self.compare_fraction(Fraction(other)) > 0

    def _surd(self) -> tuple[int, int, int]:
        """(P, D, Q) with self = (P + sqrt(D)) / Q."""
        sign = 1 if self.q > 0 else -1
        return sign * self.p, self.q * self.q * self.d, sign * self.r

    def floor(self) -> int:
        P, D, Q = self._surd()
        return _floor_surd(P, math.isqrt(D), Q)

    def value(self, eps: float = 1e-15) -> float:
        """Float approximation with |result - exact| <= eps, via integer
        square-root refinement."""
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        k = max(0, math.ceil(math.log2(max(abs(self.q), 1) / (self.r * eps))) + 1)
        s = math.isqrt(self.d << (2 * k))
        approx = Fraction(self.p, self.r) + Fraction(self.q * s, self.r << k)
        return float(approx)

    def __float__(self):
        return self.value(1e-18)

    def __add__(self, other):
        return _combine(self, other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return _combine(self, -other, "+")

    def __rsub__(self, other):
        return _combine(other, -self, "+")

    def __neg__(self):
        return QuadIrrational._canonical(-self.p, -self.q, self.d, self.r)

    def __mul__(self, other):
        return _combine(self, other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _combine(self, other, "/")

    def __rtruediv__(self, other):
        return _combine(other, self, "/")

    def as_jsonable(self):
        return {"p": self.p, "q": self.q, "d": self.d, "r": self.r}


def _parts(x) -> tuple[int, int, int, int] | None:
    """(p, q, d, r) with x = (p + q*sqrt(d)) / r, where d = 0 for an int or
    Fraction x; None for any other type."""
    if isinstance(x, QuadIrrational):
        return x.p, x.q, x.d, x.r
    if isinstance(x, int):
        return x, 0, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, 0, x.denominator
    return None


def _combine(x, y, op: str):
    """x + y, x * y or x / y (op "+", "*" or "/") in Q(sqrt(d)), exactly:
    a QuadIrrational, or a Fraction when the result is rational.

    Raises ValueError for two different radicands and ZeroDivisionError
    for a zero divisor, and returns NotImplemented for an operand of any
    other type."""
    xs, ys = _parts(x), _parts(y)
    if xs is None or ys is None:
        return NotImplemented
    (a, b, d, r), (c, e, dy, s) = xs, ys
    if d and dy and d != dy:
        raise ValueError("mixed sqrt radicands are not supported")
    d = d or dy
    if op == "/":
        # x / y = x * conj(y) / N(y): 1/y = s*(c - e*sqrt(d)) / (c*c - e*e*d)
        c, e, s = s * c, -s * e, c * c - e * e * d
        if s == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
    if op == "+":
        p, q = a * s + c * r, b * s + e * r
    else:
        p, q = a * c + b * e * d, a * e + b * c
    return QuadIrrational._canonical(p, q, d, r * s) if q else Fraction(p, r * s)


def sqrt_of(d: int) -> QuadIrrational:
    return QuadIrrational(0, 1, d)


def golden_ratio() -> QuadIrrational:
    """(1 + sqrt(5)) / 2, the fixed point of x -> 1 + 1/x."""
    return QuadIrrational(1, 1, 5, 2)


class Gl2zMatrix(Record):
    """Integer Moebius map x -> (m1 + n1*x) / (m2 + n2*x), |det| = 1.

    A @ B is the map A after B.  Its matrix [[n1, m1], [n2, m2]], acting on
    (x, 1), has determinant -det.  Products and inverses of unimodular maps
    are unimodular, so they skip the determinant check."""

    __slots__ = ("m1", "n1", "m2", "n2")

    def _check(self):
        if abs(self.det) != 1:
            raise ValueError(f"|m1*n2 - n1*m2| must be 1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m1 * self.n2 - self.n1 * self.m2

    def as_tuple(self):
        return (self.m1, self.n1, self.m2, self.n2)

    def __matmul__(self, other: "Gl2zMatrix") -> "Gl2zMatrix":
        return Gl2zMatrix._trusted(self.n1 * other.m1 + self.m1 * other.m2,
                                   self.n1 * other.n1 + self.m1 * other.n2,
                                   self.n2 * other.m1 + self.m2 * other.m2,
                                   self.n2 * other.n1 + self.m2 * other.n2)

    def inverse(self) -> "Gl2zMatrix":
        # the matrix's determinant -det is +-1: its inverse is -det * adjugate
        s = -self.det
        return Gl2zMatrix._trusted(-s * self.m1, s * self.m2,
                                   s * self.n1, -s * self.n2)


def mobius_apply(M: Gl2zMatrix, x: QuadIrrational) -> QuadIrrational:
    """(m1 + n1*x) / (m2 + n2*x), exactly, in canonical form.

    With x = (p + q*sqrt(d)) / r this is (a + b*sqrt(d)) / (c + e*sqrt(d))
    for a = m1*r + n1*p, b = n1*q, c = m2*r + n2*p, e = n2*q, which is
    (a*c - b*e*d + (b*c - a*e)*sqrt(d)) / (c*c - e*e*d).  The sqrt(d)
    coefficient b*c - a*e = -q*r*det is nonzero, and so is the norm
    c*c - e*e*d: m2 + n2*x = 0 would need m2 = n2 = 0.  A rational x goes
    through the operators."""
    if not isinstance(x, QuadIrrational):
        return (M.m1 + M.n1 * x) / (M.m2 + M.n2 * x)
    p, q, d, r = x.p, x.q, x.d, x.r
    a, c = M.m1 * r + M.n1 * p, M.m2 * r + M.n2 * p
    b, e = M.n1 * q, M.n2 * q
    return QuadIrrational._canonical(a * c - b * e * d, b * c - a * e, d,
                                     c * c - e * e * d)


class CfExpansion:
    """Eventually periodic continued fraction [preperiod; period repeating].

    All terms after the first are >= 1, and the period is minimal.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod, period):
        preperiod = tuple(int(a) for a in preperiod)
        period = tuple(int(a) for a in period)
        if not period:
            raise ValueError("period must be non-empty")
        for a in preperiod[1:] + period:
            if a < 1:
                raise ValueError("all terms except the first must be >= 1")
        self.preperiod = preperiod
        self.period = _minimal_cycle(period)

    def term(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def terms(self, count: int) -> list[int]:
        return [self.term(i) for i in range(count)]

    def convergents(self, count: int):
        """Yield the first count convergents, n1/n2 of the prefix maps."""
        maps = itertools.islice(_prefix_maps(self, count), 1, None)
        for _, n1, _, n2 in maps:
            yield Fraction(n1, n2)

    def __eq__(self, other):
        if not isinstance(other, CfExpansion):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"CfExpansion(preperiod={list(self.preperiod)}, period={list(self.period)})"


def _minimal_cycle(period: tuple) -> tuple:
    n = len(period)
    for length in range(1, n):
        if n % length == 0 and period[:length] * (n // length) == period:
            return period[:length]
    return period


def _floor_surd(P: int, sqrtD: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) for non-square D, given sqrtD = isqrt(D)."""
    if Q > 0:
        return (P + sqrtD) // Q
    return -((P + sqrtD) // (-Q)) - 1


def cf_expand(x: QuadIrrational) -> CfExpansion:
    """Exact eventually periodic expansion via the integer surd recurrence."""
    P, D, Q = x._surd()
    if (D - P * P) % Q != 0:
        a = abs(Q)
        P *= a
        D *= a * a
        Q *= a
    sqrtD = math.isqrt(D)
    terms: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while True:
        state = (P, Q)
        if state in seen:
            start = seen[state]
            return CfExpansion(terms[:start], terms[start:])
        seen[state] = len(terms)
        a = _floor_surd(P, sqrtD, Q)
        terms.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q


value = QuadIrrational.value


def _prefix_maps(exp: CfExpansion, length: int):
    """The maps t -> [a0; ..., a_{i-1} + 1/t] for i = 0, ..., length, as
    (m1, n1, m2, n2); x is the i-th map of its i-th complete quotient.

    They are the products of the maps t -> a + 1/t, Gl2zMatrix(1, a, 0, 1),
    from the identity (0, 1, 1, 0) on, each product written out: M after
    t -> a + 1/t is (n1, a*n1 + m1, n2, a*n2 + m2), the recurrence of the
    convergents n1/n2."""
    m1, n1, m2, n2 = 0, 1, 1, 0
    yield m1, n1, m2, n2
    for a in exp.terms(length):
        m1, n1, m2, n2 = n1, a * n1 + m1, n2, a * n2 + m2
        yield m1, n1, m2, n2


def gl2z_equivalent(x: QuadIrrational,
                    y: QuadIrrational) -> tuple[bool, Gl2zMatrix | None]:
    """Decide GL(2,Z) equivalence by continued-fraction tail matching.

    When equivalent, the witness matrix M satisfies mobius_apply(M, x) == y
    exactly (it is reconstructed from the convergent matrices of both
    expansions up to the matched tail).
    """
    if x.d != y.d:
        return False, None
    ex = cf_expand(x)
    ey = cf_expand(y)
    if len(ex.period) != len(ey.period):
        return False, None
    n = len(ex.period)
    target = tuple(ey.period)
    for shift in range(n):
        if ex.period[shift:] + ex.period[:shift] != target:
            continue
        *_, mx = _prefix_maps(ex, len(ex.preperiod) + shift)
        *_, my = _prefix_maps(ey, len(ey.preperiod))
        witness = Gl2zMatrix._trusted(*my) @ Gl2zMatrix._trusted(*mx).inverse()
        # the period is primitive, so no other rotation of it matches
        if mobius_apply(witness, x) != y:
            raise RuntimeError("tail match found but witness verification failed")
        return True, witness
    return False, None


# -- input grammar -----------------------------------------------------------
#
#   expr   := ['-'] term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := integer | 'sqrt' '(' integer ')' | 'golden' | '(' expr ')'
#
# Values live in a single quadratic field Q(sqrt(d)); the result must be
# irrational.  Examples: "sqrt(2)-1", "(0+1*sqrt(2))/1 - 1", "golden - 1".


_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d_]+)|([-+*/()]))")


def _tokenize(text: str) -> list:
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"unexpected character "
                             f"{text[pos:].lstrip()[0]!r} in {text!r}")
        number, word, op = match.groups()
        tokens.append(int(number) if number else word or op)
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent over the grammar above; a value is a Fraction
    while it is rational and a QuadIrrational once it is not."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse_expr(self):
        negate = False
        if self.peek() == "-":
            self.take()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

    def parse_factor(self):
        tok = self.peek()
        if isinstance(tok, int):
            self.take()
            return Fraction(tok)
        if tok == "sqrt":
            self.take()
            self.take("(")
            d = self.take()
            if not isinstance(d, int) or not 0 < d <= MAX_RADICAND:
                raise ValueError("sqrt(d) needs 0 < d <= MAX_RADICAND = 10**10")
            self.take(")")
            root = math.isqrt(d)
            return Fraction(root) if root * root == d else QuadIrrational(0, 1, d)
        if tok == "golden":
            self.take()
            return golden_ratio()
        if tok == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ValueError(f"unexpected token {tok!r}")


def parse_quad_irrational(text: str) -> QuadIrrational:
    """Parse the textual grammar; raises ValueError when the value is
    rational, the input malformed or a divisor zero."""
    parser = _Parser(_tokenize(text))
    try:
        value = parser.parse_expr()
    except ZeroDivisionError:
        raise ValueError(f"{text!r} divides by zero") from None
    except RecursionError:
        raise ValueError(f"{text!r} nests parentheses too deeply") from None
    if parser.peek() is not None:
        raise ValueError(f"trailing input at token {parser.peek()!r}")
    if not isinstance(value, QuadIrrational):
        raise ValueError(f"{text!r} denotes a rational number")
    return value
