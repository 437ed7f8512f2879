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

import math
from dataclasses import dataclass
from fractions import Fraction


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


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


class QuadIrrational:
    """Canonical exact quadratic irrational (p + q*sqrt(d)) / r."""

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int, d: int, r: int = 1):
        p, q, d, r = int(p), int(q), int(d), int(r)
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        if q == 0:
            raise ValueError("q = 0 would make the value rational")
        if d <= 0:
            raise ValueError("d must be a positive integer")
        s, d0 = _squarefree_split(d)
        q *= s
        d = d0
        if d == 1:
            raise ValueError("d must not be a perfect square (value would be rational)")
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        self.p = p // g
        self.q = q // g
        self.d = d
        self.r = r // g

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
        # sign of (p*den - num*r) + q*den*sqrt(d)
        t = Fraction(t)
        a = self.p * t.denominator - t.numerator * self.r
        b = self.q * t.denominator
        if b > 0:
            if a >= 0:
                return 1
            return _sign(b * b * self.d - a * a)
        if a <= 0:
            return -1
        return _sign(a * a - b * b * self.d)

    def __lt__(self, other):
        return self.compare_fraction(Fraction(other)) < 0

    def __gt__(self, other):
        return self.compare_fraction(Fraction(other)) > 0

    def floor(self) -> int:
        # floor((p + xi)/r) = (p + floor(xi)) // r for irrational xi, r > 0
        s = math.isqrt(self.q * self.q * self.d)
        surd_floor = s if self.q > 0 else -s - 1
        return (self.p + surd_floor) // self.r

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

    # arithmetic with exact rationals (results stay irrational)

    def _with_rational(self, t: Fraction, op: str) -> "QuadIrrational":
        t = Fraction(t)
        if op == "add":
            p = self.p * t.denominator + t.numerator * self.r
            return QuadIrrational(p, self.q * t.denominator, self.d,
                                  self.r * t.denominator)
        if op == "mul":
            if t == 0:
                raise ValueError("multiplying by zero gives a rational")
            return QuadIrrational(self.p * t.numerator, self.q * t.numerator,
                                  self.d, self.r * t.denominator)
        raise AssertionError(op)

    def __add__(self, other):
        return self._with_rational(Fraction(other), "add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._with_rational(-Fraction(other), "add")

    def __rsub__(self, other):
        return (-self)._with_rational(Fraction(other), "add")

    def __neg__(self):
        return QuadIrrational(-self.p, -self.q, self.d, self.r)

    def __mul__(self, other):
        return self._with_rational(Fraction(other), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._with_rational(Fraction(1, 1) / Fraction(other), "mul")

    def as_jsonable(self):
        return {"p": self.p, "q": self.q, "d": self.d, "r": self.r}


def sqrt_of(d: int) -> QuadIrrational:
    return QuadIrrational(0, 1, d)


def golden_ratio() -> QuadIrrational:
    """(1 + sqrt(5)) / 2, the fixed point of x -> 1 + 1/x."""
    return QuadIrrational(1, 1, 5, 2)


@dataclass(frozen=True)
class Gl2zMatrix:
    """Integer Moebius map x -> (m1 + n1*x) / (m2 + n2*x), |det| = 1."""

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self):
        if abs(self.det) != 1:
            raise ValueError(f"|m1*n2 - n1*m2| must be 1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m1 * self.n2 - self.n1 * self.m2

    def as_tuple(self):
        return (self.m1, self.n1, self.m2, self.n2)


def mobius_apply(M: Gl2zMatrix, x: QuadIrrational) -> QuadIrrational:
    """(m1 + n1*x) / (m2 + n2*x), exactly, in canonical form."""
    # Numerator and denominator over the common denominator r:
    #   A + B*sqrt(d)  over  C + D*sqrt(d)
    A = M.m1 * x.r + M.n1 * x.p
    B = M.n1 * x.q
    C = M.m2 * x.r + M.n2 * x.p
    D = M.n2 * x.q
    denom = C * C - D * D * x.d
    if denom == 0:
        raise ZeroDivisionError("Moebius denominator vanished (x not irrational?)")
    p = A * C - B * D * x.d
    q = B * C - A * D
    return QuadIrrational(p, q, x.d, denom)


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
        """Yield the first count convergents as Fractions."""
        p0, p1 = 1, self.term(0)
        q0, q1 = 0, 1
        yield Fraction(p1, q1)
        for i in range(1, count):
            a = self.term(i)
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
            yield Fraction(p1, q1)

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
    for length in range(1, n + 1):
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
    if x.q > 0:
        P, Q = x.p, x.r
    else:
        P, Q = -x.p, -x.r
    D = x.q * x.q * x.d
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


def _mat_mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0],
             A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0],
             A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def _prefix_matrix(exp: CfExpansion, length: int):
    """Product of the convergent shift matrices [[a,1],[1,0]] along the
    first `length` terms; x = M(t) where t is the complete quotient."""
    M = ((1, 0), (0, 1))
    for a in exp.terms(length):
        M = _mat_mul(M, ((a, 1), (1, 0)))
    return M


def _mat_inverse_unimodular(M):
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    # det is +-1, so the inverse is det * adjugate
    return ((det * M[1][1], -det * M[0][1]),
            (-det * M[1][0], det * M[0][0]))


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
        Mx = _prefix_matrix(ex, len(ex.preperiod) + shift)
        My = _prefix_matrix(ey, len(ey.preperiod))
        W = _mat_mul(My, _mat_inverse_unimodular(Mx))
        # W acts as t -> (W00 t + W01) / (W10 t + W11)
        witness = Gl2zMatrix(m1=W[0][1], n1=W[0][0], m2=W[1][1], n2=W[1][0])
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


class _Surd:
    """Field element a + b*sqrt(d) with Fraction coefficients (d may be None
    while the value is still rational)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=None):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d if self.b != 0 else None

    def _join(self, other) -> int | None:
        if self.d is not None and other.d is not None and self.d != other.d:
            raise ValueError("mixed sqrt radicands are not supported")
        return self.d if self.d is not None else other.d

    def __add__(self, other):
        return _Surd(self.a + other.a, self.b + other.b, self._join(other))

    def __sub__(self, other):
        return _Surd(self.a - other.a, self.b - other.b, self._join(other))

    def __neg__(self):
        return _Surd(-self.a, -self.b, self.d)

    def __mul__(self, other):
        d = self._join(other)
        dd = d if d is not None else 0
        return _Surd(self.a * other.a + self.b * other.b * dd,
                     self.a * other.b + self.b * other.a, d)

    def __truediv__(self, other):
        d = self._join(other)
        dd = d if d is not None else 0
        norm = other.a * other.a - other.b * other.b * dd
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        conj = _Surd(other.a, -other.b, d)
        num = self * conj
        return _Surd(num.a / norm, num.b / norm, d)


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/()":
            tokens.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in {text!r}")
    return tokens


class _Parser:
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

    def parse_expr(self) -> _Surd:
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

    def parse_term(self) -> _Surd:
        acc = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

    def parse_factor(self) -> _Surd:
        tok = self.peek()
        if isinstance(tok, int):
            self.take()
            return _Surd(tok)
        if tok == "sqrt":
            self.take()
            self.take("(")
            d = self.take()
            if not isinstance(d, int) or d <= 0:
                raise ValueError("sqrt needs a positive integer radicand")
            self.take(")")
            s, d0 = _squarefree_split(d)
            if d0 == 1:
                return _Surd(s)
            return _Surd(0, s, d0)
        if tok == "golden":
            self.take()
            return _Surd(Fraction(1, 2), Fraction(1, 2), 5)
        if tok == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ValueError(f"unexpected token {tok!r}")


def parse_quad_irrational(text: str) -> QuadIrrational:
    """Parse the textual grammar; raises ValueError when the value is
    rational or the input malformed."""
    parser = _Parser(_tokenize(text))
    surd = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at token {parser.peek()!r}")
    if surd.b == 0 or surd.d is None:
        raise ValueError(f"{text!r} denotes a rational number")
    r = math.lcm(surd.a.denominator, surd.b.denominator)
    return QuadIrrational(int(surd.a * r), int(surd.b * r), surd.d, r)
