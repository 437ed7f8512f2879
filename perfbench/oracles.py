"""Output checks that do not reuse the code path under test.

The line actions are evaluated from their closed form: level 2 is
x -> x + v1 + v2*alpha, and each further level transplants the previous
one into the unit cells through the chart hbar(x) = atan(x)/pi + 1/2.
Circle-action words are evaluated by applying the generator lifts one at a
time, not through `word_to_homeo`, `power` and `compose_all`.
"""

from __future__ import annotations

import bisect
import itertools
import math

from common import Mismatch

#: closed-form and tree evaluation of the same point agree to this
POINT_TOL = 1e-9


def alpha_float(x) -> float:
    """(p + q*sqrt(d)) / r of a QuadIrrational, from its fields."""
    return (x.p + x.q * math.sqrt(x.d)) / x.r


def cdist(a: float, b: float) -> float:
    """Distance on R/Z."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def word_ball(rank: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


def line_word(alpha: float, v, x: float) -> float:
    """The word v of the line action of rank len(v) >= 2, at x."""
    if len(v) == 2:
        return x + v[0] + v[1] * alpha
    i = math.floor(x)
    t = x - i
    if t == 0.0:
        return x + v[0]
    u = math.tan(math.pi * (t - 0.5))
    w = line_word(alpha, v[1:], u)
    return v[0] + i + math.atan(w) / math.pi + 0.5


def circle_word(cd, action, v, x: float) -> float:
    """The lift of the word v of a circle action at x, one generator
    application at a time."""
    for gen, e in zip(reversed(action.generators), reversed(v)):
        step = gen.lift if e > 0 else cd.inverse(gen.lift)
        for _ in range(abs(e)):
            x = cd.evaluate(step, x)
    return x


def word_value(cd, action, alpha: float, v, x: float) -> float:
    if action.space == "circle":
        return circle_word(cd, action, v, x)
    return line_word(alpha, v, x)


def orbit_points(cd, action, alpha: float, x0: float, radius: int) -> list:
    rank = len(action.generators)
    pts = [word_value(cd, action, alpha, v, x0)
           for v in word_ball(rank, radius)]
    if action.space == "circle":
        pts = [p - math.floor(p) for p in pts]
    return sorted(pts)


def _near(sorted_pts: list, y: float, circular: bool) -> bool:
    for target in ((y, y - 1.0, y + 1.0) if circular else (y,)):
        j = bisect.bisect_left(sorted_pts, target - POINT_TOL)
        if j < len(sorted_pts) and sorted_pts[j] <= target + POINT_TOL:
            return True
    return False


def same_point_set(got, expected: list, circular: bool, what: str):
    """Every point of each set lies within POINT_TOL of the other set."""
    got = sorted(got)
    for y in got:
        if not _near(expected, y, circular):
            raise Mismatch(f"{what}: point {y!r} is not in the orbit")
    for y in expected:
        if not _near(got, y, circular):
            raise Mismatch(f"{what}: orbit point {y!r} is missing")


def coverage(points, eps: float, window) -> float:
    a, b = window
    bins = max(1, math.ceil((b - a) / eps))
    hit = {min(int((y - a) / eps), bins - 1) for y in points if a <= y < b}
    return len(hit) / bins


def wandering_violation(cd, action, alpha: float, interval, radius: int,
                        tol: float = 1e-9):
    """The first word that moves the interval onto itself without fixing it
    pointwise, or None: the probe's predicate, evaluated independently."""
    a, b = interval
    rank = len(action.generators)
    for v in word_ball(rank, radius):
        if not any(v):
            continue
        ga = word_value(cd, action, alpha, v, a)
        gb = word_value(cd, action, alpha, v, b)
        if not (ga < b and gb > a):
            continue
        if all(abs(word_value(cd, action, alpha, v, x) - x) <= tol
               for x in (a + (b - a) * (j + 0.5) / 17 for j in range(17))):
            continue
        return v
    return None


def check_certificate(cd, action, alpha: float, interval, cert: dict,
                      tol: float = 1e-9):
    """A REFUTES certificate: the word's image of the interval, evaluated at
    1e-13 through the library and again independently, overlaps the
    interval, and the word does not fix it pointwise."""
    a, b = interval
    word = tuple(cert["word"])
    g = cd.word_to_homeo(action, word)
    ga, gb = cd.evaluate(g, a, 1e-13), cd.evaluate(g, b, 1e-13)
    ia = word_value(cd, action, alpha, word, a)
    ib = word_value(cd, action, alpha, word, b)
    if abs(ga - ia) > POINT_TOL or abs(gb - ib) > POINT_TOL:
        raise Mismatch(f"certificate word {word} evaluates inconsistently")
    if abs(cert["image"][0] - ia) > POINT_TOL or abs(cert["image"][1] - ib) > POINT_TOL:
        raise Mismatch(f"certificate image {cert['image']} != [{ia!r}, {ib!r}]")
    if not (ia < b and ib > a):
        raise Mismatch(f"certificate word {word} does not overlap the interval")
    if all(abs(word_value(cd, action, alpha, word, x) - x) <= tol
           for x in (a + (b - a) * (j + 0.5) / 17 for j in range(17))):
        raise Mismatch(f"certificate word {word} fixes the interval")


def rho_sine(t: float, amp: float, n: int) -> float:
    """Rotation number estimate of x + t + amp*sin(2 pi x) from n steps of
    the analytic map (the library iterates its 256-knot interpolant)."""
    y = 0.0
    deck = 0
    two_pi = 2.0 * math.pi
    for _ in range(n):
        z = y + t + amp * math.sin(two_pi * y)
        m = math.floor(z)
        y = z - m
        deck += m
    return ((deck + y) / n) % 1.0


def cocycle_expected(cd, f1, f2) -> int:
    """c(f1, f2) = floor(F1(F2(0))) for the normalized lifts F1, F2, since
    sigma(f1 f2)(0) lies in [0, 1).  A value within 1e-9 below an integer
    is that integer."""
    y = cd.evaluate(f1.lift, cd.evaluate(f2.lift, 0.0, 1e-13), 1e-13)
    return math.floor(y + 1e-9)


def expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)
