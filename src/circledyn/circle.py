"""Circle homeomorphisms represented by normalized liftings.

A lifting is a line homeomorphism commuting with the unit translation; the
normalized lifting is the one whose value at 0 lies in [0, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotALiftError
from .expr import (Compose, HomeoExpr, Identity, Inverse, PiecewiseMonotone,
                   Translate, evaluate, inverse, power)

DEFAULT_GRID = 64
DEFAULT_TOL = 1e-9
DEFAULT_EVAL_EPS = 1e-12


def frac(x: float) -> float:
    """Fractional part in [0, 1)."""
    return x - math.floor(x)


def merge_sorted(values, resolution: float) -> list[float]:
    """The values in increasing order, each dropped when it lies less than
    resolution above the last value kept."""
    out: list[float] = []
    for v in sorted(values):
        if out and v - out[-1] < resolution:
            continue
        out.append(v)
    return out


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on R/Z."""
    d = frac(a - b)
    return min(d, 1.0 - d)


def commutation_defect(F: HomeoExpr, grid: int = DEFAULT_GRID,
                       eps: float = DEFAULT_EVAL_EPS) -> float:
    """max |F(x+1) - F(x) - 1| over an equispaced grid in [0, 1)."""
    worst = 0.0
    for j in range(grid):
        x = j / grid
        worst = max(worst, abs(evaluate(F, x + 1.0, eps) - evaluate(F, x, eps) - 1.0))
    return worst


def monotonicity_defect(F: HomeoExpr, grid: int = DEFAULT_GRID,
                        eps: float = DEFAULT_EVAL_EPS) -> float:
    """Largest decrease between consecutive grid evaluations on [0, 1]."""
    worst = 0.0
    prev = evaluate(F, 0.0, eps)
    for j in range(1, grid + 1):
        cur = evaluate(F, j / grid, eps)
        worst = max(worst, prev - cur)
        prev = cur
    return worst


def exact_translation_offset(F: HomeoExpr):
    """F(x) - x as an exact Fraction when F is a pure translation tree built
    from int/Fraction amounts; None otherwise."""
    if isinstance(F, Identity):
        return Fraction(0)
    if isinstance(F, Translate):
        if isinstance(F.amount, (int, Fraction)):
            return Fraction(F.amount)
        return None
    if isinstance(F, Compose):
        offsets = [exact_translation_offset(h) for h in F.members]
        return None if None in offsets else sum(offsets)
    if isinstance(F, Inverse):
        t = exact_translation_offset(F.inner)
        return None if t is None else -t
    return None


def normalize_lift(F: HomeoExpr, *, grid: int = DEFAULT_GRID,
                   tol: float = DEFAULT_TOL,
                   eps: float = DEFAULT_EVAL_EPS) -> tuple[HomeoExpr, int]:
    """Split F = Translate(n) . F0 with F0(0) in [0, 1) and n = floor(F(0)).

    Raises NotALiftError if F fails the unit-translation commutation check.
    """
    defect = commutation_defect(F, grid, eps)
    if defect > tol:
        raise NotALiftError(
            f"commutation defect {defect:.3e} exceeds tolerance {tol:.1e}")
    offset = exact_translation_offset(F)
    if offset is not None:
        n = math.floor(offset)
        reduced = offset - n
        return Translate(reduced), int(n)
    value0 = evaluate(F, 0.0, eps)
    n = math.floor(value0)
    if n == 0:
        return F, 0
    return Compose(Translate(-n), F), n


class CircleHomeo:
    """Orientation-preserving circle homeomorphism stored as its normalized
    lifting (value at 0 in [0, 1))."""

    __slots__ = ("lift",)

    def __init__(self, lift: HomeoExpr, *, grid: int = DEFAULT_GRID,
                 tol: float = DEFAULT_TOL, _normalized: bool = False):
        if not _normalized:
            lift, _ = normalize_lift(lift, grid=grid, tol=tol)
        self.lift = lift

    def __call__(self, angle: float, eps: float = DEFAULT_EVAL_EPS) -> float:
        return frac(evaluate(self.lift, frac(angle), eps))

    def lift_value(self, x: float, eps: float = DEFAULT_EVAL_EPS) -> float:
        return evaluate(self.lift, x, eps)

    def compose(self, other: "CircleHomeo") -> "CircleHomeo":
        return CircleHomeo(Compose(self.lift, other.lift))

    def inverse(self) -> "CircleHomeo":
        return CircleHomeo(inverse(self.lift))

    def power(self, m: int) -> "CircleHomeo":
        return CircleHomeo(power(self.lift, m))

    def __repr__(self):
        return f"CircleHomeo({self.lift!r})"


def project(F: HomeoExpr, *, grid: int = DEFAULT_GRID,
            tol: float = DEFAULT_TOL) -> CircleHomeo:
    """Declare F a lifting and return the induced circle homeomorphism.

    Checks strict monotonicity on a grid and the commutation property;
    raises NotALiftError on failure.
    """
    if monotonicity_defect(F, grid) > 0.0:
        raise NotALiftError("expression is not increasing on the check grid")
    return CircleHomeo(F, grid=grid, tol=tol)


def rotation(angle) -> CircleHomeo:
    """The rigid rotation by the given angle (int/Fraction amounts stay exact)."""
    return CircleHomeo(Translate(angle))


def identity_circle() -> CircleHomeo:
    return CircleHomeo(Identity(), _normalized=True)


def sine_lift(offset, amplitude: float, knots: int = 256) -> PiecewiseMonotone:
    """Periodic monotone-cubic interpolant of x + offset + amplitude*sin(2 pi x).

    The standard sine-perturbed rotation family; needs |amplitude| < 1/(2 pi)
    so the sampled data is strictly increasing.
    """
    offset = float(offset)
    xs = [j / knots for j in range(knots)]
    ys = [x + offset + amplitude * math.sin(2.0 * math.pi * x) for x in xs]
    return PiecewiseMonotone(xs, ys, "cubic", "periodic")
