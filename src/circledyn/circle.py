"""Circle homeomorphisms represented by normalized liftings.

A lifting is a line homeomorphism commuting with the unit translation; the
normalized lifting is the one whose value at 0 lies in [0, 1).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .errors import DomainError, NotALiftError
from .expr import (DEFAULT_EPS, Compose, HomeoExpr, Identity,
                   PiecewiseMonotone, Translate, evaluate, inverse, power)

CHECK_GRID = 64
CHECK_TOL = 1e-9


def frac(x: float) -> float:
    """Fractional part in [0, 1), never -0.0.  A tiny negative x, whose
    difference x - floor(x) rounds to 1.0, gives 0.0, the nearest angle.
    Raises DomainError for an infinite or NaN x."""
    try:
        f = x - math.floor(x)
    except (OverflowError, ValueError):
        raise DomainError(f"non-finite angle {x!r}") from None
    return 0.0 if f == 1.0 else f + 0.0


def merge_sorted(values, resolution: float) -> list[float]:
    """The values in increasing order, each dropped when it lies less than
    resolution above the last value kept.  Values that come in increasing
    order sort in linear time."""
    ordered = sorted(values)
    if not ordered:
        return ordered
    last = ordered[0]
    out = [last]
    for v in itertools.islice(ordered, 1, None):
        if v - last < resolution:
            continue
        out.append(v)
        last = v
    return out


def merge_circular(angles, resolution: float) -> list[float]:
    """merge_sorted on R/Z: the largest angle kept is also dropped when it
    lies less than resolution below the smallest one, across 0."""
    out = merge_sorted(angles, resolution)
    if len(out) > 1 and (1.0 - out[-1]) + out[0] < resolution:
        out.pop()
    return out


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on R/Z."""
    d = frac(a - b)
    return min(d, 1.0 - d)


def _lift_defects(F: HomeoExpr) -> tuple[float, float, float]:
    """One pass over the check grid x_j = j/CHECK_GRID, j = 0..CHECK_GRID-1:
    the largest decrease along F(x_0), ..., F(x_63), F(1), the largest
    |F(x_j + 1) - F(x_j) - 1|, and F(0).

    Raises NotALiftError when a grid value is not finite, since the
    defects' max would skip a NaN."""
    xs = [j / CHECK_GRID for j in range(CHECK_GRID)]
    below = [evaluate(F, x, DEFAULT_EPS) for x in xs]
    above = [evaluate(F, x + 1.0, DEFAULT_EPS) for x in xs]
    if not all(map(math.isfinite, below + above)):
        raise NotALiftError("expression is not finite on the check grid")
    path = below + above[:1]
    drops = [prev - cur for prev, cur in zip(path, path[1:])]
    defects = [abs(hi - lo - 1.0) for lo, hi in zip(below, above)]
    return max(0.0, *drops), max(0.0, *defects), below[0]


def commutation_defect(F: HomeoExpr) -> float:
    """max |F(x+1) - F(x) - 1| over the check grid in [0, 1)."""
    return _lift_defects(F)[1]


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
    return None


def normalize_lift(F: HomeoExpr) -> tuple[HomeoExpr, int]:
    """Split F = Translate(n) . F0 with F0(0) in [0, 1) and n = floor(F(0)).

    A tree of Identity, int/Fraction Translates and Composes of them is
    exactly x -> x + offset, a lifting, and is decided first, without
    evaluation: F0 is the translation by the offset's fractional part.
    Every other F meets the package's one lift check: raises NotALiftError
    when F is not finite on the check grid, otherwise when F decreases
    there, and otherwise when its commutation defect exceeds CHECK_TOL.
    """
    offset = exact_translation_offset(F)
    if offset is not None:
        n = math.floor(offset)
        return Translate(offset - n), n
    drop, defect, value0 = _lift_defects(F)
    if drop > 0.0:
        raise NotALiftError("expression is not increasing on the check grid")
    if defect > CHECK_TOL:
        raise NotALiftError(
            f"commutation defect {defect:.3e} exceeds tolerance {CHECK_TOL:.1e}")
    n = math.floor(value0)
    if n == 0:
        return F, 0
    return Compose(Translate(-n), F), n


class CircleHomeo(Record):
    """Orientation-preserving circle homeomorphism stored as its normalized
    lifting (value at 0 in [0, 1)), checked by normalize_lift."""

    __slots__ = ("lift",)

    def __init__(self, lift: HomeoExpr):
        object.__setattr__(self, "lift", normalize_lift(lift)[0])

    def __call__(self, angle: float, eps: float = DEFAULT_EPS) -> float:
        return frac(evaluate(self.lift, frac(angle), eps))

    def compose(self, other: "CircleHomeo") -> "CircleHomeo":
        return CircleHomeo(Compose(self.lift, other.lift))

    def inverse(self) -> "CircleHomeo":
        return CircleHomeo(inverse(self.lift))

    def power(self, m: int) -> "CircleHomeo":
        return CircleHomeo(power(self.lift, m))


def project(F: HomeoExpr) -> CircleHomeo:
    """Declare F a lifting and return the induced circle homeomorphism,
    CircleHomeo(F); raises NotALiftError when F fails normalize_lift."""
    return CircleHomeo(F)


def rotation(angle) -> CircleHomeo:
    """The rigid rotation by the given angle.  An int/Fraction angle, of any
    size, stays exact and normalizes exactly, without evaluation."""
    return CircleHomeo(Translate(angle))


def sine_lift(offset, amplitude: float, knots: int = 256) -> PiecewiseMonotone:
    """Periodic monotone-cubic interpolant of x + offset + amplitude*sin(2 pi x).

    The standard sine-perturbed rotation family; needs |amplitude| < 1/(2 pi)
    so the sampled data is strictly increasing.
    """
    offset = float(offset)
    xs = [j / knots for j in range(knots)]
    ys = [x + offset + amplitude * math.sin(2.0 * math.pi * x) for x in xs]
    return PiecewiseMonotone(xs, ys, "cubic", "periodic")
