"""Rotation-number estimation with certified bounds, and explicit
conjugation constructions.

The estimate after N steps is (F^N(x0) - x0)/N mod 1 with error bound 1/N,
justified by the displacement bound |F^N(x) - x - N*rho| <= 1 for liftings
of circle homeomorphisms.  Iteration happens on the reduced angle in [0, 1)
with an exact integer deck count, so accuracy does not degrade as the lift
value grows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .circle import CircleHomeo, circular_distance, frac, merge_sorted
from .errors import (DomainError, HasFixedPointError, PrecisionError,
                     RationalRotationError, OrbitTieWarning)
from .expr import (HomeoExpr, PiecewiseMonotone, _register, compose_all,
                   evaluate, inverse)

TIE_RESOLUTION = 1e-12


@dataclass(frozen=True)
class RotationEstimate:
    """Certified estimate of a rotation number: the exact value lies within
    error_bound of value, modulo 1."""

    value: float
    error_bound: float
    iterations: int
    base_point: float

    def as_jsonable(self) -> dict:
        return {"value": self.value, "error_bound": self.error_bound,
                "iterations": self.iterations, "base_point": self.base_point}


#: Per-step accuracy attainable for reduced angles (a few ulps at |y| <= 2).
_STEP_EPS_FLOOR = 5e-16


def _reduced_orbit(f: CircleHomeo, N: int, x0: float, collect: bool):
    """The orbit pass of `rotation_number`: iterate the normalized lift N
    times on reduced angles, tracking the deck count exactly.  Returns the
    estimate, and the N orbit angles when collect is set.

    The base point is validated here, once; every later angle is a finite
    float in [0, 1), so the loop calls the lift's `_eval` directly.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    step_eps = 1.0 / (10.0 * N * N)
    if step_eps < _STEP_EPS_FLOOR:
        raise PrecisionError(
            f"per-step accuracy {step_eps:.2e} for N={N} is below the "
            f"float64 floor {_STEP_EPS_FLOOR:.0e}")
    # compares int and Fraction base points exactly, without a float
    # conversion that could overflow
    if not -math.inf < x0 < math.inf:
        raise DomainError(f"non-finite base point {x0!r}")
    step = f.lift._eval
    start = frac(x0)
    y = float(start)
    deck = 0
    angles = [start] if collect else None
    for k in range(N):
        z = step(y, step_eps)
        m = math.floor(z)
        y = z - m
        if y >= 1.0:   # guard against floating wrap at the cell edge
            y -= 1.0
            m += 1
        deck += m
        if collect and k < N - 1:
            angles.append(y)
    total = deck + (y - start)
    est = RotationEstimate(value=frac(total / N), error_bound=1.0 / N,
                           iterations=N, base_point=x0)
    return est, angles


def rotation_number(f: CircleHomeo, N: int, x0: float = 0.0) -> RotationEstimate:
    """Estimate the rotation number of f from N iterations at base point x0.

    Iterates with per-step accuracy 1/(10 N^2) so the accumulated evaluation
    error stays below a tenth of the 1/N bound; raises PrecisionError when
    that per-step accuracy is below what float evaluation can deliver, and
    DomainError for a non-finite base point.
    """
    return _reduced_orbit(f, N, x0, collect=False)[0]


def _sorted_unique(values: list[float], what: str) -> list[float]:
    out = merge_sorted(values, TIE_RESOLUTION)
    dropped = len(values) - len(out)
    if dropped:
        warnings.warn(f"merged {dropped} numerically tied {what} points",
                      OrbitTieWarning, stacklevel=3)
    return out


def rational_screen(value: float, bound: float,
                    q_max: int = 1000) -> tuple[int, int] | None:
    """Smallest-denominator rational p/q, q <= q_max, within bound of value
    mod 1, found by walking the Stern-Brocot tree; None when there is none."""
    lo = value - bound
    hi = value + bound
    if lo <= 0.0 or hi >= 1.0:
        return (0, 1)
    a, b = 0, 1
    c, d = 1, 1
    while True:
        p, q = a + c, b + d
        if q > q_max:
            return None
        mid = p / q
        if hi < mid:
            c, d = p, q
        elif lo > mid:
            a, b = p, q
        else:
            return (p, q)


class _ConjugacyNode(HomeoExpr):
    """The (f, phi) data shared by the conjugacy to the unit translation and
    its inverse.  Both evaluate as one chain of f or its inverse and phi (or
    its inverse) under `Compose`'s error enclosure."""

    __slots__ = ("f", "phi", "_f_inv", "_phi", "approximate")
    _phi_inverted = False   # whether the chain ends in phi or its inverse

    def __init__(self, f: HomeoExpr, phi: HomeoExpr):
        self.f = f
        self.phi = phi
        self._f_inv = inverse(f)
        self._phi = inverse(phi) if self._phi_inverted else phi
        self.approximate = (f.approximate or self._f_inv.approximate
                            or self._phi.approximate)

    def children(self):
        return (self.f, self.phi)

    @classmethod
    def _from_payload(cls, payload, children):
        f, phi = children
        return cls(f, phi)


@_register
class TranslationConjugacy(_ConjugacyNode):
    """Conjugation of a fixed-point-free f (with f(0) > 0) to the unit
    translation: on [f^n(0), f^(n+1)(0)) the value is phi(f^{-n}(x)) + n,
    where phi maps [0, f(0)) onto [0, 1).  Evaluated lazily per point."""

    __slots__ = ()
    kind = "translation_conjugacy"
    _walk_cap = 100000

    def _locate(self, x: float, eps: float) -> int:
        """The integer n with f^n(0) <= x < f^(n+1)(0)."""
        if x >= 0.0:
            n = 0
            hi = self.f._eval(0.0, eps)
            while x >= hi:
                hi = self.f._eval(hi, eps)
                n += 1
                if n > self._walk_cap:
                    raise PrecisionError("orbit walk exceeded its budget")
            return n
        n = -1
        lo = self._f_inv._eval(0.0, eps)
        while x < lo:
            lo = self._f_inv._eval(lo, eps)
            n -= 1
            if -n > self._walk_cap:
                raise PrecisionError("orbit walk exceeded its budget")
        return n

    def _eval(self, x, eps):
        n = self._locate(x, eps)
        walker = self._f_inv if n > 0 else self.f
        return compose_all([self._phi] + [walker] * abs(n))._eval(x, eps) + n

    def structural_inverse(self):
        return _TranslationConjugacyInverse(self.f, self.phi)


@_register
class _TranslationConjugacyInverse(_ConjugacyNode):
    """Closed-form inverse of TranslationConjugacy:
    y in [n, n+1) -> f^n(phi^{-1}(y - n))."""

    __slots__ = ()
    kind = "translation_conjugacy_inverse"
    _phi_inverted = True

    def _eval(self, x, eps):
        n = math.floor(x)
        walker = self.f if n > 0 else self._f_inv
        return compose_all([walker] * abs(n) + [self._phi])._eval(x - n, eps)

    def structural_inverse(self):
        return TranslationConjugacy(self.f, self.phi)


def conjugate_to_translation(f: HomeoExpr, phi: HomeoExpr, *,
                             window: float = 8.0, grid: int = 65,
                             tol: float = 1e-9) -> HomeoExpr:
    """Build the conjugation h with h(f(x)) = h(x) + 1 from a fixed-point
    free f with f(0) > 0 and a homeomorphism phi: [0, f(0)) -> [0, 1).

    Raises HasFixedPointError when f(x) - x changes sign on the check grid,
    DomainError when phi fails its endpoint contract.
    """
    f0 = evaluate(f, 0.0, tol)
    if f0 <= 0.0:
        raise DomainError(f"need f(0) > 0, got {f0!r}")
    for j in range(grid):
        x = -window + 2.0 * window * j / (grid - 1)
        if evaluate(f, x, tol) - x <= 0.0:
            raise HasFixedPointError(
                f"f(x) - x is not positive at x = {x!r}")
    lo = evaluate(phi, 0.0, tol)
    hi = evaluate(phi, f0 * (1.0 - 1e-9), tol)
    if abs(lo) > 1e-6 or not 1.0 - 1e-3 <= hi < 1.0 + 1e-9:
        raise DomainError(
            f"phi must map [0, f(0)) onto [0, 1); endpoints gave {lo!r}, {hi!r}")
    return TranslationConjugacy(f, phi)


def approximate_poincare_conjugacy(f: CircleHomeo, N: int, x0: float = 0.0, *,
                                   q_max: int | None = None
                                   ) -> tuple[PiecewiseMonotone, float]:
    """Order-matching conjugacy h_N to the rigid rotation, plus its defect.

    The orbit {f^k(x0)} is matched in circular order to {k*alpha mod 1}
    (alpha the rotation estimate); the returned map interpolates the pairs.
    The defect is max_k of the circular distance between h(f(p_k)) and
    h(p_k) + alpha; it shrinks as N grows when f is minimal.

    Raises RationalRotationError when the estimate is consistent with a
    rational of denominator at most q_max, and DomainError for a non-finite
    base point.  The default q_max scales as
    sqrt(N)/2 (capped at 1000): an error bound of 1/N can only separate the
    estimate from rationals with q below roughly sqrt(N), since every
    irrational sits within 1/N of some p/q with q <= sqrt(N) (Dirichlet).
    """
    if N < 10:
        raise ValueError("N must be at least 10")
    if q_max is None:
        q_max = max(1, min(1000, math.isqrt(N) // 2))
    # One orbit pass gives both the estimate and the orbit to match.
    est, angles = _reduced_orbit(f, N, x0, collect=True)
    hit = rational_screen(est.value, est.error_bound, q_max)
    if hit is not None:
        raise RationalRotationError(hit[0], hit[1])
    alpha = est.value
    targets = []
    t = 0.0
    for _ in range(N):
        targets.append(t)
        t = frac(t + alpha)
    # Pair the two orbits by circular rank: the r-th smallest orbit point is
    # sent to the r-th smallest target point.  When the estimate is exact
    # this coincides with the index pairing f^k(x0) -> k*alpha; rank pairing
    # additionally tolerates the O(1/N) estimate error, which scrambles the
    # index order for k near N.  Ties at resolution 1e-12 are merged in
    # index order with a warning.
    xs = _sorted_unique(angles, "orbit")
    ts = _sorted_unique(targets, "target")
    if len(xs) != len(ts):
        raise ValueError(
            f"degenerate orbit data: {len(xs)} distinct orbit points vs "
            f"{len(ts)} distinct targets")
    conj = PiecewiseMonotone(xs, ts, "linear", "periodic")
    defect = 0.0
    for k in range(len(xs)):
        image = f(xs[k])
        defect = max(defect, circular_distance(
            frac(evaluate(conj, image)), frac(evaluate(conj, xs[k]) + alpha)))
    return conj, defect
