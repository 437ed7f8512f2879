"""Rotation-number estimation with certified bounds, and explicit
conjugation constructions.

The estimate after N steps is (F^N(x0) - x0)/N mod 1 with error bound 1/N,
justified by the displacement bound |F^N(x) - x - N*rho| <= 1 for liftings
of circle homeomorphisms.  Iteration happens on the reduced angle in [0, 1)
with an exact integer deck count, so accuracy does not degrade as the lift
value grows.

Conjugate maps share their rotation number, and the identity behind it,
(psi o G o psi^-1)^N = psi o G^N o psi^-1, is exact: `rotation_number`
iterates a closed-form conjugate lift T_s o psi o G o psi^-1 through G
alone, with psi^-1 and psi evaluated once each (`_conjugate_split`).
`approximate_poincare_conjugacy` iterates its map whole, since it matches
the map's own orbit, and for a closed-form lift reads its defect off that
orbit.
"""

from __future__ import annotations

import math
import warnings

from ._record import Record
from .circle import (CircleHomeo, circular_distance,
                     exact_translation_offset, frac, merge_sorted)
from .errors import (DomainError, HasFixedPointError, PrecisionError,
                     RationalRotationError, OrbitTieWarning)
from .expr import (DEFAULT_EPS, CellHat, Compose, HomeoExpr, Identity,
                   PiecewiseMonotone, Translate, _register, compose_all,
                   evaluate, inverse)

TIE_RESOLUTION = 1e-12
#: conjugate_to_translation checks f(x) > x at DISPLACEMENT_GRID equispaced
#: points of [-DISPLACEMENT_WINDOW, DISPLACEMENT_WINDOW], evaluating at CHECK_EPS
DISPLACEMENT_GRID = 65
DISPLACEMENT_WINDOW = 8.0
CHECK_EPS = 1e-9


class RotationEstimate(Record):
    """Certified estimate of a rotation number: the exact value lies within
    error_bound of value, modulo 1."""

    __slots__ = ("value", "error_bound", "iterations", "base_point")

    def as_jsonable(self) -> dict:
        return {"value": self.value, "error_bound": self.error_bound,
                "iterations": self.iterations, "base_point": self.base_point}


#: Per-step accuracy attainable for reduced angles (a few ulps at |y| <= 2).
_STEP_EPS_FLOOR = 5e-16


def _commutes_with_unit(h: HomeoExpr) -> bool:
    """Whether h commutes with the unit translation by construction.
    (Compose members are never Compose nodes: they flatten on construction.)"""
    if isinstance(h, PiecewiseMonotone):
        return h.extension == "periodic"
    return isinstance(h, (Translate, CellHat, Identity))


def _conjugate_split(lift: HomeoExpr):
    """Write a closed-form `Compose` lift as T_s o psi o G o psi^-1, and
    return (s, psi, G, psi^-1).

    s is the sum of the members at either end of the chain whose exact
    translation offset is an integer (`normalize_lift` puts its shift in
    front, `CircleHomeo.inverse` can leave one at the back, and an
    `Identity` counts as 0), and psi the longest prefix of the remaining
    members m_1..m_k with inverse(m_i) == m_(k+1-i), every member of psi
    commuting with the unit translation and at least one member left for G.
    Then psi commutes with every integer translation, and so does G because
    the lift does, so F^N = T_(sN) o psi o G^N o psi^-1 exactly.  Any other
    lift, an approximate one included, gets the identity split
    (0, None, lift, None).
    """
    identity = (0, None, lift, None)
    if not isinstance(lift, Compose) or lift.approximate:
        return identity
    rest = list(lift.members)
    s = 0
    for end in (0, -1):
        while rest:
            offset = exact_translation_offset(rest[end])
            if offset is None or offset.denominator != 1:
                break
            s += int(offset)
            rest.pop(end)
    k = len(rest)
    p = 0
    while (2 * p + 2 < k and _commutes_with_unit(rest[p])
           and inverse(rest[p]) == rest[k - 1 - p]):
        p += 1
    if p == 0:
        return identity
    return (s, compose_all(rest[:p]), compose_all(rest[p:k - p]),
            compose_all(rest[k - p:]))


def _reduced_orbit(f: CircleHomeo, N: int, x0: float, collect: bool):
    """The orbit pass of `rotation_number`: iterate the normalized lift N
    times on reduced angles, tracking the deck count exactly.  Returns the
    estimate, and when collect is set the N + 1 orbit angles, the last of
    them the final angle.

    The base point is validated here, once; every later angle is a finite
    float in [0, 1), so the loop calls `_eval` directly.

    Without collect the lift F is iterated through `_conjugate_split`,
    F = T_s o psi o G o psi^-1: psi^-1 once on the reduced base point, G on
    every step, s added to the deck count for each of the N steps, and psi
    once on the last angle, since psi commutes with the unit translation.
    Collected angles are F's own orbit, so collect keeps the identity split,
    which is the loop on F itself.  A closed-form F then runs at accuracy
    min(1/(10 N^2), DEFAULT_EPS): its values do not depend on eps, and every
    eps check of evaluating F at DEFAULT_EPS is made on each angle.
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
    if collect and not f.lift.approximate:
        step_eps = min(step_eps, DEFAULT_EPS)
    s, psi, g, psi_inv = ((0, None, f.lift, None) if collect
                          else _conjugate_split(f.lift))
    step = g._eval
    start = frac(x0)
    y = float(start)
    if psi_inv is not None:
        # G is a lift, so its orbit may start outside [0, 1)
        y = psi_inv._eval(y, step_eps)
    deck = s * N
    angles = [start] if collect else None
    for k in range(N):
        z = step(y, step_eps)
        m = math.floor(z)
        y = z - m
        if y >= 1.0:   # guard against floating wrap at the cell edge
            y -= 1.0
            m += 1
        deck += m
        if collect:
            angles.append(y)
    end = y if psi is None else psi._eval(y, step_eps)
    total = deck + (end - start)
    est = RotationEstimate(value=frac(total / N), error_bound=1.0 / N,
                           iterations=N, base_point=x0)
    return est, angles


def rotation_number(f: CircleHomeo, N: int, x0: float = 0.0) -> RotationEstimate:
    """Estimate the rotation number of f from N iterations at base point x0.

    Iterates with per-step accuracy 1/(10 N^2) so the accumulated evaluation
    error stays below a tenth of the 1/N bound; raises PrecisionError when
    that per-step accuracy is below what float evaluation can deliver, and
    DomainError for a non-finite base point.

    A closed-form conjugate lift T_s o psi o G o psi^-1 (see
    `_conjugate_split`) is iterated through G alone, since
    (psi o G o psi^-1)^N = psi o G^N o psi^-1: psi^-1 and psi are evaluated
    once each, at the same per-step accuracy, and the bound stays 1/N.  Any
    other lift, approximate chains included (their `Compose` enclosure is
    what certifies each step of F), is iterated whole.
    `approximate_poincare_conjugacy` always iterates f whole, because it
    matches f's own orbit.
    """
    return _reduced_orbit(f, N, x0, collect=False)[0]


def _orbit_knots(angles: list[float], N: int):
    """The first N orbit angles merged as `merge_sorted` merges them at
    TIE_RESOLUTION, and the image of each angle kept: the orbit's next
    angle."""
    xs, images = [], []
    for j in sorted(range(N), key=angles.__getitem__):
        x = angles[j]
        if xs and x - xs[-1] < TIE_RESOLUTION:
            continue
        xs.append(x)
        images.append(angles[j + 1])
    return xs, images


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


@_register
class TranslationConjugacy(_ConjugacyNode):
    """Conjugation of a fixed-point-free f (with f(0) > 0) to the unit
    translation: on [f^n(0), f^(n+1)(0)) the value is phi(f^{-n}(x)) + n,
    where phi maps [0, f(0)) onto [0, 1).  Evaluated lazily per point."""

    __slots__ = ()
    kind = "translation_conjugacy"
    _walk_cap = 100000

    def _locate(self, x: float, eps: float) -> int:
        """The integer n with f^n(0) <= x < f^(n+1)(0), walked from 0."""
        forward = x >= 0.0
        step = self.f if forward else self._f_inv
        n = 0 if forward else -1
        edge = step._eval(0.0, eps)
        while (x >= edge) == forward:
            edge = step._eval(edge, eps)
            n += 1 if forward else -1
            if abs(n) > self._walk_cap:
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


def conjugate_to_translation(f: HomeoExpr, phi: HomeoExpr) -> HomeoExpr:
    """Build the conjugation h with h(f(x)) = h(x) + 1 from a fixed-point
    free f with f(0) > 0 and a homeomorphism phi: [0, f(0)) -> [0, 1).

    Raises HasFixedPointError when f(x) - x is not positive on the check
    grid, DomainError when phi fails its endpoint contract.
    """
    f0 = evaluate(f, 0.0, CHECK_EPS)
    if f0 <= 0.0:
        raise DomainError(f"need f(0) > 0, got {f0!r}")
    for j in range(DISPLACEMENT_GRID):
        x = (-DISPLACEMENT_WINDOW
             + 2.0 * DISPLACEMENT_WINDOW * j / (DISPLACEMENT_GRID - 1))
        if evaluate(f, x, CHECK_EPS) - x <= 0.0:
            raise HasFixedPointError(
                f"f(x) - x is not positive at x = {x!r}")
    lo = evaluate(phi, 0.0, CHECK_EPS)
    hi = evaluate(phi, f0 * (1.0 - 1e-9), CHECK_EPS)
    if abs(lo) > 1e-6 or not 1.0 - 1e-3 <= hi < 1.0 + 1e-9:
        raise DomainError(
            f"phi must map [0, f(0)) onto [0, 1); endpoints gave {lo!r}, {hi!r}")
    return TranslationConjugacy(f, phi)


def approximate_poincare_conjugacy(f: CircleHomeo, N: int, x0: float = 0.0
                                   ) -> tuple[PiecewiseMonotone, float]:
    """Order-matching conjugacy h_N to the rigid rotation, plus its defect.

    The orbit {f^k(x0)} is matched in circular order to {k*alpha mod 1}
    (alpha the rotation estimate); the returned map interpolates the pairs.
    The defect is max_k of the circular distance between h(f(p_k)) and
    h(p_k) + alpha; it shrinks as N grows when f is minimal.  h(p_k) is the
    target matched to the knot p_k, and for a closed-form lift f(p_k) is the
    orbit's next angle, computed as f(p_k) would compute it; a lift with an
    approximate member is evaluated at each p_k again.

    Raises RationalRotationError when the estimate is consistent with a
    rational of denominator at most sqrt(N)/2 (capped at 1000), and
    DomainError for a non-finite base point.  The denominator bound scales
    so: an error bound of 1/N can only separate the estimate from rationals
    with q below roughly sqrt(N), since every irrational sits within 1/N of
    some p/q with q <= sqrt(N) (Dirichlet).
    """
    if N < 10:
        raise ValueError("N must be at least 10")
    q_max = max(1, min(1000, math.isqrt(N) // 2))
    # One orbit pass gives both the estimate and the orbit to match.
    est, angles = _reduced_orbit(f, N, x0, collect=True)
    hit = rational_screen(est.value, est.error_bound, q_max)
    if hit is not None:
        raise RationalRotationError(hit[0], hit[1])
    alpha = est.value
    # Pair the two orbits by circular rank: the r-th smallest orbit point is
    # sent to the r-th smallest target point.  When the estimate is exact
    # this coincides with the index pairing f^k(x0) -> k*alpha; rank pairing
    # additionally tolerates the O(1/N) estimate error, which scrambles the
    # index order for k near N.  Ties at resolution 1e-12 are merged in
    # index order with a warning.
    xs, images = _orbit_knots(angles, N)
    del angles      # what the table needs lives on in xs and images
    targets = []
    t = 0.0
    for _ in range(N):
        targets.append(t)
        t = frac(t + alpha)
    ts = merge_sorted(targets, TIE_RESOLUTION)
    for what, kept in (("orbit", xs), ("target", ts)):
        if len(kept) < N:
            warnings.warn(f"merged {N - len(kept)} numerically tied {what} "
                          "points", OrbitTieWarning, stacklevel=2)
    if len(xs) != len(ts):
        raise ValueError(
            f"degenerate orbit data: {len(xs)} distinct orbit points vs "
            f"{len(ts)} distinct targets")
    conj = PiecewiseMonotone(xs, ts, "linear", "periodic")
    if f.lift.approximate:
        images = [f(x) for x in xs]
    defect = 0.0
    for image, t in zip(images, ts):
        defect = max(defect, circular_distance(
            frac(conj._eval(image, DEFAULT_EPS)), frac(t + alpha)))
    return conj, defect
