"""Numerical probes for the dynamical predicates being classified:
transitivity, wandering intervals, fixed points.

Verdict semantics are asymmetric on purpose: density can never be refuted
from a finite word ball, so transitivity probes only ever SUPPORT or stay
INCONCLUSIVE, while wandering violations and fixed points are certified
(REFUTES always carries a re-verified witness).
"""

from __future__ import annotations

import enum
import math
import warnings
from array import array
from dataclasses import dataclass, field

from .circle import CircleHomeo, DEFAULT_EVAL_EPS, frac
from .errors import NonIsolatedFixedPointsWarning
from .expr import HomeoExpr, Identity, evaluate, inverse
from .groups import (check_word_budget, word_ball, word_of, word_shells,
                     word_to_homeo)

DEDUP_RESOLUTION = 1e-12

#: `word_ball` under its former name here, which the traced wordball
#: benchmark run reads
_word_ball = word_ball


def _steps(action) -> list[tuple[HomeoExpr, HomeoExpr]]:
    """(g_i, g_i^-1) for each generator, on the lifts for circle actions:
    the moves of `word_shells`."""
    steps = []
    for g in action.generators:
        h = g.lift if isinstance(g, CircleHomeo) else g
        steps.append((h, inverse(h)))
    return steps


def _word_values(action, x0: float, radius: int) -> array:
    """g_v(x0) for every word v of the sup-norm ball, indexed by its
    `word_shells` code.

    The generators commute, so g_v is g_u followed by one generator step
    per coordinate of v at the shell's norm, where u is v's neighbour in
    the previous shell: every word costs one step evaluation (usually),
    not a tree of |v| nodes.  Each step is evaluated at DEFAULT_EVAL_EPS.
    """
    rank = len(action.generators)
    size = check_word_budget(rank, radius)
    eps = DEFAULT_EVAL_EPS
    # the zero word's value in every slot; evaluate rejects a non-finite x0
    values = array("d", [evaluate(Identity(), x0, eps)]) * size
    for codes, preds, moves in word_shells(rank, radius, _steps(action)):
        for code, pred, move in zip(codes, preds, moves):
            y = values[pred]
            for h in move:
                y = evaluate(h, y, eps)
            values[code] = y
    return values


class ProbeVerdict(enum.Enum):
    SUPPORTS = "SUPPORTS"
    REFUTES = "REFUTES"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class OrbitSample:
    """Deduplicated orbit points of a base point under a word ball."""

    points: tuple[float, ...]
    radius: int
    base_point: float

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class ProbeReport:
    verdict: ProbeVerdict
    coverage: float
    parameters: dict = field(default_factory=dict)
    certificate: dict | None = None

    def as_jsonable(self) -> dict:
        doc = {"verdict": self.verdict.value, "coverage": self.coverage,
               "parameters": self.parameters}
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc


def _is_circle(action) -> bool:
    return getattr(action, "space", "line") == "circle"


def orbit(action, x0: float, radius: int) -> OrbitSample:
    """Evaluate every word in the sup-norm ball at x0.

    Line actions return points on R; circle actions return angles in [0, 1).
    Points are deduplicated at resolution 1e-12 (the smallest point
    represents its cell) and sorted.
    """
    values = _word_values(action, x0, radius)
    points = []
    cell = None
    for y in sorted(map(frac, values) if _is_circle(action) else values):
        key = round(y / DEDUP_RESOLUTION)
        if key != cell:
            points.append(y)
            cell = key
    return OrbitSample(points=tuple(points), radius=radius, base_point=x0)


def transitivity_probe(action, x0: float, eps: float, radius: int,
                       window: tuple[float, float] = (0.0, 1.0)) -> ProbeReport:
    """Coverage of the window by eps-bins hit by the orbit sample.

    SUPPORTS when every bin is hit; otherwise INCONCLUSIVE (density is
    never refutable at a finite radius).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ValueError("window must be a nonempty interval")
    sample = orbit(action, x0, radius)
    bins = max(1, math.ceil((b - a) / eps))
    hit = [False] * bins
    for y in sample.points:
        if a <= y < b:
            idx = min(int((y - a) / eps), bins - 1)
            hit[idx] = True
    coverage = sum(hit) / bins
    verdict = ProbeVerdict.SUPPORTS if coverage == 1.0 else ProbeVerdict.INCONCLUSIVE
    return ProbeReport(verdict=verdict, coverage=coverage,
                       parameters={"eps": eps, "radius": radius,
                                   "window": [a, b], "orbit_size": len(sample)})


def _identity_on_interval(g: HomeoExpr, a: float, b: float, tol: float,
                          eps: float, samples: int = 17) -> bool:
    for j in range(samples):
        x = a + (b - a) * (j + 0.5) / samples
        if abs(evaluate(g, x, eps) - x) > tol:
            return False
    return True


def wandering_probe(action, interval: tuple[float, float], radius: int,
                    tol: float = 1e-9) -> ProbeReport:
    """Check the wandering-interval property over a word ball.

    Every word must either fix the interval pointwise (within tol) or move
    it entirely off itself; interval images are computed from the endpoints,
    which is valid because all maps are monotone.  REFUTES carries the
    violating word, re-verified at 10x tighter evaluation accuracy.

    Words are screened as in `_word_values`, one step from their
    neighbour, on a lower bound of g(a) and an upper bound of g(b) that
    each step widens by the evaluation eps (the maps are increasing, so
    the bounds hold for the exact images).  A word whose bounds lie eps
    clear of the interval could not overlap it under direct evaluation
    either; only the other words are evaluated directly from their trees.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    rank = len(action.generators)
    size = check_word_budget(rank, radius)
    eps = DEFAULT_EVAL_EPS
    a_lo = array("d", [a]) * size
    b_hi = array("d", [b]) * size
    checked = 0
    for codes, preds, moves in word_shells(rank, radius, _steps(action)):
        for code, pred, move in zip(codes, preds, moves):
            checked += 1
            if not move:
                continue    # the zero word
            lo, hi = a_lo[pred], b_hi[pred]
            for h in move:
                lo = evaluate(h, lo, eps) - eps
                hi = evaluate(h, hi, eps) + eps
            a_lo[code], b_hi[code] = lo, hi
            if lo - eps >= b or hi + eps <= a:
                continue
            v = word_of(code, rank, radius)
            g = word_to_homeo(action, v)
            ga = evaluate(g, a, eps)
            gb = evaluate(g, b, eps)
            overlaps = ga < b and gb > a
            if not overlaps:
                continue
            if _identity_on_interval(g, a, b, tol, eps):
                continue
            # Certify the violation at 10x tighter accuracy before reporting.
            fine = eps / 10.0
            ga_f = evaluate(g, a, fine)
            gb_f = evaluate(g, b, fine)
            if not (ga_f < b and gb_f > a):
                continue
            if _identity_on_interval(g, a, b, tol, fine):
                continue
            return ProbeReport(
                verdict=ProbeVerdict.REFUTES, coverage=checked / size,
                parameters={"interval": [a, b], "radius": radius, "tol": tol},
                certificate={"word": list(v), "image": [ga_f, gb_f]})
    return ProbeReport(verdict=ProbeVerdict.SUPPORTS, coverage=1.0,
                       parameters={"interval": [a, b], "radius": radius,
                                   "tol": tol})


def fixed_points(f: CircleHomeo, tol: float = 1e-9, *,
                 grid: int = 512) -> list[float]:
    """Isolated fixed angles of a circle homeomorphism, to accuracy tol.

    Located by sign-change bisection of F(x) - x - m over [0, 1) for each
    integer level m the displacement attains.  A detected plateau (interval
    of fixed points) emits NonIsolatedFixedPointsWarning and is skipped.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lift = f.lift
    xs = [j / grid for j in range(grid + 1)]
    disp = [evaluate(lift, x, DEFAULT_EVAL_EPS) - x for x in xs]
    lo_m = math.floor(min(disp))
    hi_m = math.ceil(max(disp))
    plateau_eps = 1e-13
    roots: list[float] = []
    warned = False
    for m in range(lo_m, hi_m + 1):
        vals = [d - m for d in disp]
        j = 0
        while j < grid:
            v0, v1 = vals[j], vals[j + 1]
            if abs(v0) <= plateau_eps and abs(v1) <= plateau_eps:
                if not warned:
                    warnings.warn("interval of fixed points detected",
                                  NonIsolatedFixedPointsWarning, stacklevel=2)
                    warned = True
                j += 1
                continue
            if abs(v0) <= plateau_eps:
                roots.append(xs[j])
                j += 1
                continue
            if v0 * v1 < 0.0:
                lo, hi = xs[j], xs[j + 1]
                flo = v0
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    fm = evaluate(lift, mid, DEFAULT_EVAL_EPS) - mid - m
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm > 0.0) == (flo > 0.0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                roots.append(0.5 * (lo + hi))
            j += 1
    cleaned: list[float] = []
    for x in sorted(frac(x) for x in roots):
        if cleaned and x - cleaned[-1] < 2 * tol:
            continue
        cleaned.append(x)
    if len(cleaned) > 1 and (1.0 - cleaned[-1]) + cleaned[0] < 2 * tol:
        cleaned.pop()
    return cleaned
