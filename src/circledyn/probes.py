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

from ._record import Record
from .circle import CircleHomeo, frac, merge_circular, merge_sorted
from .errors import NonIsolatedFixedPointsWarning
from .expr import (BOUNDARY_DELTA, DEFAULT_EPS, UNIT_EDGES, CellHat,
                   HomeoExpr, Identity, Translate, evaluate, inverse)
from .groups import check_word_budget, word_ball, word_of, word_to_homeo

DEDUP_RESOLUTION = 1e-12
#: points of an interval at which a word is checked to be the identity
IDENTITY_SAMPLES = 17
#: fixed_points looks for sign changes between j/FIXED_POINT_GRID
FIXED_POINT_GRID = 512

#: `word_ball` under its former name here, which the traced wordball
#: benchmark run reads
_word_ball = word_ball


def _word_values(action, x0: float, radius: int) -> array:
    """g_v(x0) for every word v of the sup-norm ball, indexed by its code
    (see `word_of`), filled one generator at a time by `_level_values`.

    The line construction's levels are closed forms, one chart evaluation
    per sub-ball point, whose error does not grow with the level: hbar has
    slope <= 1/pi, so a sub-orbit's error shrinks on the way up and each
    level adds only the rounding of hbar and of the shift; only the base
    point is pulled back through tan, once per level, as `CellHat._eval`
    pulls back each word's argument.  Any other level, a circle action's
    among them, costs one evaluation per non-zero word (`_stepped_values`).
    """
    check_word_budget(len(action.generators), radius)
    # evaluate rejects a non-finite x0
    return _level_values(action.generators,
                         evaluate(Identity(), x0, DEFAULT_EPS), radius)


def _level_shape(generators) -> str | None:
    """How `_level_values` fills a level of these generators:
    "translations", "cells" (the unit translation followed by unit-cell
    `CellHat`s) or None (stepped, `_stepped_values`)."""
    head, rest = generators[0], generators[1:]
    if all(type(g) is Translate for g in generators):
        return "translations"
    if (type(head) is Translate and head.amount == 1 and rest
            and all(type(g) is CellHat and g.edges == UNIT_EDGES
                    for g in rest)):
        return "cells"
    return None


def _closed_form(generators) -> bool:
    """Whether `_level_values` fills every level in closed form, stepping
    no generator."""
    shape = _level_shape(generators)
    if shape == "cells":
        return _closed_form(tuple(g.inner for g in generators[1:]))
    return shape == "translations"


def _level_values(generators, x: float, radius: int) -> array:
    """g_v(x) over the radius ball of these generators, in code order.

    v_1 is the most significant digit of the code, so the values are the
    first generator's shifts j, each over the ball of the others:
      * translations only: x + sum v_i a_i, summed from the last
        coordinate as a word's tree evaluates it;
      * the unit translation and unit-cell `CellHat`s: x = m + u is pulled
        back to y = hbar^-1(u) as `CellHat._eval` does it, the inners'
        ball is filled at y and pushed forward to m + hbar(.); an x with
        u not in (0, 1) is fixed by every cell transplant;
      * anything else: the first generator stepped over the others' ball
        (`_stepped_values`).
    """
    head, rest = generators[0], generators[1:]
    shape = _level_shape(generators)
    if shape == "translations":
        cell = _level_values(rest, x, radius).tolist() if rest else [x]
        shift = float(head.amount)
    elif shape == "cells":
        m = math.floor(x)
        u = x - m
        if 0.0 < u < 1.0:
            # the guard-band clamp of CellHat._eval, always certified at
            # DEFAULT_EPS (HAT_CLAMP_TOL is finer)
            u = min(max(u, BOUNDARY_DELTA), 1.0 - BOUNDARY_DELTA)
            inner = _level_values(tuple(g.inner for g in rest),
                                  math.tan(math.pi * (u - 0.5)), radius)
            atan, pi = math.atan, math.pi
            cell = [m + (atan(w) / pi + 0.5) for w in inner]
            # the zero word of the inners is the identity
            cell[len(cell) // 2] = x
        else:
            cell = [x] * (2 * radius + 1) ** len(rest)
        shift = 1.0
    else:
        return _stepped_values(generators, x, radius)
    values = array("d")
    for j in range(-radius, radius + 1):
        s = j * shift
        values.fromlist([s + c for c in cell])
    return values


def _stepped_values(generators, x: float, radius: int,
                    widen: float = 0.0) -> array:
    """g_v(x) over the radius ball, in code order, with the first generator
    (its lift, for a circle action) stepped over the others' ball at x
    from `_level_values`: each point moves from shift j - 1 to j by one
    evaluation of g_1, or of its inverse for j < 0, at DEFAULT_EPS.  That
    is one evaluation per non-zero word, in the order of the word's tree.

    A non-zero widen gives bounds instead: every level is stepped and each
    step moves its result by widen, -eps for the images of a lower endpoint
    and +eps for an upper one; the maps are increasing, so these bound the
    exact images.
    """
    head, rest = generators[0], generators[1:]
    if not rest:
        cell = [x]
    elif widen:
        cell = _stepped_values(rest, x, radius, widen).tolist()
    else:
        cell = _level_values(rest, x, radius).tolist()
    h = head.lift if isinstance(head, CircleHomeo) else head
    eps = DEFAULT_EPS
    up, down = [cell], [cell]    # shifts 0, 1, ..., radius and 0, -1, ...
    for rows, step in ((up, h), (down, inverse(h))):
        for _ in range(radius):
            row = [evaluate(step, y, eps) for y in rows[-1]]
            rows.append([y + widen for y in row] if widen else row)
    return array("d", [y for row in down[:0:-1] + up for y in row])


#: the wandering screen bounds the balls of these radii before the full one,
#: so an interval that the first shells refute never fills the whole ball
SCREEN_RADII = (1, 2)
#: the level bounds' margin: this many units in the last place of the
#: ball's scale per level of the recursion, on top of DEFAULT_EPS
LEVEL_ULPS = 8


def _level_bounds(generators, a: float, b: float, radius: int):
    """(lo, hi) in code order for generators that `_level_values` fills
    in closed form (the line construction, translation-only actions):
    lo[c] is a lower bound of g_v(a) and hi[c] an upper bound of g_v(b),
    with eps to spare, for the word v coded c.

    That is, lo_v <= evaluate(g_v, a, eps) - eps <= g_v(a) and the mirror
    for hi_v, where eps = DEFAULT_EPS.  lo_v = level_a[v] - m and
    hi_v = level_b[v] + m with m = eps + LEVEL_ULPS * rank * ulp(scale),
    scale the largest of 1 and the values' magnitudes.  The margin covers:
      * eps, so that lo_v lies below evaluate - eps as well, which the
        error model places below the exact image;
      * the recursion's rounding.  The endpoint is pulled back through tan
        as `CellHat._eval` pulls back each word's argument, clamp included.
        After that each level rounds atan(w)/pi + 1/2, a number in (0, 1),
        and two additions, each within an ulp of the scale, and hbar's
        slope <= 1/pi shrinks the error a lower level passes up, so a value
        lies a few ulps per level from the word's own tree (at most 2.2
        ulps per level on the test balls);
      * the rounding of the subtraction itself.
    """
    at_a = _level_values(generators, a, radius)
    at_b = _level_values(generators, b, radius)
    # g_v(a) < g_v(b), so every |value| is at most -min(at_a) or max(at_b)
    scale = max(1.0, -min(at_a), max(at_b))
    m = DEFAULT_EPS + LEVEL_ULPS * len(generators) * math.ulp(scale)
    return [x - m for x in at_a], [x + m for x in at_b]


def _stepped_bounds(generators, a: float, b: float, radius: int):
    """(lo, hi) in code order for any generators: `_stepped_values` at a
    widened by -eps per step and at b by +eps, eps = DEFAULT_EPS, so that
    lo_v <= g_v(a) and g_v(b) <= hi_v on the exact images."""
    eps = DEFAULT_EPS
    return (_stepped_values(generators, a, radius, -eps),
            _stepped_values(generators, b, radius, eps))


def _candidates(generators, a: float, b: float, radius: int):
    """The words of the radius ball but the zero word, in `word_ball` order,
    whose bounds lo_v <= g_v(a) and g_v(b) <= hi_v on the exact images do
    not lie eps clear of (a, b).  Direct evaluation lies within eps of the
    exact image, so it could not overlap (a, b) for any other word.

    The balls of SCREEN_RADII are bounded first and then the full ball,
    each stage adding its new shells' candidates.  The line construction
    and translation-only actions are bounded by `_level_bounds`, any other
    generators, a circle action's lifts among them, by `_stepped_bounds`.
    """
    eps = DEFAULT_EPS
    rank = len(generators)
    bounds = _level_bounds if _closed_form(generators) else _stepped_bounds
    screened = 0
    for stage in sorted({min(r, radius) for r in SCREEN_RADII} | {radius}):
        lo, hi = bounds(generators, a, b, stage)
        codes = [code for code, (low, high) in enumerate(zip(lo, hi))
                 if low - eps < b and high + eps > a]
        words = [v for v in (word_of(c, rank, stage) for c in codes)
                 if max(map(abs, v)) > screened]
        # by sup-norm; the sort is stable, so each shell keeps code
        # order, which is lexicographic
        yield from sorted(words, key=lambda v: max(map(abs, v)))
        screened = stage


def _ball_position(v) -> int:
    """The 1-based position of word v in `word_ball` order, whatever the
    radius: the words of smaller sup-norm s come first, then those of norm
    s before v lexicographically."""
    rank = len(v)
    s = max(map(abs, v), default=0)
    if s == 0:
        return 1
    position = (2 * s - 1) ** rank + 1
    on_shell = False    # a coordinate of v so far has absolute value s
    for i, e in enumerate(v):
        rest = rank - 1 - i
        cube, inside = (2 * s + 1) ** rest, (2 * s - 1) ** rest
        # the e + s digits d in [-s, e) before e, followed by any tail that
        # puts the word on the shell; d = -s puts it there by itself
        if on_shell:
            position += (e + s) * cube
        elif e > -s:
            position += cube + (e + s - 1) * (cube - inside)
        on_shell = on_shell or abs(e) == s
    return position


class ProbeVerdict(enum.Enum):
    SUPPORTS = "SUPPORTS"
    REFUTES = "REFUTES"
    INCONCLUSIVE = "INCONCLUSIVE"


class OrbitSample(Record):
    """Deduplicated orbit points of a base point under a word ball."""

    __slots__ = ("points", "radius", "base_point")

    def __len__(self):
        return len(self.points)


class ProbeReport(Record):
    """A probe's verdict and coverage (each probe defines its own), the
    parameters it ran with and, when it has one, its certificate."""

    __slots__ = ("verdict", "coverage", "parameters", "certificate")
    _defaults = {"parameters": dict, "certificate": None}

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
    The ball is filled one generator at a time (`_word_values`): the line
    construction's levels by one chart evaluation per sub-ball point, any
    other level, a circle action's among them, by one evaluation per
    non-zero word.  Points are sorted, and a point less than
    DEDUP_RESOLUTION above the last point kept is merged into it; on the
    circle the largest angle is also merged into the smallest when they
    are that close across 0.
    """
    values = _word_values(action, x0, radius)
    if _is_circle(action):
        points = merge_circular(map(frac, values), DEDUP_RESOLUTION)
    else:
        points = merge_sorted(values, DEDUP_RESOLUTION)
    return OrbitSample(points=tuple(points), radius=radius, base_point=x0)


def transitivity_probe(action, x0: float, eps: float, radius: int,
                       window: tuple[float, float] = (0.0, 1.0)) -> ProbeReport:
    """Coverage of the window by eps-bins hit by the orbit sample.

    SUPPORTS when every bin is hit; otherwise INCONCLUSIVE (density is
    never refutable at a finite radius).  Only the hit bins are stored, so
    memory is bounded by the orbit, whatever the number of bins; a window
    of more eps-bins than a float can count raises ValueError.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ValueError("window must be a nonempty interval")
    span = (b - a) / eps
    if not math.isfinite(span):
        raise ValueError(
            f"window ({a}, {b}) holds too many bins of width {eps}")
    sample = orbit(action, x0, radius)
    bins = max(1, math.ceil(span))
    hit = {min(int((y - a) / eps), bins - 1)
           for y in sample.points if a <= y < b}
    coverage = len(hit) / bins
    verdict = ProbeVerdict.SUPPORTS if coverage == 1.0 else ProbeVerdict.INCONCLUSIVE
    return ProbeReport(verdict=verdict, coverage=coverage,
                       parameters={"eps": eps, "radius": radius,
                                   "window": [a, b], "orbit_size": len(sample)})


def _identity_on_interval(g: HomeoExpr, a: float, b: float, tol: float,
                          eps: float) -> bool:
    for j in range(IDENTITY_SAMPLES):
        x = a + (b - a) * (j + 0.5) / IDENTITY_SAMPLES
        if abs(evaluate(g, x, eps) - x) > tol:
            return False
    return True


def _violation(action, v, a: float, b: float, tol: float) -> dict | None:
    """The certificate of word v when, evaluated from its own tree, it
    overlaps (a, b) without fixing it pointwise within tol, at eps and again
    at 10x tighter accuracy; None otherwise."""
    eps = DEFAULT_EPS
    g = word_to_homeo(action, v)
    if not (evaluate(g, a, eps) < b and evaluate(g, b, eps) > a):
        return None
    if _identity_on_interval(g, a, b, tol, eps):
        return None
    # Certify the violation at 10x tighter accuracy before reporting.
    fine = eps / 10.0
    ga_f = evaluate(g, a, fine)
    gb_f = evaluate(g, b, fine)
    if not (ga_f < b and gb_f > a):
        return None
    if _identity_on_interval(g, a, b, tol, fine):
        return None
    return {"word": list(v), "image": [ga_f, gb_f]}


def wandering_probe(action, interval: tuple[float, float], radius: int,
                    tol: float = 1e-9) -> ProbeReport:
    """Check the wandering-interval property over a word ball.

    Every word must either fix the interval pointwise (within tol) or move
    it entirely off itself; interval images are computed from the endpoints,
    which is valid because all maps are monotone.  REFUTES carries the
    violating word, re-verified at 10x tighter evaluation accuracy, and its
    coverage is the word's position in `word_ball` order over the ball size.

    Words are screened on a lower bound of g(a) and an upper bound of g(b)
    (`_candidates`), filled one generator at a time as `orbit` fills the
    ball: for the line construction and translation-only actions the
    level-recursive values at a and at b, widened by eps and LEVEL_ULPS
    ulps per level, for other actions stepped values widened by eps per
    step.  The balls of radius 1 and 2 are bounded before the full ball,
    so an interval refuted in the first shells never fills it.  A word
    whose bounds lie eps clear of the interval could not
    overlap it under direct evaluation either; only the other words are
    evaluated directly from their trees, in `word_ball` order, and a probe
    with no such word answers SUPPORTS without enumerating the ball.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    size = check_word_budget(len(action.generators), radius)
    for x in (a, b):
        evaluate(Identity(), x, DEFAULT_EPS)    # rejects a non-finite endpoint
    parameters = {"interval": [a, b], "radius": radius, "tol": tol}
    for v in _candidates(action.generators, a, b, radius):
        certificate = _violation(action, v, a, b, tol)
        if certificate is not None:
            return ProbeReport(
                verdict=ProbeVerdict.REFUTES,
                coverage=_ball_position(v) / size,
                parameters=parameters, certificate=certificate)
    return ProbeReport(verdict=ProbeVerdict.SUPPORTS, coverage=1.0,
                       parameters=parameters)


def fixed_points(f: CircleHomeo, tol: float = 1e-9) -> list[float]:
    """Isolated fixed angles of a circle homeomorphism, to accuracy tol.

    Located by sign-change bisection of F(x) - x - m over [0, 1) for each
    integer level m the displacement attains.  A detected plateau (interval
    of fixed points) emits NonIsolatedFixedPointsWarning and is skipped.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lift = f.lift
    xs = [j / FIXED_POINT_GRID for j in range(FIXED_POINT_GRID + 1)]
    disp = [evaluate(lift, x, DEFAULT_EPS) - x for x in xs]
    lo_m = math.floor(min(disp))
    hi_m = math.ceil(max(disp))
    plateau_eps = 1e-13
    roots: list[float] = []
    warned = False
    for m in range(lo_m, hi_m + 1):
        vals = [d - m for d in disp]
        j = 0
        while j < FIXED_POINT_GRID:
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
                    if not lo < mid < hi:   # no float left between the ends
                        break
                    fm = evaluate(lift, mid, DEFAULT_EPS) - mid - m
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm > 0.0) == (flo > 0.0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                roots.append(0.5 * (lo + hi))
            j += 1
    return merge_circular(map(frac, roots), 2 * tol)
