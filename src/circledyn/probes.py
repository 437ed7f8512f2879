"""Numerical probes for the dynamical predicates being classified:
transitivity, wandering intervals, fixed points.

Verdict semantics are asymmetric on purpose: density can never be refuted
from a finite word ball, so transitivity probes only ever SUPPORT or stay
INCONCLUSIVE, while wandering violations and fixed points are certified
(REFUTES always carries a re-verified witness).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import warnings
from bisect import bisect_left, bisect_right, insort

from ._record import Record
from .circle import CircleHomeo, frac, merge_circular, merge_sorted
from .errors import NonIsolatedFixedPointsWarning
from .expr import (BOUNDARY_DELTA, DEFAULT_EPS, UNIT_EDGES, CellHat,
                   HomeoExpr, Identity, Translate, evaluate, inverse)
from .groups import (ZnAction, _arc_edges, check_word_budget, is_circle,
                     word_ball, word_to_homeo)

DEDUP_RESOLUTION = 1e-12
#: points of an interval at which a word is checked to be the identity
IDENTITY_SAMPLES = 17
#: fixed_points looks for sign changes between j/FIXED_POINT_GRID
FIXED_POINT_GRID = 512

#: `word_ball` under its former name here, which the traced wordball
#: benchmark run reads
_word_ball = word_ball


def _level_shape(generators) -> str | None:
    """How `_level_values` fills a level of these generators in closed
    form: "translations", "cells" (the unit translation followed by
    unit-cell `CellHat`s) or None (the level is stepped)."""
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


def _pull_back(u: float) -> float:
    """hbar^-1(u) for u in (0, 1) as `CellHat._eval` takes it, after the
    guard-band clamp, which is always certified at DEFAULT_EPS
    (HAT_CLAMP_TOL is finer)."""
    u = min(max(u, BOUNDARY_DELTA), 1.0 - BOUNDARY_DELTA)
    return math.tan(math.pi * (u - 0.5))


def _push_forward(m: int, values) -> list:
    """m + hbar(w) for each w, hbar(w) = atan(w)/pi + 1/2: a sub-ball's
    values carried into the unit cell m, in their order.  hbar and float
    addition are increasing, so increasing values stay increasing."""
    atan, pi = math.atan, math.pi
    return [m + (atan(w) / pi + 0.5) for w in values]


def _level_values(generators, x: float, radius: int,
                  widen: float = 0.0) -> list:
    """g_v(x) over the radius ball of these generators, in code order: the
    one recursion that fills every word ball (`_sorted_values` orders the
    line construction's with its pieces).

    v_1 is the most significant digit of the code, so the values are the
    first generator's shifts j, each over the ball of the others:
      * translations only: x + sum v_i a_i, summed from the last
        coordinate as a word's tree evaluates it;
      * the unit translation and unit-cell `CellHat`s: x = m + u is pulled
        back to y = hbar^-1(u) as `CellHat._eval` does it, the inners'
        ball is filled at y and pushed forward to m + hbar(.); an x with
        u not in (0, 1) is fixed by every cell transplant;
      * anything else is stepped: each point of the others' ball moves
        from shift j - 1 to j by one evaluation of g_1 (its lift, for a
        circle action), or of its inverse for j < 0, at DEFAULT_EPS.  That
        is one evaluation per non-zero word, in the order of its tree.
        `orbit` steps a circle action only where `_arc_values` does not
        apply: k = 1, other shapes, a base angle on a marked point or in
        the chart's guard band.

    A closed-form level's error does not grow with the level: hbar's slope
    is at most 1/pi, so a sub-ball's error shrinks on the way up, and only
    the point is pulled back through tan, once per level.  These branches
    fill the closed-form levels of actions that are not closed-form
    throughout, and give the code-order ball that `_sorted_values` and
    `_descent` (through `_ball_bounds`' scan) are checked against.

    A non-zero widen gives bounds instead (`_ball_bounds`): every level is
    stepped and each step moves its result by widen, -eps for the images
    of a lower endpoint and +eps for an upper one; the maps are
    increasing, so these bound the exact images.
    """
    head, rest = generators[0], generators[1:]
    shape = None if widen else _level_shape(generators)
    if shape == "cells":
        m = math.floor(x)
        u = x - m
        if 0.0 < u < 1.0:
            inner = _level_values(tuple(g.inner for g in rest),
                                  _pull_back(u), radius)
            cell = _push_forward(m, inner)
            # the zero word of the inners is the identity
            cell[len(cell) // 2] = x
        else:
            cell = [x] * (2 * radius + 1) ** len(rest)
        shift = 1.0
    else:
        cell = _level_values(rest, x, radius, widen) if rest else [x]
        if shape is None:
            h = head.lift if isinstance(head, CircleHomeo) else head
            up, down = [cell], [cell]    # shifts 0, 1, ... and 0, -1, ...
            for rows, step in ((up, h), (down, inverse(h))):
                for _ in range(radius):
                    row = [evaluate(step, y, DEFAULT_EPS) for y in rows[-1]]
                    rows.append([y + widen for y in row] if widen else row)
            return [y for row in down[:0:-1] + up for y in row]
        shift = float(head.amount)
    return _shifted(cell, shift, radius)


def _shifted(cell, shift: float, radius: int) -> list:
    """s + c for each s = j * shift, j = -radius..radius, and each c of
    cell: a closed-form level's values, one block of the cell per shift."""
    shifts = [j * shift for j in range(-radius, radius + 1)]
    return [s + c for s in shifts for c in cell]


def _sorted_values(generators, x: float, radius: int) -> list:
    """The values of `_level_values` for closed-form generators
    (`_closed_form`), the same multiset, in increasing order
    (`_sorted_ball`)."""
    return _sorted_ball(generators, x, radius)[0]


def _sorted_ball(generators, x: float, radius: int):
    """(values, cell): `_sorted_values`' values and their top cell
    (`_top_cell`), or None.  Only translations are sorted: at a cells level
    the shift j's block lies in [j + m, j + m + 1], so the blocks j =
    -r..r follow one another and can meet only at their ends."""
    cell = _top_cell(generators, x, radius)
    if cell is None:
        values = _level_values(generators, x, radius)
    else:
        values = _shifted(cell, 1.0, radius)
    if _level_shape(generators) == "translations":
        values.sort()
    return values, cell


def _top_cell(generators, x: float, radius: int) -> list | None:
    """The values c, in increasing order, that give the ball of closed-form
    generators headed by the unit translation as j + c for |j| <= radius;
    None for translations under another head.  At a cells level it is the
    inners' sorted ball at y = hbar^-1(u) pushed forward into the cell m of
    x = m + u (`_push_forward`), which keeps it sorted; the inners' zero
    word, whose value is y, is the identity, so its image is x itself, put
    in at its sorted place.  An x with u not in (0, 1) is fixed by every
    cell transplant.  For translations it is the other generators' ball."""
    rest = generators[1:]
    if _level_shape(generators) == "translations":
        if generators[0].amount != 1:
            return None
        return sorted(_level_values(rest, x, radius)) if rest else [x]
    m = math.floor(x)
    u = x - m
    if not 0.0 < u < 1.0:
        return [x] * (2 * radius + 1) ** len(rest)
    y = _pull_back(u)
    inner = _sorted_values(tuple(g.inner for g in rest), y, radius)
    inner.remove(y)
    cell = _push_forward(m, inner)
    insort(cell, x)
    return cell


def _spaced(generators, cell, radius: int) -> bool:
    """Whether every two values of the sorted ball j + c over this top cell
    (`_top_cell`) lie at least DEDUP_RESOLUTION apart, so that
    merge_sorted would return it unchanged.  Two values with the same c lie
    at least 1 apart, and two with c != c' at least the circular distance
    of c and c' mod 1, which is at least the smallest gap between
    neighbours of the cell around the circle (a repeated value or residue
    is a gap of 0): the cell's own differences and the wrap gap at a cells
    level, where the cell lies sorted in [m, m + 1], and those of the
    residues c - floor(c), sorted, for translations.  The check answers
    False at the first gap below DEDUP_RESOLUTION + 4 ulps of scale, the
    largest magnitude of a value plus 1.  Float addition is monotone, so
    the smallest and largest values are -radius + cell[0] and radius +
    cell[-1], the sorted ball's ends bit for bit.

    The 4 ulps cover the rounding.  Every result involved has magnitude at
    most scale, so each rounds by at most half an ulp of scale: a gap lies
    within 1 ulp of the distance between the residues it joins (one
    subtraction, or the wrap gap's addition of 1 and subtraction), each
    residue within half an ulp of c's own, and each value within half an
    ulp of j + c, which puts two values at least a gap less 3 ulps apart;
    the threshold's own sum rounds by half an ulp more.  So a passing cell
    puts every two values at least DEDUP_RESOLUTION apart as floats, and
    their rounded difference too, rounding being monotone."""
    scale = max(-(-radius + cell[0]), radius + cell[-1]) + 1.0
    if _level_shape(generators) == "translations":
        cell = sorted([c - math.floor(c) for c in cell])
    gap = DEDUP_RESOLUTION + 4 * math.ulp(scale)
    return (cell[0] + 1.0 - cell[-1] >= gap
            and all(d >= gap for d in map(operator.sub,
                                          itertools.islice(cell, 1, None),
                                          cell)))


#: the wandering screen screens the balls of these radii before the full
#: one, so an interval that the first shells refute never reaches it
SCREEN_RADII = (1, 2)
#: the closed-form bounds' margin: this many units in the last place of the
#: ball's scale per level of the recursion, on top of DEFAULT_EPS
LEVEL_ULPS = 8


def _ball_bounds(generators, a: float, b: float, radius: int):
    """(lo, hi) in code order: lo[c] is a lower bound of g_v(a) and hi[c]
    an upper bound of g_v(b), with eps = DEFAULT_EPS to spare, for the word
    v coded c, so lo_v <= evaluate(g_v, a, eps) - eps <= g_v(a) and the
    mirror for hi_v.

    Generators that `_level_values` fills in closed form (`_closed_form`:
    the line construction, translation-only actions) are bounded by the
    values at a and at b moved by m = eps + LEVEL_ULPS * rank * ulp(scale),
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
    Any other generators, a circle action's lifts among them, are bounded
    by stepped values widened by -eps per step at a and +eps at b.
    """
    eps = DEFAULT_EPS
    if not _closed_form(generators):
        return (_level_values(generators, a, radius, -eps),
                _level_values(generators, b, radius, eps))
    at_a = _level_values(generators, a, radius)
    at_b = _level_values(generators, b, radius)
    # g_v(a) < g_v(b), so every |value| is at most -min(at_a) or max(at_b)
    scale = max(1.0, -min(at_a), max(at_b))
    m = eps + LEVEL_ULPS * len(generators) * math.ulp(scale)
    return [x - m for x in at_a], [x + m for x in at_b]


def _descent(generators, xa: float, xb: float, lo: float, hi: float,
             radius: int) -> list:
    """The words of the radius ball of closed-form generators
    (`_closed_form`) whose values at xa and at xb, as `_level_values`
    computes them, may come within a margin of (lo, hi), in code order,
    found without filling the ball (`_descend`): the line's interval at
    its ends, or one arc's pulled back through its chart (`_arc_chart`).
    The margin, eps and `_ball_bounds`' closed-form margin at `_scale` with
    two ulps more for the scan's comparisons, keeps every word the
    whole-ball scan keeps."""
    ulp = math.ulp(_scale(generators, xa, xb, radius))
    margin = 2 * DEFAULT_EPS + (LEVEL_ULPS * len(generators) + 2) * ulp
    return _descend(generators, xa, xb, lo - margin, hi + margin, radius)


def _arc_chart(action, a: float, b: float, radius: int):
    """(a, b) pulled back through the chart of its arc of the circle
    construction (`groups._arc_edges`), as `_descent`'s (base generators,
    ya, yb, bottom, top); None for any other action, and for an interval
    that crosses a wall of the arcs or comes within clear of one.

    The arc (lo + m, lo + m + width) and the chart coordinates ua and ub
    of a and b are found as the transplanted generators' `CellHat._eval`
    finds them, so ya and yb are the points a word's first transplant
    pulls back.  bottom and top are a - eps and b + eps pulled back, each
    rounded outward in the chart by 2 d, d = LEVEL_ULPS ulps of the ball's
    scale over the arc's width: that covers the rounding of the subtraction
    and the division, and the chart's own rounding of an argument that
    has moved by far more than its ulp.

    The sigma_bar lifts fix every wall, and (v, 0) acts on the arc as the
    base word transplanted by the chart: x -> lo + m + width *
    hbar(g_v(hbar^-1(u))).  `_violation` keeps a word only when its image,
    evaluated at eps and again at eps/10, overlaps (a, b), so its exact
    image comes within eps/10 of (a, b), 0.9 eps inside (a - eps, b + eps).
    That target is pulled back rounded outward, and `_descent` widens it in
    the chart by its margin, as for the line, for the rounding of the
    descent's values, so the descent keeps every such word.

    clear = (2 * rank * radius + 1) * (eps + LEVEL_ULPS * ulp(scale)), the
    scale being twice the largest magnitude a value of the ball can take
    (a circle word moves a point by less than radius + 1).  A word with a
    non-zero exponent w of f maps the arc onto arc J + w, its walls drifting
    by about an ulp per f step, so its image lies beyond both of the
    interval's clearances; a stepped bound errs by at most 2 eps per step
    (its widening and the evaluation's own eps), a word of the ball takes
    at most rank * radius steps, and next to a wall every map of the
    construction has slope about 1.  So neither `_violation` nor the stepped
    screen keeps such a word, and the arc's descent leaves them all out.
    """
    edges = _arc_edges(action)
    if edges is None:
        return None
    _, lo, m, width = _arc_of(edges, a)
    ua, ub = ((a - lo) - m) / width, ((b - lo) - m) / width
    ulp = math.ulp(2.0 * (max(1.0, abs(a), abs(b)) + radius + 1.0))
    clear = ((2 * len(action.generators) * radius + 1)
             * (DEFAULT_EPS + LEVEL_ULPS * ulp) / width)
    if not (clear <= ua and ub <= 1.0 - clear):
        return None
    low, d = lo + m, LEVEL_ULPS * ulp / width
    bottom = _chart((a - DEFAULT_EPS - low) / width - 2 * d)
    top = _chart((b + DEFAULT_EPS - low) / width + 2 * d)
    return (action.base.generators, _pull_back(ua), _pull_back(ub),
            bottom, top)


def _arc_of(edges, x: float):
    """(i, lo, m, width): the arc (lo + m, lo + m + width) of x, lo =
    edges[i], found as the transplanted generators' `CellHat._eval` finds
    it; x's chart coordinate there is ((x - lo) - m) / width."""
    i = bisect_right(edges, x - math.floor(x), 1, len(edges) - 1) - 1
    lo = edges[i]
    return i, lo, math.floor(x - lo), edges[i + 1] - lo


def _arc_values(action, x: float, radius: int) -> list | None:
    """The ball of the circle construction (`groups._arc_edges`) at the
    angle x in closed form, as angles in [0, 1) in increasing order; None
    for any other action or base, which is stepped.

    With x in arc i at the chart coordinate u and y = hbar^-1(u), the word
    (v, w), w the exponent of f, maps x to the line word v at g^q(y),
    pushed into arc (i + w) mod k through its chart, where q = floor((i +
    w - 1)/k) - floor((i - 1)/k) counts f's passes through arc 1, which
    apply g = g_word's base word.  The generators commute, so each w's
    block is the base's sorted ball at g^q(y) (`_sorted_values`), one
    evaluation of g^q per distinct q, pushed forward in order.  Each arc's
    blocks are sorted together, which merges their runs, and the arcs laid
    out in order.  The values agree with each word's tree within about
    1e-14 mod 1.  A point on a marked angle or in the chart's guard band
    (u within BOUNDARY_DELTA of a wall) is left to the stepped fill."""
    edges = _arc_edges(action)
    if edges is None or not _closed_form(action.base.generators):
        return None
    base = action.base.generators
    i, lo, m, width = _arc_of(edges, x)
    u = ((x - lo) - m) / width
    if not BOUNDARY_DELTA <= u <= 1.0 - BOUNDARY_DELTA:
        return None
    k, y = action.k, _pull_back(u)
    arcs = [[] for _ in range(k)]
    hbars = {}
    for w in range(-radius, radius + 1):
        q = (i + w - 1) // k - (i - 1) // k
        if q not in hbars:
            g_q = word_to_homeo(action.base, [q * e for e in action.g_word])
            at = evaluate(g_q, y, DEFAULT_EPS)
            hbars[q] = _push_forward(0, _sorted_values(base, at, radius))
        j = (i + w) % k
        low, span = edges[j], edges[j + 1] - edges[j]
        arcs[j] += [low + h * span for h in hbars[q]]
    for arc in arcs:
        arc.sort()
    # the last arc's (k - 1 + hbar)/k can round to 1.0, the angle 0
    top = arcs.pop()
    cut = bisect_left(top, 1.0)
    return list(itertools.chain([0.0] * (len(top) - cut), *arcs, top[:cut]))


def _scale(generators, xa: float, xb: float, radius: int) -> float:
    """Twice the largest magnitude that a value of the ball at xa or xb can
    take: a cell transplant keeps its cell, so a word of the line
    construction moves a point by less than radius + 1."""
    if _level_shape(generators) == "cells":
        reach = radius + 1.0
    else:
        reach = radius * sum(abs(float(g.amount)) for g in generators)
    return 2.0 * (max(1.0, abs(xa), abs(xb)) + reach)


def _shifts(low: float, high: float, radius: int) -> range:
    """The integers of [-radius, radius] from floor(low) to ceil(high)."""
    return range(math.floor(min(max(low, -radius), radius + 1)),
                 math.ceil(max(min(high, radius), -radius - 1)) + 1)


def _chart(t: float) -> float:
    """hbar^-1(t), extended by -inf below (0, 1) and by +inf above it."""
    if not 0.0 < t < 1.0:
        return math.inf if t >= 1.0 else -math.inf
    return math.tan(math.pi * (t - 0.5))


def _descend(generators, xa: float, xb: float, lo: float, hi: float,
             radius: int) -> list:
    """The words v of the radius ball with values g_v(xa) < hi and
    g_v(xb) > lo, or a few more, in code order, the values being those of
    `_level_values`.  At a cells level the values of the shift j lie in
    [j + m, j + m + 1], m the cell of the point, so only the few shifts
    whose cells meet (lo, hi) are kept; for each of them (lo, hi) less
    j + m is pulled back through the chart, and the inners descend at the
    points that `_level_values` pulls back.  A point on a wall is fixed by
    every cell transplant, so its side of the test is decided by j + x
    alone.  Translations end the descent (`_translation_words`).

    Each level widens the target by d, LEVEL_ULPS ulps of its `_scale`,
    for the rounding of the shift and the cell offset, and rounds it
    outward in u by d more before the chart, for the chart's rounding and
    the guard-band clamp; a target beyond the scale constrains nothing.
    """
    scale = _scale(generators, xa, xb, radius)
    hi = math.inf if hi > scale else hi
    lo = -math.inf if lo < -scale else lo
    d = LEVEL_ULPS * math.ulp(scale)
    if _level_shape(generators) == "translations":
        return _translation_words([float(g.amount) for g in generators],
                                  xa, xb, lo, hi, radius, d)
    inner = tuple(g.inner for g in generators[1:])
    ma, mb = math.floor(xa), math.floor(xb)
    ua, ub = xa - ma, xb - mb
    open_a, open_b = 0.0 < ua < 1.0, 0.0 < ub < 1.0
    # a value of the shift j is at least j + low at xa and at most j + high
    # at xb, and on a wall it is j + x
    low = float(ma) if open_a else xa
    high = float(mb + 1) if open_b else xb
    ya = _pull_back(ua) if open_a else 0.0
    yb = _pull_back(ub) if open_b else 0.0
    words = []
    for j in _shifts(lo - high, hi - low, radius):
        if not (j + low < hi and j + high > lo):
            continue
        top = _chart(hi - (j + ma) + 2 * d) if open_a else math.inf
        bottom = _chart(lo - (j + mb) - 2 * d) if open_b else -math.inf
        if top > -math.inf and bottom < math.inf:
            words.extend((j,) + w for w in
                         _descend(inner, ya, yb, bottom, top, radius))
    return words


def _translation_words(amounts, xa: float, xb: float, lo: float, hi: float,
                       radius: int, d: float) -> list:
    """`_descend` for translations by these amounts, one coordinate at a
    time: the shifts j whose j * a, with the later coordinates' reach, can
    meet the target less the point form an integer range, solved directly,
    and the last coordinate is tested on its value, summed as
    `_level_values` sums it."""
    prefixes = [((), lo, hi)]
    for i, shift in enumerate(amounts):
        reach = radius * sum(map(abs, amounts[i + 1:])) + len(amounts) * d
        last = i == len(amounts) - 1
        grown = []
        for prefix, low, high in prefixes:
            if shift:
                ends = ((low - xb - reach) / shift,
                        (high - xa + reach) / shift)
                shifts = _shifts(min(ends), max(ends), radius)
            else:
                shifts = range(-radius, radius + 1)
            for j in shifts:
                s = j * shift
                if not last:
                    grown.append((prefix + (j,), low - s - d, high - s + d))
                elif s + xa < high and s + xb > low:
                    grown.append(prefix + (j,))
        prefixes = grown
    return prefixes


def _candidates(action, a: float, b: float, radius: int):
    """The words of the radius ball but the zero word, in `word_ball` order,
    whose bounds lo_v <= g_v(a) and g_v(b) <= hi_v on the exact images
    (`_ball_bounds`) do not lie eps clear of (a, b), or a few more where
    the screen descends (`_descent`): for closed-form generators, and for
    the circle construction's words (v, 0) on an interval inside one arc,
    clear of its walls (`_arc_chart`).  Direct evaluation lies within eps
    of the exact image, so it could not overlap (a, b) for any other word.
    The balls of SCREEN_RADII are screened first and then the full ball,
    each stage adding its new shells' candidates.
    """
    eps = DEFAULT_EPS
    generators = action.generators
    rank = len(generators)
    if _closed_form(generators):
        target, suffix = (generators, a, b, a, b), ()
    else:
        target, suffix = _arc_chart(action, a, b, radius), (0,)
    screened = 0
    for stage in sorted({min(r, radius) for r in SCREEN_RADII} | {radius}):
        if target is not None:
            found = (v + suffix for v in _descent(*target, stage))
        else:
            lo, hi = _ball_bounds(generators, a, b, stage)
            span = range(-stage, stage + 1)
            found = (v for v, low, high
                     in zip(itertools.product(span, repeat=rank), lo, hi)
                     if low - eps < b and high + eps > a)
        words = [v for v in found if max(map(abs, v)) > screened]
        # by sup-norm; the sort is stable, so each shell keeps code
        # order, which is lexicographic
        yield from sorted(words, key=lambda v: max(map(abs, v)))
        screened = stage


def _ball_position(v) -> int:
    """The 1-based position of word v in `word_ball` order, whatever the
    radius: the (2s - 1)**rank words of smaller sup-norm s come first, then
    those of norm s before v in code order.  These are the words of the box
    [-s, s]**rank before v, v's code there, less those of the inner box
    [1 - s, s - 1]**rank before v."""
    s = max(map(abs, v), default=0)
    if s == 0:
        return 1
    box = inner = 0
    inside = True   # v's coordinates so far lie in the inner box
    for e in v:
        box = box * (2 * s + 1) + e + s
        # the inner digits d in [1 - s, s - 1] below e, while v is inside
        inner = inner * (2 * s - 1) + (max(e + s - 1, 0) if inside else 0)
        inside = inside and abs(e) < s
    return (2 * s - 1) ** len(v) + box - inner + 1


class ProbeVerdict(enum.Enum):
    SUPPORTS = "SUPPORTS"
    REFUTES = "REFUTES"
    INCONCLUSIVE = "INCONCLUSIVE"


class OrbitSample(Record):
    """Deduplicated orbit points of a base point under a word ball."""

    __slots__ = ("base_point", "radius", "points")

    def __len__(self):
        return len(self.points)


class ProbeReport(Record):
    """A probe's verdict and coverage (each probe defines its own), the
    parameters it ran with and, when it has one, its certificate."""

    __slots__ = ("verdict", "coverage", "parameters", "certificate")
    _defaults = {"parameters": dict, "certificate": None}


def orbit(action, x0: float, radius: int) -> OrbitSample:
    """Evaluate every word in the sup-norm ball at x0.

    Line actions return points on R; circle actions return angles in [0, 1),
    and a circle base point is first reduced to its angle (at 1e17 a lift
    would absorb f's 1/k).  The ball is checked against the word budget and
    filled by one call: over the arc charts for the circle construction
    with k >= 2, off its walls and guard bands (`_arc_values`, within about
    1e-14 of each word's tree mod 1); in increasing order when the
    generators are in closed form (`_sorted_values`: the line construction,
    translation-only actions on the line or the circle); in code order by
    one evaluation per non-zero word otherwise (`_level_values`).  Points
    are sorted, in linear time when they come sorted, and a point less than
    DEDUP_RESOLUTION above the last point kept is merged into
    it; on the circle the largest angle is also merged into the smallest
    when they are that close across 0.  A closed-form line ball whose head
    is the unit translation is j + c over a cell of values c; when the
    cell's gaps mod 1 certify that no two points lie that close
    (`_spaced`), the merge would keep every point in its place, so the
    sorted ball is returned without it, the same floats.
    """
    generators = action.generators
    check_word_budget(len(generators), radius)
    x = evaluate(Identity(), x0, DEFAULT_EPS)    # rejects a non-finite x0
    if is_circle(action):
        x = frac(x)    # a lift at 1e17 would absorb f's 1/k
        angles = _arc_values(action, x, radius)
        if angles is None:
            fill = (_sorted_values if _closed_form(generators)
                    else _level_values)
            angles = map(frac, fill(generators, x, radius))
        return OrbitSample(x0, radius,
                           tuple(merge_circular(angles, DEDUP_RESOLUTION)))
    if _closed_form(generators):
        values, cell = _sorted_ball(generators, x, radius)
    else:
        values, cell = _level_values(generators, x, radius), None
    if cell is not None and _spaced(generators, cell, radius):
        points = values
    else:
        points = merge_sorted(values, DEDUP_RESOLUTION)
    return OrbitSample(x0, radius, tuple(points))


def _window_ball(action, x0: float, radius: int, a: float, b: float):
    """(points, size): the points of `orbit(action, x0, radius)` in [a, b),
    in increasing order, and the orbit's size, read off the top cell of a
    line ball that is j + c over a cell spaced mod 1 (`_top_cell`,
    `_spaced`), where `orbit` merges no point; None for any other action or
    cell.  For each shift j whose block can meet the window (floor and ceil
    of its ends less the cell's, widened by 1 for their rounding) the
    cell's slice is bisected on the sums j + c themselves, the floats
    `_shifted` gives; the blocks of a cells level follow one another, and
    the window's points of overlapping translation blocks are sorted."""
    if not isinstance(action, ZnAction) or is_circle(action):
        return None
    generators = action.generators
    check_word_budget(len(generators), radius)
    x = evaluate(Identity(), x0, DEFAULT_EPS)    # rejects a non-finite x0
    cell = (_top_cell(generators, x, radius) if _closed_form(generators)
            else None)
    if cell is None or not _spaced(generators, cell, radius):
        return None
    points = []
    for j in _shifts(a - cell[-1] - 1.0, b - cell[0] + 1.0, radius):
        plus = functools.partial(operator.add, float(j))
        lo = bisect_left(cell, a, key=plus)
        points += map(plus, cell[lo:bisect_left(cell, b, lo, key=plus)])
    if _level_shape(generators) == "translations":
        points.sort()
    return points, (2 * radius + 1) * len(cell)


def transitivity_probe(action, x0: float, eps: float, radius: int,
                       window: tuple[float, float] = (0.0, 1.0)) -> ProbeReport:
    """Coverage of the window by eps-bins hit by the orbit sample.

    SUPPORTS when every bin is hit; otherwise INCONCLUSIVE (density is
    never refutable at a finite radius).  A point y of [a, b) lies in the
    bin min(int((y - a)/eps), bins - 1), which increases with y, so the
    hit bins are read off the sorted orbit by bisection, one search per
    hit bin, and memory is bounded by the orbit, whatever the number of
    bins; a window of more eps-bins than a float can count raises
    ValueError.  The points and orbit_size are `orbit`'s, read straight
    off the sorted top cell, without building the ball, where `orbit`
    would merge no point (`_window_ball`).  A circle action's orbit points
    are angles in [0, 1), so its window must lie inside [0, 1]; another
    raises ValueError.

    SUPPORTS is evidence from a finite ball, not a proof.  The paper
    divides the groups: Z^n with n >= 2 acts transitively on the line (the
    construction), but no Z-action on R is topologically transitive: where
    F(x) > x, the images of (x, F(x)) are pairwise disjoint.  Yet the rank-1
    `ZnAction(n=1, generators=(Translate(0.01),))` at x0 = 0.5, eps 0.02
    and radius 100 answers SUPPORTS with coverage 1.0.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    try:
        a, b = float(window[0]), float(window[1])
    except OverflowError:   # no repr: past 4,300 digits an int has none
        raise ValueError("window end beyond the float range") from None
    if not b > a:
        raise ValueError("window must be a nonempty interval")
    if is_circle(action) and not (a >= 0.0 and b <= 1.0):
        raise ValueError(f"window ({a}, {b}) of a circle action must lie "
                         "inside [0, 1], where its orbit angles lie")
    span = (b - a) / eps
    if not math.isfinite(span):
        raise ValueError(
            f"window ({a}, {b}) holds too many bins of width {eps}")
    found = _window_ball(action, x0, radius, a, b)
    if found is None:
        points = orbit(action, x0, radius).points
        found = (points[bisect_left(points, a):bisect_left(points, b)],
                 len(points))
    points, size = found
    bins = max(1, math.ceil(span))

    def bin_of(y):
        return min(int((y - a) / eps), bins - 1)

    i, end, hit = 0, len(points), 0
    while i < end:
        hit += 1
        i = bisect_right(points, bin_of(points[i]), i, end, key=bin_of)
    coverage = hit / bins
    verdict = ProbeVerdict.SUPPORTS if coverage == 1.0 else ProbeVerdict.INCONCLUSIVE
    return ProbeReport(verdict=verdict, coverage=coverage,
                       parameters={"eps": eps, "radius": radius,
                                   "window": [a, b], "orbit_size": size})


def _identity_on_interval(g: HomeoExpr, a: float, b: float, tol: float,
                          eps: float) -> bool:
    for j in range(IDENTITY_SAMPLES):
        # a convex combination of the ends: b - a overflows for the widest
        # intervals
        t = (j + 0.5) / IDENTITY_SAMPLES
        x = min(max(a * (1.0 - t) + b * t, a), b)
        if abs(evaluate(g, x, eps) - x) > tol:
            return False
    return True


def _violation(action, v, a: float, b: float, tol: float) -> dict | None:
    """The certificate of word v when, evaluated from its own tree, it
    overlaps (a, b) without fixing it pointwise within tol, at eps and again
    at 10x tighter accuracy, whose images it carries; None otherwise."""
    g = word_to_homeo(action, v)
    for eps in (DEFAULT_EPS, DEFAULT_EPS / 10.0):
        ga = evaluate(g, a, eps)
        if not ga < b:
            return None
        gb = evaluate(g, b, eps)
        if not gb > a or _identity_on_interval(g, a, b, tol, eps):
            return None
    return {"word": list(v), "image": [ga, gb]}


def wandering_probe(action, interval: tuple[float, float], radius: int,
                    tol: float = 1e-9) -> ProbeReport:
    """Check the wandering-interval property over a word ball.

    Every word must either fix the interval pointwise (within tol) or move
    it entirely off itself; interval images are computed from the endpoints,
    which is valid because all maps are monotone.  REFUTES carries the
    violating word, re-verified at 10x tighter evaluation accuracy, and its
    coverage is the word's position in `word_ball` order over the ball size.
    On a circle action words act through their lifts and images are
    compared with the interval on the line, not mod 1, so the probe decides
    wandering for the lifted action; a REFUTES image overlaps on the circle
    too, since a line overlap projects to one.

    Words are screened on a lower bound of g(a) and an upper bound of g(b)
    (`_candidates`).  One descent through the levels (`_descent`) serves
    the line construction and translation-only actions: only the few
    shifts of the first generator whose cells meet the interval are kept,
    the interval is pulled back through the chart for each, and the
    translations at the bottom solve their ranges directly, with margins of
    eps and LEVEL_ULPS ulps per level, so the ball is never filled.  It
    serves the circle construction with k >= 2 on an interval inside one
    arc, clear of its walls, too: only the words with no f can overlap it
    (f's lift carries each arc onto the next), and these act on the arc as
    the line words transplanted by its chart, so the line words descend at
    the interval pulled back through the chart (`_arc_chart`).  Other
    actions and intervals, a circle interval on or across a marked point
    among them, are scanned in stepped values widened by eps per step
    (`_ball_bounds`).  The balls of radius 1 and 2 are screened before the
    full ball, so an interval refuted in the first shells never reaches
    it.  A word screened out could not overlap the interval under direct
    evaluation either; only the other words are evaluated directly from
    their trees, in `word_ball` order, and a probe with no such word
    answers SUPPORTS without enumerating the ball.
    """
    try:
        a, b = float(interval[0]), float(interval[1])
    except OverflowError:   # no repr: past 4,300 digits an int has none
        raise ValueError("interval end beyond the float range") from None
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be nonnegative and finite")
    size = check_word_budget(len(action.generators), radius)
    for x in (a, b):
        evaluate(Identity(), x, DEFAULT_EPS)    # rejects a non-finite endpoint
    parameters = {"interval": [a, b], "radius": radius, "tol": tol}
    for v in _candidates(action, a, b, radius):
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
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    lift = f.lift
    xs = [j / FIXED_POINT_GRID for j in range(FIXED_POINT_GRID + 1)]
    disp = [evaluate(lift, x, DEFAULT_EPS) - x for x in xs]
    plateau_eps = 1e-13
    roots: list[float] = []
    warned = False
    for m in range(math.floor(min(disp)), math.ceil(max(disp)) + 1):
        vals = [d - m for d in disp]
        for j in range(FIXED_POINT_GRID):
            v0, v1 = vals[j], vals[j + 1]
            if abs(v0) <= plateau_eps and abs(v1) <= plateau_eps:
                if not warned:
                    warnings.warn("interval of fixed points detected",
                                  NonIsolatedFixedPointsWarning, stacklevel=2)
                    warned = True
            elif abs(v0) <= plateau_eps:
                roots.append(xs[j])
            elif v0 * v1 < 0.0:
                # the sign of F(x) - x - m at lo stays the sign of v0
                lo, hi = xs[j], xs[j + 1]
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:   # no float left between the ends
                        break
                    fm = evaluate(lift, mid, DEFAULT_EPS) - mid - m
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm > 0.0) == (v0 > 0.0):
                        lo = mid
                    else:
                        hi = mid
                roots.append(0.5 * (lo + hi))
    return merge_circular(map(frac, roots), 2 * tol)
