"""The line construction's ball comes out sorted: `_sorted_values` gives the
multiset of `_level_values`, bit for bit, in increasing order, so `orbit`
hands `merge_sorted` a sorted list.  `transitivity_probe` reads its hit
bins off the sorted orbit by bisection, with the coverage of the former
set of bins.  Whatever the action's shape, `orbit`'s points are the
code-order ball merged, bit for bit."""

import math
import operator
import random
from collections import Counter

import pytest

from circledyn import (Translate, ZnAction, build_circle_action,
                       build_line_action, frac, orbit, parse_quad_irrational,
                       transitivity_probe)
from circledyn import probes
from circledyn.circle import merge_circular, merge_sorted
from circledyn.expr import BOUNDARY_DELTA
from circledyn.groups import is_circle
from circledyn.probes import DEDUP_RESOLUTION, OrbitSample, _sorted_values
from test_level_orbit import OFF_SHAPE

ALPHA = parse_quad_irrational("sqrt(2)-1")

#: (n, radius) of the line construction
LEVELS = [(2, 10), (3, 5), (4, 3), (5, 2)]

#: zeros of both signs, integers, next to a wall, inside the chart's guard
#: band on both sides, and large (2**52 + 0.5 rounds to an integer)
BASE_POINTS = (0.0, -0.0, 2.0, -3.0, 1 - 1e-12, 1 - BOUNDARY_DELTA / 2,
               3 + BOUNDARY_DELTA / 2, -BOUNDARY_DELTA / 2, 1e6 + 0.3,
               2.0**52 + 0.5, 0.37, -1.61)


def _nondecreasing(values):
    return all(map(operator.le, values, values[1:]))


@pytest.mark.parametrize("n,radius", LEVELS)
def test_sorted_ball_is_the_word_ball_in_order(n, radius):
    action = build_line_action(ALPHA, n)
    assert probes._closed_form(action.generators)
    rng = random.Random(f"sorted ball {n}")
    for x0 in BASE_POINTS + tuple(rng.uniform(-3.0, 3.0) for _ in range(4)):
        got = _sorted_values(action.generators, x0, radius)
        want = probes._level_values(action.generators, x0, radius)
        assert Counter(map(float.hex, got)) == Counter(map(float.hex, want))
        assert _nondecreasing(got), x0


def test_orbit_merges_a_sorted_ball(monkeypatch):
    merged = []
    merge = probes.merge_sorted

    def spy(values, resolution):
        merged.append((x0, _nondecreasing(values)))
        return merge(values, resolution)

    monkeypatch.setattr(probes, "merge_sorted", spy)
    action = build_line_action(ALPHA, 4)
    for x0 in (0.37, 0.5, 2.0, -1.61):
        orbit(action, x0, 5)
    # every list orbit merges is sorted; at 0.37 and -1.61 the top cell is
    # spaced, so the ball skips the merge
    assert merged == [(0.5, True), (2.0, True)]


#: an action of every shape that `orbit` fills: translation-only circle
#: actions of rank 1 and 2, the circle construction and the off-shape line
#: actions
SHAPES = {
    "rotation": ZnAction(n=1, generators=(Translate(float(ALPHA)),),
                         space="circle"),
    "rotations": ZnAction(n=2, generators=(Translate(1),
                                           Translate(float(ALPHA))),
                          space="circle"),
    "circle (2, 2, (1, 0))": build_circle_action(ALPHA, 2, 2, (1, 0)),
    **{name: ZnAction(n=len(gens), generators=gens)
       for name, gens in OFF_SHAPE.items()},
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_orbit_points_of_every_shape(name):
    # the points are the code-order ball merged, bit for bit, whichever
    # fill orbit takes: at the angle of x0 on the circle, and there in
    # closed form over the arc charts for the circle construction off its
    # walls and guard bands
    action = SHAPES[name]
    rng = random.Random(f"orbit shape {name}")
    base_points = (0.0, -0.0, 2, -3, 1 - 2.0**-53) + tuple(
        rng.uniform(-3.0, 3.0) for _ in range(3))
    for x0 in base_points:
        x = frac(x0) if is_circle(action) else float(x0)
        values = (probes._arc_values(action, x, 2)
                  or probes._level_values(action.generators, x, 2))
        if is_circle(action):
            want = merge_circular(map(frac, values), DEDUP_RESOLUTION)
        else:
            want = merge_sorted(values, DEDUP_RESOLUTION)
        got = orbit(action, x0, 2).points
        assert list(map(float.hex, got)) == list(map(float.hex, want)), x0


def _former_coverage(points, eps, window):
    """The former coverage: the set of bins of the points in the window."""
    a, b = window
    bins = max(1, math.ceil((b - a) / eps))
    hit = {min(int((y - a) / eps), bins - 1) for y in points if a <= y < b}
    return len(hit) / bins


def _probe_coverage(points, eps, window, monkeypatch):
    """transitivity_probe's coverage over an orbit of these points."""
    sample = OrbitSample(points=tuple(sorted(points)), radius=0,
                         base_point=0.0)
    monkeypatch.setattr(probes, "orbit", lambda action, x0, radius: sample)
    return transitivity_probe(None, 0.0, eps, 0, window).coverage


def _edges(a, eps, count):
    return [a + i * eps for i in range(count)]


@pytest.mark.parametrize("points,eps,window", [
    # every bin edge a + i * eps, a itself among them
    (_edges(0.0, 0.1, 11), 0.1, (0.0, 1.0)),
    (_edges(0.2, 0.1, 7), 0.1, (0.2, 0.8)),
    (_edges(-0.7, 0.3, 8) + [0.55], 0.3, (-0.7, 1.3)),
    # one ulp below b, b itself and beyond it
    ([math.nextafter(1.0, 0.0), 1.0, 1.5], 0.1, (0.0, 1.0)),
    ([math.nextafter(0.8, 0.0), 0.8, 0.2, math.nextafter(0.2, 0.0)], 0.1,
     (0.2, 0.8)),
    # y - a rounds up to b - a, a whole number of eps: the last bin's clamp
    ([math.nextafter(-0.8 + 1.0, 0.0)], 0.25, (-0.8, -0.8 + 1.0)),
    # an eps that does not divide the window: the last bin is short
    ([0.0, 0.29, 0.31, 0.95, 0.99, 1.2], 0.3, (0.0, 1.0)),
    # one bin, of the whole window or of more
    ([0.5], 1.0, (0.0, 1.0)),
    ([0.5, 0.7], 5.0, (0.0, 1.0)),
    ([-0.5, 1.0], 5.0, (0.0, 1.0)),
    # windows past every point, on either side
    ([0.1, 0.4, 0.9], 0.1, (10.0, 11.0)),
    ([0.1, 0.4, 0.9], 0.1, (-3.0, -2.0)),
    # no point at all, repeated points, and bins hit far apart
    ([], 0.1, (0.0, 1.0)),
    ([0.45, 0.45, 0.45, -0.0, 0.0], 0.1, (0.0, 1.0)),
    ([0.05, 0.95], 1e-9, (0.0, 1.0)),
])
def test_bisected_coverage_matches_the_former_set(points, eps, window,
                                                  monkeypatch):
    assert (_probe_coverage(points, eps, window, monkeypatch)
            == _former_coverage(points, eps, window))


def test_bisected_coverage_on_random_points(monkeypatch):
    rng = random.Random("bisected coverage")
    for _ in range(300):
        a = rng.choice([0.0, 0.2, rng.uniform(-2.0, 2.0)])
        b = a + rng.choice([1.0, 0.6, rng.uniform(1e-3, 3.0)])
        eps = rng.choice([0.1, 0.3, (b - a) / 7, rng.uniform(1e-4, 2.0)])
        points = [rng.uniform(a - 1.0, b + 1.0)
                  for _ in range(rng.randrange(60))]
        points += [a + i * eps for i in range(rng.randrange(5))]
        points.append(math.nextafter(b, a))
        assert (_probe_coverage(points, eps, (a, b), monkeypatch)
                == _former_coverage(points, eps, (a, b)))


@pytest.mark.parametrize("action,radius,eps,window", [
    (build_line_action(ALPHA, 3), 4, 0.05, (0.2, 0.8)),
    (build_line_action(ALPHA, 4), 3, 0.013, (-0.7, 1.3)),
    (build_circle_action(ALPHA, 2, 2, (1, 0)), 3, 0.1, (0.0, 1.0)),
])
def test_probe_coverage_over_orbits(action, radius, eps, window):
    for x0 in (0.0, 0.37, 1.0, -0.61):
        points = orbit(action, x0, radius).points
        report = transitivity_probe(action, x0, eps, radius, window)
        assert report.coverage == _former_coverage(points, eps, window)
