"""The circle construction's orbit in closed form: each exponent w of f
gives the line ball at g^q(y), y the base angle pulled back through its arc
chart, pushed into arc (i + w) mod k.  Its points agree with direct
evaluation of every word's tree, reduced mod 1, within 2e-14, and keep the
stepped fill's count; k = 1, the marked points, the chart's guard band and
actions of another shape stay stepped.  A circle base point is reduced to
its angle before any fill."""

import bisect
import itertools
import random

import pytest

from circledyn import (CircleZnAction, ZnAction, build_circle_action,
                       evaluate, orbit, parse_quad_irrational,
                       transitivity_probe, word_to_homeo)
from circledyn import probes
from circledyn.circle import circular_distance, frac, merge_circular
from circledyn.expr import BOUNDARY_DELTA, DEFAULT_EPS
from circledyn.probes import DEDUP_RESOLUTION

ALPHA = parse_quad_irrational("sqrt(2)-1")
TOL = 2e-14
C22 = build_circle_action(ALPHA, 2, 2, (1, 0))

#: (n, k, g_word) for n in {2, 3} and k in {2, 3, 4}
SPECS = [(2, 2, (1, 0)), (2, 3, (1, 0)), (2, 4, (1, 1)),
         (3, 2, (1, 0, 1)), (3, 3, (0, 1, 1)), (3, 4, (1, 0, 0))]


def _near(points, p) -> float:
    """The circular distance from p to the nearest of the sorted angles."""
    i = bisect.bisect_left(points, p)
    return min(circular_distance(p, points[j % len(points)])
               for j in (i - 1, i))


def _direct(action, x0, radius):
    rank = len(action.generators)
    return sorted(frac(evaluate(word_to_homeo(action, v), x0, DEFAULT_EPS))
                  for v in itertools.product(range(-radius, radius + 1),
                                             repeat=rank))


def _stepped(action, x, radius):
    values = probes._level_values(action.generators, x, radius)
    return merge_circular(map(frac, values), DEDUP_RESOLUTION)


@pytest.mark.parametrize("spec", SPECS)
def test_closed_form_orbit_matches_each_words_tree(spec):
    action = build_circle_action(ALPHA, *spec)
    n, k = spec[0], spec[1]
    radius = 3 if n == 2 else 2
    rng = random.Random(f"closed form {spec}")
    inside = [rng.uniform(0.0, 1.0) for _ in range(4)]
    outside = [rng.uniform(-3.0, -0.1), rng.uniform(1.1, 3.0)]
    # 1e-12 and 1e-9 off a wall: clear of the guard band, so closed form
    walls = [1 / k - 1e-12, 1 / k + 1e-9, 1 - 1e-12]
    for x0 in inside + outside + walls:
        assert probes._arc_values(action, frac(x0), radius) is not None
        points = orbit(action, x0, radius).points
        direct = _direct(action, x0, radius)
        assert max(_near(direct, p) for p in points) <= TOL, x0
        assert max(_near(list(points), d) for d in direct) <= TOL, x0
        if x0 not in walls:
            assert len(points) == len(_stepped(action, frac(x0), radius)), x0


@pytest.mark.parametrize("spec", SPECS)
def test_closed_form_ball_is_sorted_angles(spec):
    action = build_circle_action(ALPHA, *spec)
    rng = random.Random(f"sorted angles {spec}")
    for x in [rng.uniform(0.0, 1.0) for _ in range(10)] + [1 - 1e-15]:
        values = probes._arc_values(action, x, 2)
        assert len(values) == 5 ** len(action.generators)
        assert all(0.0 <= a < 1.0 for a in values)
        assert values == sorted(values)


def test_an_angle_rounded_to_one_is_the_angle_zero():
    # f^-1 carries x0, 4e-17 below the wall 1/32, to 4e-17 below 1 in the
    # last arc, where (31 + hbar)/32 rounds to 1.0: the fill gives it as 0.0
    action = build_circle_action(ALPHA, 2, 32, (1, 0))
    x0 = 1 / 32 - 4e-17
    values = probes._arc_values(action, x0, 1)
    assert values[0] == 0.0 and 1.0 not in values
    assert values == sorted(values)
    points = orbit(action, x0, 1).points
    assert max(_near(_direct(action, x0, 1), p) for p in points) <= TOL


@pytest.fixture
def stepped_calls(monkeypatch):
    """The generators' tuples that `_level_values` is called on."""
    calls = []
    fill = probes._level_values

    def spy(generators, *args):
        calls.append(generators)
        return fill(generators, *args)
    monkeypatch.setattr(probes, "_level_values", spy)
    return calls


def _hand_built(action):
    """The same lifts in a plain circle ZnAction, not the construction."""
    return ZnAction(n=len(action.generators), generators=action.generators,
                    space="circle")


def _other_g(action):
    """The construction's record with a g_word that f does not transplant."""
    return CircleZnAction(action.n, action.k, action.base, (0, 1), action.f,
                          action.generators, action.marked_angles)


@pytest.mark.parametrize("action,x0,closed", [
    (C22, 0.37, True),
    (C22, -1.63, True),
    (build_circle_action(ALPHA, 2, 1, (1, 1)), 0.37, False),
    (C22, 0.5, False),
    (C22, 0.5 + BOUNDARY_DELTA / 4, False),
    (C22, 0.5 - BOUNDARY_DELTA / 4, False),
    (_hand_built(C22), 0.37, False),
    (_other_g(C22), 0.37, False),
], ids=["c22", "c22 outside", "k 1", "marked point", "guard band above",
        "guard band below", "hand-built", "other g"])
def test_which_fill_the_circle_orbit_takes(stepped_calls, action, x0,
                                           closed):
    orbit(action, x0, 4)
    assert (action.generators in stepped_calls) is not closed


@pytest.mark.parametrize("spec,radius,expected", [
    ((2, 2, (1, 0)), 4, 6), ((3, 2, (1, 0, 1)), 3, 5)])
def test_closed_form_evaluates_once_per_distinct_q(spec, radius, expected,
                                                   monkeypatch):
    # the base point's check and one evaluation of g^q per distinct q,
    # against 729 and 2,401 when stepped
    calls = [0]
    inner = probes.evaluate

    def counted(*args):
        calls[0] += 1
        return inner(*args)
    monkeypatch.setattr(probes, "evaluate", counted)
    orbit(build_circle_action(ALPHA, *spec), 0.37, radius)
    assert calls[0] == expected


@pytest.mark.parametrize("x0,angle", [
    (1e17, 0.0), (2.0**53, 0.0), (-1e300, 0.0), (1e15 + 0.25, 0.25)])
def test_large_base_points_are_reduced_to_their_angle(x0, angle):
    # f's lift at 1e17 absorbed its 1/2: the orbit was (0.0,)
    assert orbit(C22, x0, 2).points == orbit(C22, angle, 2).points
    far = transitivity_probe(C22, x0, 0.1, 2)
    near = transitivity_probe(C22, angle, 0.1, 2)
    assert far.as_jsonable() == near.as_jsonable()
