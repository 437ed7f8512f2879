"""Every word ball is filled one generator at a time.  A level that is not a
closed form, a circle action's lifts among them, is stepped: the first
generator moves each point of the others' ball from shift j - 1 to j.  That
is one evaluation per non-zero word (counted, so independent of the
machine), the values agree with direct evaluation of every word's tree, and
the wandering screen's widened bounds hold for every word."""

import itertools

import pytest

from circledyn import (build_circle_action, evaluate, orbit,
                       parse_quad_irrational, wandering_probe, word_to_homeo)
from circledyn import probes
from circledyn.expr import DEFAULT_EPS
from circledyn.probes import ProbeVerdict

ALPHA = parse_quad_irrational("sqrt(2)-1")

CIRCLES = [(2, 2, (1, 0)), (2, 2, (1, 1)), (2, 3, (1, 0)), (2, 4, (1, 0)),
           (2, 5, (1, 1)), (3, 2, (1, 0, 1))]

#: base points: 0, the middle, next to the wall at 1, negative and large
BASE_POINTS = (0.0, 0.5, 1 - 1e-12, -0.3, -2.75, 3.1)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """The number of evaluate calls the probes make, reset by the test."""
    calls = [0]
    inner = probes.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(probes, "evaluate", counted)
    return calls


@pytest.mark.parametrize("spec,radius,expected", [
    ((2, 2, (1, 0)), 4, 729), ((3, 2, (1, 0, 1)), 3, 2401)])
def test_circle_orbit_evaluates_once_per_word(spec, radius, expected,
                                              evaluate_calls):
    # one evaluation per non-zero word plus the base point's check; the
    # shell-by-shell step engine made 985 and 3,961.  The marked points and
    # a point in the chart's guard band are stepped; other base points take
    # the closed form (test_circle_closed_form.py)
    action = build_circle_action(ALPHA, *spec)
    rank = len(action.generators)
    assert expected == (2 * radius + 1) ** rank
    for x0 in (0.5, -1.0, 0.5 + 2.0**-52):
        evaluate_calls[0] = 0
        orbit(action, x0, radius)
        assert evaluate_calls[0] == expected


def test_narrow_circle_probe_evaluation_count(evaluate_calls):
    # the step engine's screen made 1,970 calls for this probe
    action = build_circle_action(ALPHA, 2, 2, (1, 0))
    report = wandering_probe(action, (0.4137, 0.4137 + 1e-6), 4)
    assert report.verdict is ProbeVerdict.SUPPORTS
    assert evaluate_calls[0] <= 1970


def _words(rank, radius):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


@pytest.mark.parametrize("spec", CIRCLES)
def test_circle_values_match_direct_evaluation(spec):
    action = build_circle_action(ALPHA, *spec)
    rank = len(action.generators)
    radius = 2 if rank == 3 else 1
    for x0 in BASE_POINTS:
        values = probes._level_values(action.generators, x0, radius)
        for code, v in enumerate(_words(rank, radius)):
            direct = evaluate(word_to_homeo(action, v), x0, DEFAULT_EPS)
            assert abs(values[code] - direct) <= 1e-12, (v, x0)


@pytest.mark.parametrize("spec", [(2, 2, (1, 0)), (2, 3, (1, 0)),
                                  (3, 2, (1, 0, 1))])
def test_stepped_bounds_hold_for_every_word(spec):
    action = build_circle_action(ALPHA, *spec)
    rank = len(action.generators)
    radius = 2 if rank == 3 else 1
    eps = DEFAULT_EPS
    for a, b in [(0.3, 0.5), (-1.2, -1.2 + 1e-6), (1 - 1e-12, 1.25)]:
        lo, hi = probes._ball_bounds(action.generators, a, b, radius)
        for code, v in enumerate(_words(rank, radius)):
            g = word_to_homeo(action, v)
            assert lo[code] - eps <= evaluate(g, a, eps), (v, a)
            assert hi[code] + eps >= evaluate(g, b, eps), (v, b)


def test_circle_screen_bounds_the_first_ball_first(monkeypatch):
    radii = {"_ball_bounds": [], "_descent": []}

    def spy(name):
        inner = getattr(probes, name)

        def wrapper(*args):
            radii[name].append(args[-1])
            return inner(*args)
        monkeypatch.setattr(probes, name, wrapper)

    spy("_ball_bounds")
    spy("_descent")
    action = build_circle_action(ALPHA, 2, 2, (1, 0))
    # b is the marked point 0.5, a wall of the arcs: the stepped screen
    assert wandering_probe(action, (0.3, 0.5), 4).verdict is \
        ProbeVerdict.REFUTES
    assert radii == {"_ball_bounds": [1], "_descent": []}
    # inside the arc (0, 0.5): the arc's descent, in the same stages
    radii["_ball_bounds"].clear()
    assert wandering_probe(action, (0.4137, 0.4137 + 1e-6), 4).verdict is \
        ProbeVerdict.SUPPORTS
    assert radii == {"_ball_bounds": [], "_descent": [1, 2, 4]}
    # across the marked point 0.5: the stepped screen
    radii["_descent"].clear()
    assert wandering_probe(action, (0.5 - 1e-6, 0.5 + 1e-6), 4).verdict is \
        ProbeVerdict.SUPPORTS
    assert radii == {"_ball_bounds": [1, 2, 4], "_descent": []}
