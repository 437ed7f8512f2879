"""The wandering screen of the circle construction on an interval inside
one arc: (a, b) is pulled back through the arc's chart and the base words
descend there, with the exponent of f 0, since every other word moves the
arc off itself.  The descent keeps every word the stepped screen keeps, at
every stage, and the reports equal the stepped screen's.  Intervals on or
across a marked point, within the wall margin, on k = 1 and too large for
their arc to be found keep the stepped screen, with the same reports."""

import math
import random

import pytest

from circledyn import (build_circle_action, evaluate, parse_quad_irrational,
                       wandering_probe, word_to_homeo)
from circledyn import probes
from circledyn.expr import DEFAULT_EPS
from circledyn.probes import ProbeVerdict
from test_wandering_descent import _scan
from test_wandering_screen import _stepped_wandering

ALPHA = parse_quad_irrational("sqrt(2)-1")

#: (n, k, g_word) -> radius
CIRCLES = {(2, 2, (1, 0)): 4, (2, 3, (1, 0)): 3, (3, 2, (1, 0, 1)): 2,
           (2, 4, (1, 0)): 3, (3, 3, (0, 1, 1)): 2, (2, 3, (2, 1)): 3,
           (2, 5, (1, 1)): 3}

WIDTHS = (1e-10, 1e-6, 1e-4, 1e-2)


def _edge(takes):
    """(inside, outside): gaps on either side of the wall margin, the
    largest that `takes` refuses and the smallest it accepts, to 2^-80 of
    1e-6."""
    inside, outside = 0.0, 1e-6
    assert takes(outside) and not takes(inside)
    for _ in range(80):
        mid = 0.5 * (inside + outside)
        if takes(mid):
            outside = mid
        else:
            inside = mid
    return inside, outside


def _wall_intervals(action, radius, arc):
    """Intervals of width 1e-6 next to the lower and the upper wall of the
    arc, and one filling the arc, each (inside, outside) the wall margin."""
    k = action.k
    low, high = arc / k, (arc + 1) / k

    def takes(interval):
        return probes._arc_chart(action, *interval, radius) is not None

    shapes = [lambda g: (low + g, low + g + 1e-6),
              lambda g: (high - g - 1e-6, high - g),
              lambda g: (low + g, high - g)]
    out = []
    for shape in shapes:
        inside, outside = _edge(lambda g: takes(shape(g)))
        out.append((shape(inside), shape(outside)))
    return out


def _one_arc_intervals(action, radius, seed):
    """Seeded intervals of each width, one in each cell m in [-3, 3] on a
    seeded arc, then intervals just outside the wall margin of two arcs."""
    rng = random.Random(seed)
    k = action.k
    out = []
    for width in WIDTHS:
        for m in range(-3, 4):
            arc = m * k + rng.randrange(k)
            a = rng.uniform(arc / k, (arc + 1) / k - width)
            out.append((a, a + width))
    for arc in (0, -k - 1):
        out += [outside for _, outside in _wall_intervals(action, radius, arc)]
    return out


@pytest.mark.parametrize("spec", sorted(CIRCLES))
def test_arc_descent_keeps_every_word_the_stepped_screen_keeps(spec):
    action, radius = build_circle_action(ALPHA, *spec), CIRCLES[spec]
    verdicts = set()
    for a, b in _one_arc_intervals(action, radius, f"arc {spec}"):
        chart = probes._arc_chart(action, a, b, radius)
        assert chart is not None, (a, b)
        for stage in sorted({1, 2, radius}):
            words = [v + (0,) for v in probes._descent(*chart, stage)]
            assert all(v[-1] == 0 for v in words)
            assert words == sorted(words)
            assert set(_scan(action.generators, a, b, stage)) <= set(words), \
                (a, b, stage)
        got = wandering_probe(action, (a, b), radius)
        want = _stepped_wandering(action, (a, b), radius)
        assert got.as_jsonable() == want.as_jsonable(), (a, b)
        verdicts.add(got.verdict)
    assert verdicts == {ProbeVerdict.REFUTES, ProbeVerdict.SUPPORTS}


@pytest.fixture
def calls(monkeypatch):
    """Calls of the probes' word builder, evaluator, stepped bounds and
    descent, counted by name and reset by the test."""
    counts = {}
    for name in ("word_to_homeo", "evaluate", "_ball_bounds", "_descent"):
        inner = getattr(probes, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        counts[name] = 0
        monkeypatch.setattr(probes, name, counted)
    return counts


def _fallbacks():
    """(spec, radius, interval): on, ending on and across a marked point,
    across arcs, within the wall margin of two arcs, and on k = 1."""
    c22 = (2, 2, (1, 0))
    out = [(c22, 4, (0.5, 0.5 + 1e-6)), (c22, 4, (0.5 - 1e-6, 0.5)),
           (c22, 4, (0.5 - 1e-6, 0.5 + 1e-6)), (c22, 4, (0.3, 0.7)),
           (c22, 4, (-1.0, -0.5))]
    for spec in (c22, (2, 3, (1, 0)), (3, 2, (1, 0, 1))):
        radius = CIRCLES[spec]
        action = build_circle_action(ALPHA, *spec)
        for arc in (1, -2):
            out += [(spec, radius, inside) for inside, _
                    in _wall_intervals(action, radius, arc)]
    rng = random.Random("k = 1")
    for width in WIDTHS + (0.2,):
        a = rng.uniform(-2.0, 2.0)
        out.append(((2, 1, (1, 1)), 3, (a, a + width)))
    return out


def test_the_fallbacks_keep_the_stepped_screen(calls):
    verdicts = set()
    for spec, radius, interval in _fallbacks():
        action = build_circle_action(ALPHA, *spec)
        assert probes._arc_chart(action, *interval, radius) is None
        calls.update(_ball_bounds=0, _descent=0)
        got = wandering_probe(action, interval, radius)
        assert calls["_ball_bounds"] >= 1 and calls["_descent"] == 0
        want = _stepped_wandering(action, interval, radius)
        assert got.as_jsonable() == want.as_jsonable(), (spec, interval)
        verdicts.add(got.verdict)
    assert verdicts == {ProbeVerdict.REFUTES, ProbeVerdict.SUPPORTS}


def test_intervals_too_large_for_their_arc_keep_the_stepped_screen(calls):
    # k * a overflows; the reports are those of the stepped screen
    action = build_circle_action(ALPHA, 2, 2, (1, 0))
    report = wandering_probe(action, (1e308, 1.7e308), 2)
    assert report.as_jsonable() == {
        "verdict": "SUPPORTS", "coverage": 1.0,
        "parameters": {"interval": [1e308, 1.7e308], "radius": 2,
                       "tol": 1e-9}}
    # both stages, radius 1 and 2, are bounded by stepping
    assert calls["_ball_bounds"] == 2 and calls["_descent"] == 0
    calls.update(_ball_bounds=0)
    report = wandering_probe(action, (-1.7e308, 1.7e308), 2)
    assert report.as_jsonable() == {
        "verdict": "REFUTES", "coverage": 0.016,
        "parameters": {"interval": [-1.7e308, 1.7e308], "radius": 2,
                       "tol": 1e-9},
        "certificate": {"word": [-1, -1, -1], "image": [-1.7e308, 1.7e308]}}
    assert calls["_ball_bounds"] == 1 and calls["_descent"] == 0


def test_narrow_one_arc_probe_on_c22_radius4_evaluates_no_word(calls):
    # the stepped screen made about 1,760 evaluate calls for each
    action = build_circle_action(ALPHA, 2, 2, (1, 0))
    for a in (0.4137, 0.8, -0.61, 1.3):
        calls.update(word_to_homeo=0, evaluate=0, _ball_bounds=0,
                     _descent=0)
        report = wandering_probe(action, (a, a + 1e-6), 4)
        assert report.verdict is ProbeVerdict.SUPPORTS
        assert calls["word_to_homeo"] == 0
        assert calls["evaluate"] < 10
        assert calls["_ball_bounds"] == 0
        assert calls["_descent"] == 3


@pytest.mark.parametrize("spec", sorted(CIRCLES))
def test_arc_descent_keeps_a_word_one_ulp_inside_the_interval(spec):
    """A word whose evaluated image of one end lies one ulp inside (a, b)
    overlaps it, and the descent keeps it."""
    action, radius = build_circle_action(ALPHA, *spec), CIRCLES[spec]
    base = action.base.generators
    rng = random.Random(f"ulp {spec}")
    k = action.k
    kept = 0
    for _ in range(200):
        v = tuple(rng.randint(-radius, radius) for _ in base) + (0,)
        arc = rng.randrange(-2 * k, 2 * k)
        x = rng.uniform(arc / k, (arc + 1) / k)
        gx = evaluate(word_to_homeo(action, v), x, DEFAULT_EPS)
        if gx > x:      # g(a) one ulp below b
            a, b = x, math.nextafter(gx, math.inf)
        elif gx < x:    # g(b) one ulp above a
            a, b = math.nextafter(gx, -math.inf), x
        else:
            continue
        chart = probes._arc_chart(action, a, b, radius)
        if chart is not None:
            words = [w + (0,) for w in probes._descent(*chart, radius)]
            assert v in words, (v, a, b)
            kept += 1
    assert kept >= 150
