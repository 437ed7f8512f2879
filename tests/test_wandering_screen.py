"""The wandering screen of the line construction: bounds on the images of
the interval's endpoints read from the level-recursive values at a and at
b instead of stepping every word.  The bounds hold for every word of the
ball, the reports equal those of the former step-engine screen, and a
narrow probe that finds nothing evaluates no word at all (counted, so
independent of the machine; the step-engine screen made about 40,900
evaluate calls for n = 4, radius 5)."""

import itertools
import math
import random

import pytest

from circledyn import (CircleHomeo, Translate, ZnAction, build_circle_action,
                       build_line_action, evaluate, inverse,
                       parse_quad_irrational, wandering_probe, word_ball,
                       word_to_homeo)
from circledyn import probes
from circledyn.errors import DomainError
from circledyn.expr import DEFAULT_EPS
from circledyn.groups import check_word_budget
from circledyn.probes import ProbeReport, ProbeVerdict, _level_bounds

ALPHA = parse_quad_irrational("sqrt(2)-1")
AF = ALPHA.value(1e-18)

#: (n, radius) small enough to evaluate every word's tree
LEVELS = [(2, 10), (3, 4), (4, 3), (5, 2)]

#: translation-only actions, one with a large translation, and a radius
TRANSLATIONS = {
    "unit and alpha": ((Translate(1), Translate(AF)), 10),
    "large": ((Translate(1e6), Translate(0.3)), 10),
    "three": ((Translate(1e6), Translate(-2.5), Translate(AF)), 5),
}


def _endpoint_intervals(seed):
    """Seeded intervals plus endpoints that are integers, negative, and
    1 - 1e-12, next to a cell wall."""
    rng = random.Random(seed)
    a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    return [(a, a + 0.2), (b, b + 1e-6), (2.0, 3.0), (-1.37, -1.0),
            (1 - 1e-12, 1.25), (0.5, 1 - 1e-12)]


def _assert_bounds_hold(action, radius, interval):
    a, b = interval
    lo, hi = _level_bounds(action.generators, a, b, radius)
    span = range(-radius, radius + 1)
    words = itertools.product(span, repeat=len(action.generators))
    for code, v in enumerate(words):
        g = word_to_homeo(action, v)
        assert lo[code] <= evaluate(g, a, DEFAULT_EPS) - DEFAULT_EPS, (v, a)
        assert hi[code] >= evaluate(g, b, DEFAULT_EPS) + DEFAULT_EPS, (v, b)


@pytest.mark.parametrize("n,radius", LEVELS)
def test_level_bounds_hold_for_every_word_of_the_line_construction(n, radius):
    action = build_line_action(ALPHA, n)
    for interval in _endpoint_intervals(f"bounds {n}"):
        _assert_bounds_hold(action, radius, interval)


@pytest.mark.parametrize("name", sorted(TRANSLATIONS))
def test_level_bounds_hold_for_translation_actions(name):
    gens, radius = TRANSLATIONS[name]
    action = ZnAction(n=len(gens), generators=gens)
    for interval in _endpoint_intervals(f"bounds {name}"):
        _assert_bounds_hold(action, radius, interval)


def _identity_on_interval(g, a, b, tol, eps):
    for j in range(probes.IDENTITY_SAMPLES):
        x = a + (b - a) * (j + 0.5) / probes.IDENTITY_SAMPLES
        if abs(evaluate(g, x, eps) - x) > tol:
            return False
    return True


def _stepped_wandering(action, interval, radius, tol=1e-9):
    """The former probe: every word stepped from its neighbour on bounds
    that widen by eps per step, and the words the bounds cannot rule out
    evaluated from their trees.  A word's neighbour has every coordinate of
    largest absolute value moved one step toward 0, and the word is its
    neighbour followed by one generator step per such coordinate, in
    coordinate order."""
    a, b = float(interval[0]), float(interval[1])
    rank = len(action.generators)
    size = check_word_budget(rank, radius)
    eps = DEFAULT_EPS
    steps = []
    for g in action.generators:
        h = g.lift if isinstance(g, CircleHomeo) else g
        steps.append((h, inverse(h)))
    bounds = {}
    checked = 0
    for v in word_ball(rank, radius):
        checked += 1
        s = max(map(abs, v))
        if s == 0:
            bounds[v] = (a, b)
            continue
        pred = tuple(e - (e > 0) + (e < 0) if abs(e) == s else e for e in v)
        lo, hi = bounds[pred]
        for i, e in enumerate(v):
            if abs(e) == s:
                h = steps[i][0 if e > 0 else 1]
                lo = evaluate(h, lo, eps) - eps
                hi = evaluate(h, hi, eps) + eps
        bounds[v] = (lo, hi)
        if lo - eps >= b or hi + eps <= a:
            continue
        g = word_to_homeo(action, v)
        if not (evaluate(g, a, eps) < b and evaluate(g, b, eps) > a):
            continue
        if _identity_on_interval(g, a, b, tol, eps):
            continue
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


#: name -> (action, radius); lines of n = 2..5, translation-only actions
#: and circles
ORACLE_CASES = {
    "line n2": (lambda: build_line_action(ALPHA, 2), 12),
    "line n3": (lambda: build_line_action(ALPHA, 3), 5),
    "line n4": (lambda: build_line_action(ALPHA, 4), 3),
    "line n5": (lambda: build_line_action(ALPHA, 5), 2),
    "translations large": (lambda: ZnAction(
        n=2, generators=(Translate(1e6), Translate(0.3))), 6),
    "circle (2,2)": (lambda: build_circle_action(ALPHA, 2, 2, (1, 0)), 3),
    "circle (2,4)": (lambda: build_circle_action(ALPHA, 2, 4, (1, 0)), 2),
    "circle (3,2)": (lambda: build_circle_action(ALPHA, 3, 2, (1, 0, 1)), 2),
}


def _oracle_intervals(seed):
    """Seeded wide, narrow and 1e-10 intervals, and integer endpoints."""
    rng = random.Random(seed)
    out = []
    for width in (0.2, 1e-6, 1e-10):
        for _ in range(2):
            a = rng.uniform(-1.5, 1.5)
            out.append((a, a + width))
    return out + [(1.0, 2.0), (-1.0, 0.0), (0.0, 0.5)]


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_reports_equal_the_stepped_screen(name):
    build, radius = ORACLE_CASES[name]
    action = build()
    verdicts = set()
    for interval in _oracle_intervals(f"oracle {name}"):
        got = wandering_probe(action, interval, radius)
        want = _stepped_wandering(action, interval, radius)
        assert got.as_jsonable() == want.as_jsonable(), interval
        verdicts.add(got.verdict)
    assert verdicts == {ProbeVerdict.REFUTES, ProbeVerdict.SUPPORTS}


def test_narrow_probe_on_n4_radius5_evaluates_no_word(monkeypatch):
    calls = {"word_to_homeo": 0, "evaluate": 0}

    def counted(name):
        inner = getattr(probes, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(probes, name, wrapper)

    counted("word_to_homeo")
    counted("evaluate")
    action = build_line_action(ALPHA, 4)
    for a in (0.4137, 1.8, -0.61):
        calls.update(word_to_homeo=0, evaluate=0)
        report = wandering_probe(action, (a, a + 1e-6), 5)
        assert report.verdict is ProbeVerdict.SUPPORTS
        assert calls["word_to_homeo"] == 0
        assert calls["evaluate"] < 10


def test_refuted_interval_bounds_only_the_first_ball(monkeypatch):
    radii = []
    bounds = probes._level_bounds

    def spy(generators, a, b, radius):
        radii.append(radius)
        return bounds(generators, a, b, radius)

    monkeypatch.setattr(probes, "_level_bounds", spy)
    report = wandering_probe(build_line_action(ALPHA, 4), (0.3, 0.5), 5)
    assert report.verdict is ProbeVerdict.REFUTES
    assert radii == [1]
    radii.clear()
    report = wandering_probe(build_line_action(ALPHA, 4), (0.3, 0.3 + 1e-6), 5)
    assert report.verdict is ProbeVerdict.SUPPORTS
    assert radii == [1, 2, 5]


@pytest.mark.parametrize("rank,radius", [(1, 4), (2, 4), (3, 3), (4, 2)])
def test_ball_position_is_the_word_ball_order(rank, radius):
    for position, v in enumerate(word_ball(rank, radius), start=1):
        assert probes._ball_position(v) == position


def test_infinite_endpoint_is_a_domain_error():
    action = build_line_action(ALPHA, 3)
    with pytest.raises(DomainError):
        wandering_probe(action, (-math.inf, 0.5), 2)
    with pytest.raises(DomainError):
        wandering_probe(action, (0.5, math.inf), 0)
