"""The wandering screen's descent through the levels of the line
construction and of translation-only actions: it keeps every word whose
direct evaluation overlaps the interval, and every word that the
whole-ball scan of `_ball_bounds` keeps, in code order, without filling
the ball.  Walls, integer points, the chart's guard band, far cells and
intervals too wide for b - a to be a float are among the inputs."""

import itertools
import json
import math
import random

import pytest

from circledyn import (Translate, ZnAction, build_line_action, evaluate,
                       parse_quad_irrational, wandering_probe, word_to_homeo)
from circledyn import probes
from circledyn.cli import main
from circledyn.expr import DEFAULT_EPS
from circledyn.probes import ProbeVerdict

ALPHA = parse_quad_irrational("sqrt(2)-1")
AF = ALPHA.value(1e-18)
EPS = DEFAULT_EPS

#: name -> (action, radius small enough to evaluate every word's tree)
ACTIONS = {
    "line n2": (build_line_action(ALPHA, 2), 10),
    "line n3": (build_line_action(ALPHA, 3), 4),
    "line n4": (build_line_action(ALPHA, 4), 3),
    "line n5": (build_line_action(ALPHA, 5), 2),
    "unit and alpha": (ZnAction(n=2, generators=(Translate(1), Translate(AF))),
                       10),
    "large": (ZnAction(n=2, generators=(Translate(1e6), Translate(0.3))), 10),
    "three": (ZnAction(n=3, generators=(Translate(1e6), Translate(-2.5),
                                        Translate(AF))), 5),
    "with zero": (ZnAction(n=3, generators=(Translate(0.7), Translate(0),
                                            Translate(AF))), 4),
}

#: intervals at integers, touching or spanning a cell wall, next to a wall
#: (1 - 1e-12) and inside the chart's guard band, in negative and far
#: cells, and too wide for b - a
SPECIAL = [(2.0, 3.0), (-1.0, 0.0), (0.5, 1.0), (1.0, 1.3), (0.9, 1.1),
           (-0.1, 0.1), (1 - 1e-12, 1.25), (0.5, 1 - 1e-12), (1e-16, 0.5),
           (0.5, 1 - 1e-16), (1 - 5e-16, 1 + 5e-16), (-1e-17, 0.3),
           (-1.37, -1.0), (-2.6, -2.6 + 1e-6), (1e3 + 0.25, 1e3 + 0.25 + 1e-6),
           (-1e3 - 0.7, -1e3 - 0.7 + 1e-10), (1e16, 1e16 + 4), (1e300, 2e300),
           (1e308, 1.7e308), (-1.7e308, 1.7e308)]


def _intervals(seed):
    """Seeded intervals of widths 0.2, 1e-6 and 1e-10, then SPECIAL."""
    rng = random.Random(seed)
    out = []
    for width in (0.2, 1e-6, 1e-10):
        for _ in range(3):
            a = rng.uniform(-2.5, 2.5)
            out.append((a, a + width))
    return out + SPECIAL


def _scan(generators, a, b, radius):
    """The words of the whole-ball scan: bounds from `_ball_bounds` that do
    not lie eps clear of (a, b)."""
    lo, hi = probes._ball_bounds(generators, a, b, radius)
    span = range(-radius, radius + 1)
    return [v for v, low, high
            in zip(itertools.product(span, repeat=len(generators)), lo, hi)
            if low - EPS < b and high + EPS > a]


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_descent_keeps_every_overlapping_word(name):
    action, radius = ACTIONS[name]
    span = range(-radius, radius + 1)
    trees = [(v, word_to_homeo(action, v))
             for v in itertools.product(span, repeat=action.n)]
    for a, b in _intervals(f"brute {name}"):
        found = set(probes._descent(action.generators, a, b, a, b, radius))
        for v, g in trees:
            if evaluate(g, a, EPS) < b and evaluate(g, b, EPS) > a:
                assert v in found, (v, a, b)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_descent_contains_the_scan_in_code_order(name):
    action, radius = ACTIONS[name]
    for a, b in _intervals(f"scan {name}"):
        for stage in (1, 2, radius):
            words = probes._descent(action.generators, a, b, a, b, stage)
            assert words == sorted(set(words)), (a, b, stage)
            missed = set(_scan(action.generators, a, b, stage)) - set(words)
            assert not missed, (a, b, stage, sorted(missed)[:3])


@pytest.mark.parametrize("n,radius", [(2, 50), (3, 8), (4, 5)])
def test_descent_equals_the_scan_on_seeded_intervals(n, radius):
    """On the intervals of the wordball benchmark's kind the descent finds
    exactly the scan's words: no extra candidate."""
    generators = build_line_action(ALPHA, n).generators
    rng = random.Random(f"seeded {n}")
    for width in (0.2, 1e-6):
        for _ in range(5):
            a = rng.uniform(0.1, 0.9)
            for stage in (1, 2, radius):
                b = a + width
                assert (probes._descent(generators, a, b, a, b, stage)
                        == _scan(generators, a, b, stage))


def test_narrow_n4_radius5_interval_that_refutes():
    action = build_line_action(ALPHA, 4)
    report = wandering_probe(
        action, (0.49945796053289726, 0.49945896053289723), 5)
    assert report.verdict is ProbeVerdict.REFUTES
    assert report.certificate["word"] == [0, 0, -1, 2]


def test_descent_fills_no_ball(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the descent filled a ball")

    monkeypatch.setattr(probes, "_level_values", refuse)
    monkeypatch.setattr(probes, "_ball_bounds", refuse)
    action = build_line_action(ALPHA, 4)
    report = wandering_probe(action, (0.4137, 0.4137 + 1e-6), 5)
    assert report.verdict is ProbeVerdict.SUPPORTS


def test_widest_intervals_are_probed():
    action = build_line_action(ALPHA, 3)
    report = wandering_probe(action, (1e308, 1.7e308), 2)
    assert report.verdict is ProbeVerdict.SUPPORTS
    report = wandering_probe(action, (-1.7e308, 1.7e308), 2)
    assert report.verdict is ProbeVerdict.REFUTES
    ga, gb = report.certificate["image"]
    assert ga < 1.7e308 and gb > -1.7e308


def test_cli_probes_the_widest_interval(tmp_path, capsys):
    bundle = tmp_path / "g3.json"
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", "3",
                 "--output", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["probe-wandering", "--group", str(bundle),
                 "--interval=1e308,1.7e308", "--radius", "2"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == "SUPPORTS" and err == ""


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_descend_keeps_a_word_one_ulp_inside_its_target(name):
    """`_descend`'s own contract, at the resolution of a float: a word whose
    `_level_values` value at xa is one ulp below hi, and at xb one ulp
    above lo, is kept, however its levels round."""
    action, radius = ACTIONS[name]
    generators = action.generators
    rng = random.Random(f"ulp {name}")
    points = [rng.uniform(-3.0, 3.0) for _ in range(6)]
    points += [0.0, 1 - 1e-12, 1e-16, 1 - 1e-16, -1e-17, 1e3 + 0.37, 1e16]
    span = range(-radius, radius + 1)
    words = list(itertools.product(span, repeat=len(generators)))
    for xa, xb in zip(points, points[1:] + points[:1]):
        at_a = probes._level_values(generators, xa, radius)
        at_b = probes._level_values(generators, xb, radius)
        for code in rng.sample(range(len(at_a)), 40):
            hi = math.nextafter(at_a[code], math.inf)
            lo = math.nextafter(at_b[code], -math.inf)
            kept = probes._descend(generators, xa, xb, lo, hi, radius)
            assert words[code] in kept, (xa, xb)
