"""Orbit points, transitivity reports and wandering reports, hashed over
seeded base points and intervals, equal the recorded digest: filling a
word ball and bounding it for the wandering screen may be restructured,
but not reordered in a way that moves a single float of any of them."""

import hashlib
import json
import random

from circledyn import (Affine, Translate, ZnAction, build_circle_action,
                       build_line_action, orbit, parse_quad_irrational,
                       transitivity_probe, wandering_probe)
from circledyn.expr import UnitCellHat

ALPHA = parse_quad_irrational("sqrt(2)-1")

#: interval widths of the wandering probe: refuted in the first shells,
#: near the word spacing, and narrow enough to need the full ball
WIDTHS = (0.2, 1e-3, 1e-6)


def _actions():
    """(name, action, radius): line and circle constructions, and two
    actions of no closed-form shape."""
    return [
        ("line 2", build_line_action(ALPHA, 2), 6),
        ("line 3", build_line_action(ALPHA, 3), 3),
        ("line 4", build_line_action(ALPHA, 4), 2),
        ("circle 2 2", build_circle_action(ALPHA, 2, 2, (1, 0)), 3),
        ("circle 3 2", build_circle_action(ALPHA, 3, 2, (1, 0, 1)), 2),
        ("affine inner", ZnAction(n=3, generators=(
            Translate(1), UnitCellHat(Affine(1, 1)),
            UnitCellHat(Affine(1, 0.3)))), 2),
        ("dilations", ZnAction(n=2, generators=(Affine(2, 0), Affine(3, 0))),
         3),
    ]


def _probe_outputs():
    out = []
    for name, action, radius in _actions():
        rng = random.Random(f"digest {name}")
        for _ in range(6):
            x0 = rng.uniform(-2.0, 2.0)
            out.append([name, x0, list(orbit(action, x0, radius).points)])
            report = transitivity_probe(action, x0, 0.05, radius)
            out.append([name, x0, report.as_jsonable()])
            for width in WIDTHS:
                a = rng.uniform(-2.0, 2.0)
                report = wandering_probe(action, (a, a + width), radius)
                out.append([name, a, width, report.as_jsonable()])
    return out


#: sha256 of the JSON of _probe_outputs(), recorded before the ball's two
#: fill engines and two bound builders were folded into one of each
#: (x86-64 Linux, CPython 3.11)
RECORDED_DIGEST = ("400ac383a1b1224e4d5d70b03af70f22"
                   "e9963b62c573e6ac24bb2b819cfc7b72")


def test_probe_outputs_match_the_recorded_digest():
    text = json.dumps(_probe_outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_DIGEST
