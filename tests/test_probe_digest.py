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
from circledyn import probes
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


#: sha256 of the JSON of _probe_outputs(), recorded when the circle
#: construction's orbit took its closed form over the arc charts and circle
#: base points were reduced mod 1 (x86-64 Linux, CPython 3.11): its circle
#: orbit points moved by up to 5.6e-15, with the same counts and reports,
#: and the other entries kept every byte
RECORDED_DIGEST = ("ca924cfc975d7ce4e595c7f73139676d"
                   "1220cd3885b252847839f349e18cbe37")


def test_probe_outputs_match_the_recorded_digest():
    text = json.dumps(_probe_outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_DIGEST


#: (name, action, radius) of the screen's candidate digest
SCREENED = [
    ("l2", build_line_action(ALPHA, 2), 8),
    ("l3", build_line_action(ALPHA, 3), 4),
    ("l4", build_line_action(ALPHA, 4), 3),
    ("c22", build_circle_action(ALPHA, 2, 2, (1, 0)), 4),
    ("c23", build_circle_action(ALPHA, 2, 3, (1, 0)), 3),
    ("c32", build_circle_action(ALPHA, 3, 2, (1, 0, 1)), 2),
    ("c21", build_circle_action(ALPHA, 2, 1, (1, 1)), 3),
]

#: interval widths of the candidate digest, from a few shells' worth of
#: candidates down to far below the word spacing
SCREEN_WIDTHS = (0.2, 0.05, 1e-3, 1e-6, 1e-10)


def _screen_candidates():
    out = []
    for name, action, radius in SCREENED:
        rng = random.Random(f"cand {name}")
        for width in SCREEN_WIDTHS:
            for _ in range(15):
                a = rng.uniform(-2.0, 2.0)
                words = list(probes._candidates(action, a, a + width, radius))
                out.append([name, a, width, words])
    return out


#: sha256 of the JSON of _screen_candidates(), recorded while the line and
#: the one-arc screens had a descent entry each (x86-64 Linux, CPython 3.11)
RECORDED_CANDIDATES = ("9afd20e2a6ec08ea79b9ed85a3d64bdb"
                       "576a24dc1b5ac4af12a01eedc44f4574")


def test_screen_candidates_match_the_recorded_digest():
    # the words the screen hands to direct evaluation, in order: a
    # restructured screen may not add or drop one
    text = json.dumps(_screen_candidates())
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_CANDIDATES
