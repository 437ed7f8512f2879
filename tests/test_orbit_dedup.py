"""Orbit deduplication does not depend on how the points were computed:
`orbit` (each word one generator step from a neighbour) keeps as many
points as direct evaluation of every word's tree under the same merge
rule."""

import pytest

from circledyn import (build_circle_action, build_line_action, evaluate, frac,
                       orbit, parse_quad_irrational, word_ball, word_to_homeo)
from circledyn.circle import DEFAULT_EVAL_EPS
from circledyn.probes import DEDUP_RESOLUTION

ALPHA = parse_quad_irrational("sqrt(2)-1")


def _merged_count(values, circle):
    """Sorted points, each merged into the last kept one when closer than
    DEDUP_RESOLUTION; on the circle also the largest into the smallest
    across 0."""
    kept = []
    for v in sorted(values):
        if kept and v - kept[-1] < DEDUP_RESOLUTION:
            continue
        kept.append(v)
    if circle and len(kept) > 1 and (1.0 - kept[-1]) + kept[0] < DEDUP_RESOLUTION:
        kept.pop()
    return len(kept)


@pytest.mark.parametrize("spec, x0, radius", [
    # the README's c32 bundle: 2530 points on fixed 1e-12 cells by direct
    # evaluation, 2529 from the word-ball engine
    ((3, 2, (1, 0, 1)), 0.37, 4),
    # fixed cells gave 1142 from the engine, 1141 here
    ((3, 2, (1, 0, 1)), 0.2550690257394217, 3),
    ((2, 2, (1, 0)), 0.0, 4),
    ((2,), 0.37, 30),
    ((3,), 0.37, 6),
    ((4,), 0.37, 4),
])
def test_orbit_size_matches_direct_evaluation(spec, x0, radius):
    if len(spec) == 1:
        action = build_line_action(ALPHA, spec[0])
    else:
        action = build_circle_action(ALPHA, *spec)
    circle = action.space == "circle"
    values = [evaluate(word_to_homeo(action, v), x0, DEFAULT_EVAL_EPS)
              for v in word_ball(len(action.generators), radius)]
    if circle:
        values = [frac(y) for y in values]
    assert len(orbit(action, x0, radius)) == _merged_count(values, circle)
