"""Property tests of built actions: whole-action JSON round trips through
the bundle format, and commutation of the generators of the Z^n actions on
the line and the circle."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circledyn import (build_circle_action, build_line_action,  # noqa: E402
                       evaluate, parse_quad_irrational)
from circledyn.cli import (action_from_bundle, action_to_bundle,  # noqa: E402
                           emit_json)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
ALPHAS = ("sqrt(2)-1", "golden - 1", "sqrt(3)-1", "(sqrt(21)-3)/2")
COMMUTE_TOL = 1e-9

alphas = st.sampled_from(ALPHAS).map(parse_quad_irrational)
points = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


@st.composite
def line_actions(draw):
    return build_line_action(draw(alphas), draw(st.integers(2, 4)))


@st.composite
def circle_actions(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    g = tuple(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    assume(k == 1 or any(e % k for e in g))
    return build_circle_action(draw(alphas), n=n, k=k, g_word=g)


def _maps(action):
    """The generators as maps of the line (lifts, for a circle action)."""
    return [getattr(g, "lift", g) for g in action.generators]


def _round_trip(action):
    return action_from_bundle(json.loads(emit_json(action_to_bundle(action))))


@PROPERTY
@given(line_actions(), points)
def test_line_bundle_round_trip(action, xs):
    loaded = _round_trip(action)
    assert loaded.n == action.n and loaded.alpha == action.alpha
    for g, h in zip(_maps(action), _maps(loaded), strict=True):
        assert g == h
        for x in xs:
            assert evaluate(h, x) == evaluate(g, x)


@PROPERTY
@given(circle_actions(), points)
def test_circle_bundle_round_trip(action, xs):
    loaded = _round_trip(action)
    assert (loaded.n, loaded.k, loaded.g_word) == (action.n, action.k,
                                                   action.g_word)
    assert loaded.marked_angles == action.marked_angles
    for g, h in zip(_maps(action), _maps(loaded), strict=True):
        for x in xs:
            assert evaluate(h, x) == evaluate(g, x)


def _assert_commute(action, xs):
    maps = _maps(action)
    for i, a in enumerate(maps):
        for b in maps[i + 1:]:
            for x in xs:
                ab = evaluate(a, evaluate(b, x))
                ba = evaluate(b, evaluate(a, x))
                assert abs(ab - ba) <= COMMUTE_TOL, (a, b, x)


@PROPERTY
@given(line_actions(), points)
def test_line_generators_commute(action, xs):
    _assert_commute(action, xs)


@PROPERTY
@given(circle_actions(), points)
def test_circle_generators_commute(action, xs):
    _assert_commute(action, xs)
