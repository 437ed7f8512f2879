"""Orbit enumeration, transitivity coverage, wandering certificates,
fixed-point location."""

import warnings

import pytest

from circledyn import (Identity, ProbeVerdict, Translate, UnitCellHat,
                       ZnAction, build_line_action, compose_all, evaluate,
                       fixed_points, orbit,
                       parse_quad_irrational, power, project, rotation,
                       sine_lift, transitivity_probe, wandering_probe)
from circledyn.errors import (BudgetExceededError,
                              NonIsolatedFixedPointsWarning)

ALPHA = parse_quad_irrational("sqrt(2)-1")
AF = ALPHA.value(1e-17)
L1 = ZnAction(n=1, generators=(Translate(1),))


def test_orbit_translation_grid():
    act = build_line_action(ALPHA, 2)
    sample = orbit(act, 0.0, 3)
    expected = sorted({i + j * AF for i in range(-3, 4) for j in range(-3, 4)})
    assert len(sample) == 49
    assert list(sample.points) == pytest.approx(expected, abs=1e-12)


def test_orbit_trivial_action():
    trivial = ZnAction(n=1, generators=(Identity(),))
    sample = orbit(trivial, 0.77, 4)
    assert sample.points == (0.77,)


def test_orbit_matches_direct_composition():
    # recompute every radius-2 point of the level-3 action by explicit
    # nested composition, as an independent oracle
    act = build_line_action(ALPHA, 3)
    sample = orbit(act, 0.5, 2)
    pts = set()
    for v0 in range(-2, 3):
        for v1 in range(-2, 3):
            for v2 in range(-2, 3):
                expr = compose_all([power(act.generators[0], v0),
                                    power(act.generators[1], v1),
                                    power(act.generators[2], v2)])
                pts.add(round(evaluate(expr, 0.5, 1e-12), 10))
    got = {round(p, 10) for p in sample.points}
    assert got == pts
    assert len(sample) == 125


def test_orbit_budget():
    act = build_line_action(ALPHA, 3)
    with pytest.raises(BudgetExceededError):
        orbit(act, 0.0, 100)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CIRCLEDYN_WORD_BUDGET", "10")
    act = build_line_action(ALPHA, 2)
    with pytest.raises(BudgetExceededError):
        orbit(act, 0.0, 2)



@pytest.mark.parametrize("raw", ["abc", "1e6"])
def test_bad_budget_env_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("CIRCLEDYN_WORD_BUDGET", raw)
    with pytest.raises(ValueError) as exc:
        orbit(build_line_action(ALPHA, 2), 0.0, 1)
    assert str(exc.value) == (
        f"CIRCLEDYN_WORD_BUDGET must be an integer, not {raw!r}")

def test_transitivity_dense_orbit():
    act = build_line_action(ALPHA, 2)
    report = transitivity_probe(act, 0.0, 0.02, 50, (0.0, 1.0))
    assert report.verdict is ProbeVerdict.SUPPORTS
    assert report.coverage == 1.0


def test_transitivity_integer_orbit_is_inconclusive():
    report = transitivity_probe(L1, 0.0, 0.1, 5, (0.0, 1.0))
    assert report.verdict is ProbeVerdict.INCONCLUSIVE
    assert report.coverage == pytest.approx(0.1)


def test_transitivity_circle_rotation():
    circle = ZnAction(n=1, generators=(Translate(AF),), space="circle")
    report = transitivity_probe(circle, 0.0, 0.01, 500, (0.0, 1.0))
    assert report.verdict is ProbeVerdict.SUPPORTS


def test_coverage_monotone_in_radius():
    act = build_line_action(ALPHA, 2)
    cov = [transitivity_probe(act, 0.0, 0.05, r, (0.0, 1.0)).coverage
           for r in (2, 5, 10, 20)]
    assert cov == sorted(cov)


def test_wandering_unit_translation_supports():
    report = wandering_probe(L1, (0.1, 0.9), 5)
    assert report.verdict is ProbeVerdict.SUPPORTS


def test_wandering_long_interval_refuted():
    report = wandering_probe(L1, (0.0, 1.5), 5)
    assert report.verdict is ProbeVerdict.REFUTES
    word = report.certificate["word"]
    # re-verify the certificate by hand: the image overlaps properly
    g = power(Translate(1), word[0])
    ga = evaluate(g, 0.0, 1e-13)
    gb = evaluate(g, 1.5, 1e-13)
    assert ga < 1.5 and gb > 0.0
    assert abs(ga - 0.0) > 1e-9 or abs(gb - 1.5) > 1e-9


def test_wandering_dense_action_refuted_with_certificate():
    act = build_line_action(ALPHA, 2)
    report = wandering_probe(act, (0.2, 0.4), 20)
    assert report.verdict is ProbeVerdict.REFUTES
    v = report.certificate["word"]
    shift = v[0] + v[1] * AF
    assert 0.2 < shift + 0.4 and shift + 0.2 < 0.4   # proper overlap
    assert abs(shift) > 1e-9


def test_hatted_action_wandering_inside_cell():
    # the level-3 hatted generators fix integers, so a short interval around
    # an integer is only threatened by the translation part
    act = build_line_action(ALPHA, 3)
    report = wandering_probe(act, (0.9, 1.1), 1)
    assert report.verdict in (ProbeVerdict.SUPPORTS, ProbeVerdict.REFUTES)


def test_almost_minimality_contrast():
    # integer base points have thin orbits under the hatted generators,
    # generic base points cover the window
    act = build_line_action(ALPHA, 3)
    thin = transitivity_probe(act, 0.0, 0.1, 3, (0.0, 1.0))
    generic = transitivity_probe(act, 0.5, 0.1, 3, (0.0, 1.0))
    assert thin.coverage < generic.coverage
    assert generic.coverage >= 0.8


def test_fixed_points_identity_warns():
    with pytest.warns(NonIsolatedFixedPointsWarning):
        assert fixed_points(rotation(0), 1e-9) == []


def test_fixed_points_irrational_rotation_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fixed_points(rotation(AF), 1e-9) == []


def test_fixed_points_sine_map():
    f = project(sine_lift(0.0, 0.1))
    pts = fixed_points(f, 1e-9)
    assert len(pts) == 2
    assert pts[0] == pytest.approx(0.0, abs=1e-8)
    assert pts[1] == pytest.approx(0.5, abs=1e-8)


def test_fixed_points_shifted_sine():
    # x + 0.05 + 0.1 sin(2 pi x): fixed angles where sin = -1/2
    f = project(sine_lift(0.05, 0.1))
    pts = fixed_points(f, 1e-9)
    assert len(pts) == 2
    import math
    expected = sorted([(math.pi + math.pi / 6) / (2 * math.pi),
                       (2 * math.pi - math.pi / 6) / (2 * math.pi)])
    assert pts == pytest.approx(expected, abs=1e-4)
