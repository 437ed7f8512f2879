"""Tolerances, accuracies and windows that cannot be used are rejected with
ValueError (CLI exit 2), never silently answered or crashed on: a NaN
compares false with everything, so every check is written to fail on it."""

import math

import pytest

from circledyn import (Affine, PiecewiseMonotone, Translate,
                       build_line_action, evaluate, fixed_points, inverse,
                       parse_quad_irrational, power, project,
                       rational_screen, sine_lift, transitivity_probe,
                       wandering_probe)
from circledyn.cli import main

ALPHA = parse_quad_irrational("sqrt(2)-1")


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
def test_wandering_probe_rejects_unusable_tol(tol):
    action = build_line_action(ALPHA, 2)
    # with tol=nan every word passed as the identity on the interval, so
    # this violated interval was reported SUPPORTS
    assert wandering_probe(action, (0.2, 0.4), 3).verdict.value == "REFUTES"
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        wandering_probe(action, (0.2, 0.4), 3, tol=tol)


def test_wandering_probe_accepts_zero_tol():
    action = build_line_action(ALPHA, 2)
    assert wandering_probe(action, (0.2, 0.4), 3, tol=0.0).verdict.value \
        == "REFUTES"


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_fixed_points_rejects_unusable_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        fixed_points(project(sine_lift(0.0, 0.1)), tol=tol)


@pytest.mark.parametrize("h", [Translate(1), inverse(sine_lift(0.3, 0.1))],
                         ids=["closed form", "bisection"])
@pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-12])
def test_evaluate_rejects_unusable_eps(h, eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        evaluate(h, 0.5, eps)


def test_transitivity_probe_rejects_nan_eps():
    action = build_line_action(ALPHA, 2)
    with pytest.raises(ValueError, match="eps must be positive"):
        transitivity_probe(action, 0.5, math.nan, 3)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_quad_irrational_value_rejects_nan_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        ALPHA.value(eps)


@pytest.mark.parametrize("build, message", [
    (lambda: Translate(math.nan), "translate amount must be finite"),
    (lambda: Translate(-math.inf), "translate amount must be finite"),
    (lambda: Affine(1, math.inf), "affine scale and offset must be finite"),
    (lambda: Affine(math.inf, 0), "affine scale and offset must be finite"),
    (lambda: Affine(1, math.nan), "affine scale and offset must be finite"),
    (lambda: PiecewiseMonotone([-math.inf, 0.0], [0.0, 1.0]),
     "breakpoints must be finite"),
    (lambda: PiecewiseMonotone([0.0, 1.0], [0.0, math.inf]),
     "breakpoints must be finite"),
    # a closed form that overflows raises instead of building an infinite node
    (lambda: power(Translate(1e308), 10), "translate amount must be finite"),
])
def test_nodes_reject_non_finite_parameters(build, message):
    # evaluate(Translate(nan), 0.0) returned nan, and a NaN generator made
    # the wandering probe answer SUPPORTS
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("q_max", [0, -1])
def test_rational_screen_rejects_q_max_below_1(q_max):
    # the bound reaching 0 returned (0, 1) whatever q_max was
    assert rational_screen(0.0001, 0.01, 1) == (0, 1)
    with pytest.raises(ValueError, match="q_max must be at least 1"):
        rational_screen(0.0001, 0.01, q_max)


def test_cli_rotnum_rejects_q_max_0(capsys):
    assert main(["rotnum", "--lift", "translate:0.0001", "--N", "100",
                 "--q-max", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "q_max must be at least 1" in out.err


@pytest.fixture
def g2(tmp_path, capsys):
    path = tmp_path / "g2.json"
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("argv,message", [
    (["probe-wandering", "--interval", "0.2,0.4", "--radius", "3",
      "--tol", "nan"], "tol must be nonnegative"),
    (["probe-transitive", "--eps", "nan", "--radius", "3"],
     "eps must be positive"),
    (["orbit", "--x0", "0.5", "--radius", "0", "--format", "svg",
      "--window", "0.5,0.5"], "a < b"),
    (["orbit", "--format", "svg", "--window", "0.9,0.1"], "a < b"),
    (["orbit", "--format", "svg", "--window", "0.3"], "two finite numbers"),
    (["orbit", "--format", "svg", "--window", "0,inf"], "two finite numbers"),
    (["probe-transitive", "--eps", "0.1", "--window", "nan,1"],
     "two finite numbers"),
    (["probe-wandering", "--interval", "0.2,0.4,0.6"], "two finite numbers"),
    (["probe-wandering", "--interval", "0.2,0.4", "--radius", "3",
      "--tol", "inf"], "tol must be nonnegative"),
    (["probe-transitive", "--eps", "inf", "--radius", "3"],
     "eps must be positive"),
])
def test_cli_rejects_unusable_values(g2, capsys, argv, message):
    assert main(argv[:1] + ["--group", g2] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_cli_fixed_points_rejects_nan_tol(capsys):
    assert main(["fixed-points", "--lift", "sine:0.0,0.1",
                 "--tol", "nan"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["0.5", "-3.25", "1e17"])
def test_svg_of_a_single_point_orbit(g2, capsys, x0):
    assert main(["orbit", "--group", g2, "--x0", x0, "--radius", "0",
                 "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    # the one point is drawn in the middle of a range of nonzero width
    assert svg.count("<circle") == 1
    assert '<circle cx="410.000"' in svg
