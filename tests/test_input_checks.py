"""Tolerances, accuracies and windows that cannot be used are rejected with
ValueError (CLI exit 2), never silently answered or crashed on: a NaN
compares false with everything, so every check is written to fail on it."""

import math

import pytest

from circledyn import (Translate, build_line_action, evaluate, fixed_points,
                       inverse, parse_quad_irrational, project, sine_lift,
                       transitivity_probe, wandering_probe)
from circledyn.cli import main

ALPHA = parse_quad_irrational("sqrt(2)-1")


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
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


def test_quad_irrational_value_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps must be positive"):
        ALPHA.value(math.nan)


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
