"""An infinite accuracy or tolerance is rejected up front with ValueError
(CLI exit 2), as a NaN is: `fixed_points` at `tol=inf` merged the fixed
points 0 and 0.5 into one, and `transitivity_probe` at `eps=inf` and the
`fixed-points` command did all their work before failing to print `inf`."""

import math

import pytest

from circledyn import (Compose, Translate, build_line_action, evaluate,
                       inverse, parse_quad_irrational, sine_lift,
                       transitivity_probe)
from circledyn.cli import main


def test_transitivity_probe_rejects_infinite_eps():
    action = build_line_action(parse_quad_irrational("sqrt(2)-1"), 2)
    with pytest.raises(ValueError, match="^eps must be positive"):
        transitivity_probe(action, 0.5, math.inf, 3)


def test_cli_fixed_points_rejects_infinite_tol(capsys):
    assert main(["fixed-points", "--lift", "sine:0.0,0.1",
                 "--tol", "inf"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("circledyn: tol must be positive")


@pytest.mark.parametrize("h", [
    inverse(sine_lift(0.3, 0.1)),
    Compose(Translate(0.25), inverse(sine_lift(0.3, 0.1))),
    Translate(1),
], ids=["bisection", "compose", "closed form"])
def test_evaluate_rejects_infinite_eps(h):
    # approximate nodes ended in a bare OverflowError, closed forms returned
    # a value
    with pytest.raises(ValueError, match="^eps must be positive and finite$"):
        evaluate(h, 0.5, math.inf)
