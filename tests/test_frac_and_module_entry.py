"""Angles stay in [0, 1) for tiny negative inputs, and the package runs as
`python -m circledyn`."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import circledyn
from circledyn import build_circle_action, orbit, parse_quad_irrational
from circledyn.circle import frac

SRC = Path(circledyn.__file__).resolve().parent.parent


def test_tiny_negative_angle_is_zero():
    # -1e-17 - floor(-1e-17) = 1 - 1e-17 rounds to 1.0
    assert frac(-1e-17) == 0.0
    assert frac(-5e-324) == 0.0
    action = build_circle_action(parse_quad_irrational("sqrt(2)-1"), 2, 2,
                                 (1, 0))
    points = orbit(action, -1e-17, 1).points
    assert points == (0.0, 0.5)
    assert all(0.0 <= p < 1.0 for p in points)


def test_other_angles_are_unchanged():
    rng = random.Random("frac")
    xs = [rng.uniform(-5.0, 5.0) for _ in range(1000)]
    xs += [-1e-15, -0.5, -1.0, 0.0, 1.0, 2.5, 1 - 1e-16, -1e300, 1e300]
    for x in xs:
        assert frac(x) == x - math.floor(x)
        assert 0.0 <= frac(x) < 1.0


def test_python_dash_m_prints_the_usage():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "circledyn", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: circledyn")
