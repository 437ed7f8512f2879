"""The conjugacy of a fixed-point-free line map to the unit translation, and
its inverse, evaluated as one composition chain under the enclosure error
model: certified accuracy with a steep phi, closed-form chains equal to the
plain walk, typed failure where eps is out of reach, and JSON round trips."""

import json
import math
import random

import pytest

from circledyn import (Affine, PiecewiseMonotone, Translate,
                       conjugate_to_translation, evaluate, expr_from_jsonable,
                       expr_to_jsonable, inverse, sine_lift)
from circledyn.errors import PrecisionError

EPSILONS = (1e-4, 1e-6, 1e-8, 1e-9)
REFERENCE_EPS = 1e-11


def _steep():
    """f = x + 0.3 + 0.12 sin(2 pi x) and a phi with slope about 150 on its
    first piece, so errors made early in the walk are stretched by phi."""
    f = sine_lift(0.3, 0.12)
    f0 = evaluate(f, 0.0)
    phi = PiecewiseMonotone([0.0, 0.02 * f0, f0], [0.0, 0.9, 1.0],
                            "linear", "linear")
    return conjugate_to_translation(f, phi)


def _cubic():
    # f(x) = x + 1.15 - 0.15 cos(2 pi x), a periodic cubic table
    xs = [j / 256 for j in range(256)]
    ys = [x + 1.15 - 0.15 * math.cos(2 * math.pi * x) for x in xs]
    f = PiecewiseMonotone(xs, ys, "cubic", "periodic")
    phi = PiecewiseMonotone([0.0, 0.3, 0.7, 1.0], [0.0, 0.45, 0.8, 1.0], "cubic")
    return conjugate_to_translation(f, phi)


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_steep_phi_meets_every_eps(direction):
    h = _steep()
    g = h if direction == "forward" else inverse(h)
    rng = random.Random(7)
    points = [rng.uniform(-6.0, 6.0) for _ in range(400)]
    reference = [evaluate(g, x, REFERENCE_EPS) for x in points]
    for eps in EPSILONS:
        over = [x for x, r in zip(points, reference)
                if abs(evaluate(g, x, eps) - r) > eps]
        assert not over, (direction, eps, len(over), over[:3])


def _plain_forward(h, x, eps):
    """The walk loop that evaluated the conjugacy before it became a chain:
    locate n, take |n| steps of f or its inverse at a per-step share of eps,
    then phi at half of eps."""
    f, phi, f_inv = h.f, h.phi, inverse(h.f)
    if x >= 0.0:
        n, hi = 0, evaluate(f, 0.0, eps)
        while x >= hi:
            hi, n = evaluate(f, hi, eps), n + 1
    else:
        n, lo = -1, evaluate(f_inv, 0.0, eps)
        while x < lo:
            lo, n = evaluate(f_inv, lo, eps), n - 1
    step_eps = eps / (2.0 * (abs(n) + 1))
    t = x
    for _ in range(abs(n)):
        t = evaluate(f_inv if n > 0 else f, t, step_eps)
    return evaluate(phi, t, eps * 0.5) + n


def _plain_inverse(h, y, eps):
    n = math.floor(y)
    step_eps = eps / (2.0 * (abs(n) + 1))
    t = evaluate(inverse(h.phi), y - n, eps * 0.5)
    for _ in range(abs(n)):
        t = evaluate(h.f if n > 0 else inverse(h.f), t, step_eps)
    return t


def test_closed_form_chains_equal_the_plain_walk():
    rng = random.Random(11)
    affine = conjugate_to_translation(Translate(2), Affine(0.5, 0))
    for _ in range(200):
        x = rng.uniform(-9.0, 9.0)
        assert evaluate(affine, x, 1e-10) == _plain_forward(affine, x, 1e-10)
        assert (evaluate(inverse(affine), x, 1e-10)
                == _plain_inverse(affine, x, 1e-10))
    # x < 0 walks with f itself, so every member of the chain is closed-form
    cubic = _cubic()
    for _ in range(200):
        x = rng.uniform(-6.0, -1e-9)
        assert evaluate(cubic, x, 1e-10) == _plain_forward(cubic, x, 1e-10)


def test_unreachable_eps_raises_precision_error():
    h = _steep()
    assert abs(evaluate(h, 2.7, 1e-9) - evaluate(h, 2.7, REFERENCE_EPS)) <= 1e-9
    with pytest.raises(PrecisionError):
        evaluate(h, 2.7, 1e-13)


@pytest.mark.parametrize("make", [_steep, _cubic], ids=["steep", "cubic"])
def test_json_round_trip_of_both_kinds(make):
    h = make()
    for node, kind in ((h, "translation_conjugacy"),
                       (inverse(h), "translation_conjugacy_inverse")):
        doc = json.loads(json.dumps(expr_to_jsonable(node)))
        assert doc["kind"] == kind
        loaded = expr_from_jsonable(doc)
        assert loaded == node and type(loaded) is type(node)
        for x in (-4.3, -0.2, 0.0, 0.55, 3.9):
            assert evaluate(loaded, x, 1e-9) == evaluate(node, x, 1e-9)
