"""The evaluation error model: closed-form nodes are passed the caller's eps
unchanged, approximate members of a composition carry their error as a
monotone enclosure, and compositions are flat n-ary nodes."""

import itertools
import math
import random

import pytest

from circledyn import (CellHat, CircleHomeo, Compose, PiecewiseMonotone,
                       ProbeVerdict, Translate, build_circle_action,
                       build_line_action, cli, cocycle_value, evaluate,
                       expr_from_jsonable, expr_to_jsonable, inverse,
                       parse_quad_irrational, sine_lift, wandering_probe,
                       word_to_homeo)

ALPHA = parse_quad_irrational("sqrt(2)-1")
G_WORDS = {2: (1, 0), 3: (1, 0, 1)}


@pytest.mark.parametrize("n,k", list(itertools.product((2, 3), (1, 2, 3, 4))))
def test_circle_radius_one_words_build_and_cocycle(n, k):
    # Deep words chain many ArcHats; none may drive the cell eps into the
    # chart guard band.
    action = build_circle_action(ALPHA, n, k, G_WORDS[n])
    elements = [CircleHomeo(word_to_homeo(action, v))
                for v in itertools.product((-1, 0, 1), repeat=n + 1)]
    rng = random.Random(1000 * n + k)
    for _ in range(50):
        f1, f2 = rng.choice(elements), rng.choice(elements)
        assert cocycle_value(f1, f2) == math.floor(f1.lift(f2.lift(0.0)))


def test_cli_euler_cocycle_on_k3_circle_bundle(tmp_path, capsys):
    bundle = tmp_path / "c23.json"
    assert cli.main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                     "--circle", "--k", "3", "--g", "1,0",
                     "--output", str(bundle)]) == 0
    assert cli.main(["euler-cocycle", "--action", str(bundle),
                     "--ball", "1"]) == 0
    assert '"values"' in capsys.readouterr().out


def test_compose_encloses_approximate_member_error():
    # left is steep (slope 1e4) on a width-1e-9 piece around right(x0), so
    # the error right leaves must be bounded, not estimated by a finite
    # difference that steps over the steep piece.
    right = inverse(sine_lift(0.3, 0.1))
    x0 = 0.5
    r = evaluate(right, x0, 1e-15)
    width, rise = 1e-9, 1e-5
    left = PiecewiseMonotone([r - 1, r - width / 2, r + width / 2, r + 1],
                             [r - 1, r - rise / 2, r + rise / 2, r + 1],
                             "linear")
    h = Compose(left, right)
    for eps in (1e-6, 1e-7):
        assert abs(evaluate(h, x0, eps) - r) <= eps


def test_wandering_probe_on_line_n4_certifies_at_tight_eps():
    action = build_line_action(ALPHA, 4)
    a, b = 1.2, 1.25
    rep = wandering_probe(action, (a, b), 5)
    assert rep.verdict in (ProbeVerdict.SUPPORTS, ProbeVerdict.REFUTES)
    if rep.verdict is ProbeVerdict.REFUTES:
        g = word_to_homeo(action, rep.certificate["word"])
        fine = 1e-13
        assert evaluate(g, a, fine) < b and evaluate(g, b, fine) > a
        assert max(abs(evaluate(g, x, fine) - x)
                   for x in (a + (b - a) * (j + 0.5) / 17 for j in range(17))
                   ) > 1e-9


def test_nested_binary_compose_document_loads_flat():
    # The nested form earlier versions wrote for a three-arc transplant.
    def arc(lo, hi):
        return {"kind": "arc_hat", "lo": lo, "hi": hi,
                "children": [{"kind": "translate", "amount": 0.41421356237309503}]}

    legacy = {"kind": "compose", "children": [
        {"kind": "compose", "children": [arc(0, 1 / 3), arc(1 / 3, 2 / 3)]},
        arc(2 / 3, 1)]}
    arcs = [CellHat(Translate(0.41421356237309503), (i / 3, (i + 1) / 3))
            for i in range(3)]
    flat = Compose(*arcs)
    loaded = expr_from_jsonable(legacy)
    assert loaded == flat
    assert expr_from_jsonable(expr_to_jsonable(flat)) == flat
    for j in range(64):
        x = -1.0 + j / 32
        chained = x
        for h in reversed(arcs):
            chained = evaluate(h, chained, 1e-12)
        assert evaluate(loaded, x, 1e-12) == evaluate(flat, x, 1e-12) == chained

