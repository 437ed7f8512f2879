"""The line and circle constructions and the conjugacy verdict."""

import itertools
import random

import pytest

from circledyn import (Affine, Compose, ConjugacyWitness, HBar, HBarInv,
                       Identity, Translate, UnitCellHat, Verdict, ZnAction,
                       build_circle_action, build_line_action, compose_all,
                       conjugacy_verdict, evaluate, inverse, mobius_apply,
                       parse_quad_irrational, word_to_homeo, Gl2zMatrix)
from circledyn.errors import NotPrimitiveError, RangeError

ALPHA = parse_quad_irrational("sqrt(2)-1")
GOLDEN = parse_quad_irrational("golden - 1")
AF = ALPHA.value(1e-17)


def _pairwise_commutation_defect(gens, grid=64):
    worst = 0.0
    for a, b in itertools.combinations(gens, 2):
        for j in range(grid):
            x = j / grid
            worst = max(worst, abs(
                evaluate(Compose(a, b), x, 1e-12)
                - evaluate(Compose(b, a), x, 1e-12)))
    return worst


def test_level_two_generators():
    act = build_line_action(ALPHA, 2)
    assert act.generators == (Translate(1), Translate(AF))


def test_level_three_structure():
    act = build_line_action(ALPHA, 3)
    assert act.generators[0] == Translate(1)
    assert act.generators[1] == UnitCellHat(Translate(1))
    assert act.generators[2] == UnitCellHat(Translate(AF))
    # the hatted generators fix every integer; the translation moves them
    for g in act.generators[1:]:
        assert all(evaluate(g, float(m), 1e-12) == float(m)
                   for m in range(-5, 6))
    # no common fixed point: L_1 moves everything
    assert evaluate(act.generators[0], 0.0, 1e-12) == 1.0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_line_action(ALPHA, 1)
    with pytest.raises(RangeError):
        build_line_action(parse_quad_irrational("sqrt(2)"), 2)
    with pytest.raises(RangeError):
        build_line_action(parse_quad_irrational("sqrt(2)-2"), 2)


def test_generators_commute():
    for n in (2, 3, 4):
        act = build_line_action(ALPHA, n)
        assert _pairwise_commutation_defect(act.generators) < 1e-9


def test_word_evaluation():
    act2 = build_line_action(ALPHA, 2)
    w = word_to_homeo(act2, (2, 1))
    for x in (-1.0, 0.0, 0.6):
        assert evaluate(w, x, 1e-12) == pytest.approx(x + 2 + AF, abs=1e-12)
    assert evaluate(word_to_homeo(act2, (-1, 1)), 0.0, 1e-12) == pytest.approx(
        AF - 1.0, abs=1e-14)
    # identity word
    assert evaluate(word_to_homeo(act2, (0, 0)), 0.33, 1e-12) == 0.33


def test_word_hat_homomorphism():
    act3 = build_line_action(ALPHA, 3)
    w = word_to_homeo(act3, (0, 1, 1))
    target = UnitCellHat(Translate(1 + AF))
    for x in (0.5, 0.125, -0.8):
        assert evaluate(w, x, 1e-12) == pytest.approx(
            evaluate(target, x, 1e-12), abs=1e-11)


def test_word_length_validated():
    act = build_line_action(ALPHA, 2)
    with pytest.raises(ValueError):
        word_to_homeo(act, (1, 0, 0))


def test_faithfulness_probe():
    act = build_line_action(ALPHA, 3)
    rng = random.Random(4)
    grid = [j / 8 for j in range(9)]
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if all(e == 0 for e in v):
            continue
        g = word_to_homeo(act, v)
        moved = max(abs(evaluate(g, x, 1e-12) - x) for x in grid)
        assert moved > 1e-6, v


def test_orbit_density_at_level_two():
    # words with sup-norm <= 50 land 3/50-dense in [0, 1]
    act = build_line_action(ALPHA, 2)
    pts = sorted(i + j * AF for i in range(-50, 51) for j in range(-50, 51)
                 if 0.0 <= i + j * AF <= 1.0)
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    assert max(gaps + [pts[0], 1.0 - pts[-1]]) <= 3.0 / 50


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
def test_circle_construction(n, k):
    g_word = tuple([1] + [0] * (n - 1))
    act = build_circle_action(ALPHA, n, k, g_word)
    assert len(act.generators) == n + 1
    assert len(act.marked_angles) == k
    f = act.f
    # f permutes the marked points cyclically
    for i, x in enumerate(act.marked_angles):
        nxt = act.marked_angles[(i + 1) % k]
        assert f(x) == pytest.approx(nxt, abs=1e-12)
    # f^k(x_i) = x_i
    for x in act.marked_angles:
        y = x
        for _ in range(k):
            y = f(y)
        assert y == pytest.approx(x, abs=1e-11)
    # the transplanted generators fix every marked point exactly
    for sb in act.generators[:-1]:
        assert all(sb(x) == x for x in act.marked_angles)
    # f^k restricted to the first arc is the transplanted g
    g = word_to_homeo(act.base, g_word)
    phi = Compose(Affine(1.0 / k, 1.0 / k), HBar())
    g_tilde = compose_all([phi, g, inverse(phi)])
    worst = 0.0
    for j in range(64):
        theta = (1.0 + (j + 0.5) / 64) / k
        y = theta
        for _ in range(k):
            y = f(y)
        worst = max(worst, abs(y - evaluate(g_tilde, theta, 1e-12)))
    assert worst < 1e-9
    # all generators commute on the lift level
    lifts = [h.lift for h in act.generators]
    assert _pairwise_commutation_defect(lifts, grid=32) < 1e-9


def test_circle_construction_k1_degenerate():
    act = build_circle_action(ALPHA, 2, 1, (0, 1))
    assert act.marked_angles == (0.0,)
    assert act.f(0.0) == 0.0
    g = word_to_homeo(act.base, (0, 1))
    g_tilde = compose_all([HBar(), g, HBarInv()])
    for j in range(16):
        theta = 0.03 + 0.94 * j / 15
        assert act.f(theta) == pytest.approx(
            evaluate(g_tilde, theta, 1e-12), abs=1e-11)


def test_not_primitive_rejected():
    with pytest.raises(NotPrimitiveError):
        build_circle_action(ALPHA, 2, 2, (2, 0))
    with pytest.raises(NotPrimitiveError):
        build_circle_action(ALPHA, 2, 3, (0, 0))


def test_verdict_differing_nk():
    a = build_circle_action(ALPHA, 2, 2, (1, 0))
    b = build_circle_action(ALPHA, 2, 3, (1, 0))
    assert conjugacy_verdict(a, b).verdict is Verdict.NOT_CONJUGATE


def test_verdict_inequivalent_alpha():
    a = build_circle_action(ALPHA, 2, 2, (1, 0))
    c = build_circle_action(GOLDEN, 2, 2, (1, 0))
    assert conjugacy_verdict(a, c).verdict is Verdict.NOT_CONJUGATE


def test_verdict_identity_witness():
    a = build_circle_action(ALPHA, 2, 2, (1, 0))
    rep = conjugacy_verdict(a, a, ConjugacyWitness(phi=Identity(), h_word=(0, 0)))
    assert rep.verdict is Verdict.CONJUGATE_WITNESSED
    assert rep.residual == pytest.approx(0.0, abs=1e-12)



@pytest.mark.parametrize("line_first", [True, False])
def test_verdict_rejects_a_line_action(line_first):
    circle = build_circle_action(ALPHA, 2, 2, (1, 0))
    line = build_line_action(ALPHA, 2)
    pair = (line, circle) if line_first else (circle, line)
    with pytest.raises(ValueError, match="needs two circle actions"):
        conjugacy_verdict(*pair)
    # a circle action that is not the construction raised AttributeError
    # on its missing k
    translations = ZnAction(n=1, generators=(Translate(0.25),), space="circle")
    pair = (translations, circle) if line_first else (circle, translations)
    with pytest.raises(ValueError, match="needs two circle actions"):
        conjugacy_verdict(*pair)

def test_verdict_needs_witness_when_undecided():
    a = build_circle_action(ALPHA, 2, 2, (1, 0))
    beta = mobius_apply(Gl2zMatrix(0, 1, 1, 1), ALPHA)   # equivalent, in (0,1)
    b = build_circle_action(beta, 2, 2, (1, 0))
    assert conjugacy_verdict(a, b).verdict is Verdict.UNDECIDED_NEEDS_WITNESS


def test_verdict_bad_witness_stays_undecided():
    a = build_circle_action(ALPHA, 2, 2, (1, 0))
    b = build_circle_action(ALPHA, 2, 2, (1, 2))
    rep = conjugacy_verdict(a, b, ConjugacyWitness(phi=Identity(), h_word=(0, 0)))
    assert rep.verdict is Verdict.UNDECIDED_NEEDS_WITNESS
    assert rep.residual > 0


def test_verdict_translation_witness():
    # B's g differs from A's by the square of the alpha translation:
    # g' = g h^k with h = (0, 1), k = 2, so the identity conjugator works.
    a = build_circle_action(ALPHA, 2, 2, (1, 0))
    b = build_circle_action(ALPHA, 2, 2, (1, 2))
    rep = conjugacy_verdict(a, b, ConjugacyWitness(phi=Identity(), h_word=(0, 1)))
    assert rep.verdict is Verdict.CONJUGATE_WITNESSED
