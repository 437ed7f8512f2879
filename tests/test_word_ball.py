"""The word-ball engine: the graded enumerator, word values computed one
generator step from a neighbour, the wandering screen, and the radius
check shared by every word-ball consumer."""

import itertools
import random

import pytest

from circledyn import (build_circle_action, build_line_action,
                       check_word_budget, cli, evaluate, orbit,
                       parse_quad_irrational, transitivity_probe,
                       wandering_probe, word_ball, word_to_homeo)
from circledyn.probes import ProbeReport, ProbeVerdict, _word_values

ALPHA = parse_quad_irrational("sqrt(2)-1")

#: (action spec, radius) kept small enough for direct evaluation of every
#: word; (n,) is a line action, (n, k, g) a circle action
CASES = [((2,), 10), ((3,), 4), ((4,), 3),
         ((2, 2, (1, 0)), 3), ((2, 3, (1, 0)), 2), ((3, 2, (1, 0, 1)), 2)]


def _action(spec):
    if len(spec) == 1:
        return build_line_action(ALPHA, spec[0])
    return build_circle_action(ALPHA, *spec)


def _filter_ball(rank, radius):
    """The enumerator's definition: each shell's words filtered out of the
    cube in lexicographic order."""
    for shell in range(radius + 1):
        for v in itertools.product(range(-shell, shell + 1), repeat=rank):
            if shell == 0 or max(abs(e) for e in v) == shell:
                yield v


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_enumerator_matches_filter_definition(rank):
    # the ball of radius r is the first (2r+1)^rank words of any larger one
    expected = list(_filter_ball(rank, 6))
    for radius in range(7):
        assert list(word_ball(rank, radius)) == \
            expected[:(2 * radius + 1) ** rank]


def _direct_values(action, x0, radius):
    """g_v(x0) from each word's own tree, keyed by the word's code."""
    rank = len(action.generators)
    base = 2 * radius + 1
    out = {}
    for v in itertools.product(range(-radius, radius + 1), repeat=rank):
        code = sum((e + radius) * base ** (rank - 1 - i)
                   for i, e in enumerate(v))
        out[code] = evaluate(word_to_homeo(action, v), x0, 1e-12)
    return out


@pytest.mark.parametrize("spec,radius", CASES)
def test_engine_values_match_direct_evaluation(spec, radius):
    action = _action(spec)
    rng = random.Random(f"{spec} {radius}")
    for x0 in (rng.uniform(-1.0, 2.0), rng.uniform(0.0, 1.0)):
        values = _word_values(action, x0, radius)
        direct = _direct_values(action, x0, radius)
        assert len(values) == len(direct)
        for code, y in direct.items():
            assert values[code] == pytest.approx(y, abs=1e-12, rel=0.0)


def _identity_on_interval(g, a, b, tol, eps, samples=17):
    for j in range(samples):
        x = a + (b - a) * (j + 0.5) / samples
        if abs(evaluate(g, x, eps) - x) > tol:
            return False
    return True


def _direct_wandering(action, interval, radius, tol=1e-9):
    """The wandering probe evaluating every word from its own tree."""
    eps = 1e-12
    a, b = float(interval[0]), float(interval[1])
    rank = len(action.generators)
    checked = 0
    for v in _filter_ball(rank, radius):
        checked += 1
        if all(e == 0 for e in v):
            continue
        g = word_to_homeo(action, v)
        ga = evaluate(g, a, eps)
        gb = evaluate(g, b, eps)
        if not (ga < b and gb > a):
            continue
        if _identity_on_interval(g, a, b, tol, eps):
            continue
        fine = eps / 10.0
        ga_f = evaluate(g, a, fine)
        gb_f = evaluate(g, b, fine)
        if not (ga_f < b and gb_f > a):
            continue
        if _identity_on_interval(g, a, b, tol, fine):
            continue
        return ProbeReport(
            verdict=ProbeVerdict.REFUTES,
            coverage=checked / (2 * radius + 1) ** rank,
            parameters={"interval": [a, b], "radius": radius, "tol": tol},
            certificate={"word": list(v), "image": [ga_f, gb_f]})
    return ProbeReport(verdict=ProbeVerdict.SUPPORTS, coverage=1.0,
                       parameters={"interval": [a, b], "radius": radius,
                                   "tol": tol})


def _intervals(seed):
    rng = random.Random(seed)
    a, b = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
    return [(a, a + 0.2), (b, b + 1e-6)]


@pytest.mark.parametrize("spec,radius", CASES)
def test_wandering_matches_direct_loop(spec, radius):
    action = _action(spec)
    for seed in (1, 2):
        for interval in _intervals(100 * seed + radius):
            got = wandering_probe(action, interval, radius)
            want = _direct_wandering(action, interval, radius)
            assert got.as_jsonable() == want.as_jsonable()


@pytest.mark.parametrize("margin", [1e-10, -1e-10])
def test_wandering_marginal_overlap(margin):
    # the words (1, -2) and (-1, 2) shift by 1 - 2*alpha; an interval that
    # much longer than that, plus margin, is overlapped by 1e-10 or missed
    # by 1e-10, far inside the screen's bounds but outside eps
    action = build_line_action(ALPHA, 2)
    alpha = ALPHA.value(1e-17)
    interval = (0.3, 0.3 + (1.0 - 2.0 * alpha) + margin)
    got = wandering_probe(action, interval, 2)
    want = _direct_wandering(action, interval, 2)
    assert got.verdict is (ProbeVerdict.REFUTES if margin > 0
                           else ProbeVerdict.SUPPORTS)
    assert got.as_jsonable() == want.as_jsonable()


def test_wandering_matches_direct_loop_line_n4_radius5():
    action = build_line_action(ALPHA, 4)
    got = wandering_probe(action, (1.2, 1.25), 5)
    want = _direct_wandering(action, (1.2, 1.25), 5)
    assert got.verdict is ProbeVerdict.REFUTES
    assert got.as_jsonable() == want.as_jsonable()


def test_negative_radius_rejected():
    action = build_line_action(ALPHA, 2)
    with pytest.raises(ValueError):
        wandering_probe(action, (0.2, 0.4), -1)
    with pytest.raises(ValueError):
        orbit(action, 0.5, -1)
    with pytest.raises(ValueError):
        transitivity_probe(action, 0.5, 0.1, -1)
    with pytest.raises(ValueError):
        check_word_budget(2, -1)
    with pytest.raises(ValueError):
        list(word_ball(2, -1))


def test_cli_negative_radius_exits_nonzero(tmp_path, capsys):
    line = tmp_path / "g2.json"
    circle = tmp_path / "c22.json"
    assert cli.main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                     "--output", str(line)]) == 0
    assert cli.main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                     "--circle", "--k", "2", "--g", "1,0",
                     "--output", str(circle)]) == 0
    capsys.readouterr()
    runs = [["probe-wandering", "--group", str(line), "--interval", "0.2,0.4",
             "--radius", "-1"],
            ["probe-transitive", "--group", str(line), "--eps", "0.1",
             "--radius", "-1", "--window", "0,1"],
            ["orbit", "--group", str(line), "--radius", "-1"],
            ["euler-cocycle", "--action", str(circle), "--ball", "-1"]]
    for argv in runs:
        assert cli.main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert "radius must be nonnegative" in out.err
