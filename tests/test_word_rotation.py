"""`CircleZnAction.word_rotation` is the exact rotation number (w_f mod k)/k
of a word of the circle construction: it matches the float estimate of the
word's circle map within its 1/N bound, mod 1, for n in {2, 3} and k in
1..7; `rotation_vector` is that of each generator."""

from fractions import Fraction

import pytest

from circledyn import (build_circle_action, parse_quad_irrational, project,
                       rotation_number)
from circledyn.groups import is_circle, word_to_homeo

ALPHA = parse_quad_irrational("sqrt(2)-1")
N = 200
G_WORDS = {2: (1, 0), 3: (1, 0, 1)}


def _words(n, k):
    """Words over (the n transplanted generators, f) whose f exponents run
    past both ends of 0..k-1, with and without the other generators."""
    rest = [(0,) * n, (1,) + (0,) * (n - 1), (-1,) * (n - 1) + (2,)]
    return [head + (e,) for e in (-k - 1, -1, 0, 1, k - 1, k, 2 * k + 1)
            for head in rest]


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("n", [2, 3])
def test_word_rotation_matches_the_estimate(n, k):
    action = build_circle_action(ALPHA, n, k, G_WORDS[n])
    assert is_circle(action)
    for word in _words(n, k):
        exact = action.word_rotation(word)
        assert exact == Fraction(word[-1] % k, k) and 0 <= exact < 1
        est = rotation_number(project(word_to_homeo(action, word)), N)
        assert est.error_bound == 1 / N
        gap = abs((est.value - exact + 0.5) % 1 - 0.5)
        assert gap <= est.error_bound, (word, est.value, exact)


def test_line_actions_are_not_circles():
    assert not is_circle(build_circle_action(ALPHA, 2, 2, (1, 0)).base)


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("n", [2, 3])
def test_rotation_vector_is_exact(n, k):
    action = build_circle_action(ALPHA, n, k, G_WORDS[n])
    vector = action.rotation_vector()
    assert vector == (Fraction(0),) * n + (Fraction(1, k) % 1,)
    assert all(type(r) is Fraction for r in vector)
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    assert vector == tuple(map(action.word_rotation, units))
    for unit, exact in zip(units, vector):
        est = rotation_number(project(word_to_homeo(action, unit)), N)
        assert abs((est.value - exact + 0.5) % 1 - 0.5) <= est.error_bound
