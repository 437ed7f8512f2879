"""rotation_number iterates a conjugate lift T_s o psi o G o psi^-1 through G.

Where the split fires, the estimate agrees with the orbit loop on F itself
to rounding; where it does not (approximate chains, chains without an
inverse pair, bare tables), the result is the very same float.  A counting
node pins the work: G is evaluated N times, psi and psi^-1 once each.
"""

import json
import math
import random

import pytest

from circledyn import (CellHat, PiecewiseMonotone, Translate, compose_all,
                       expr_from_jsonable, expr_to_jsonable, inverse, project,
                       rotation_number, sine_lift)
from circledyn.circle import circular_distance, frac
from circledyn.cli import main
from circledyn.expr import Compose
from circledyn.rotnum import _conjugate_split


def direct_estimate(f, N, x0=0.0):
    """The orbit loop on F itself: every step evaluates the whole lift."""
    step_eps = 1.0 / (10.0 * N * N)
    step = f.lift._eval
    start = frac(x0)
    y = float(start)
    deck = 0
    for _ in range(N):
        z = step(y, step_eps)
        m = math.floor(z)
        y = z - m
        if y >= 1.0:
            y -= 1.0
            m += 1
        deck += m
    return frac((deck + (y - start)) / N)


def random_circle_pl(rng, knots=8, gap=0.04, shift=0.0):
    """A seeded piecewise-linear circle homeomorphism sending 0 to shift."""
    while True:
        xs = [0.0] + sorted(rng.random() for _ in range(knots - 1))
        ys = [0.0] + sorted(rng.random() for _ in range(knots - 1))
        if all(b - a > gap for pts in (xs, ys)
               for a, b in zip(pts, pts[1:] + [1.0])):
            return PiecewiseMonotone(xs, [y + shift for y in ys], "linear",
                                     "periodic")


def assert_close(f, N, x0=0.0):
    est = rotation_number(f, N, x0)
    assert est.error_bound == 1.0 / N and est.iterations == N
    assert circular_distance(est.value, direct_estimate(f, N, x0)) <= 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_split_fires_on_compose_all_conjugate(seed):
    rng = random.Random(seed)
    c = random_circle_pl(rng)
    g = sine_lift(rng.uniform(0.05, 0.95), rng.uniform(0.03, 0.12))
    f = project(compose_all([c, g, inverse(c)]))
    s, psi, core, psi_inv = _conjugate_split(f.lift)
    assert (s, psi, core, psi_inv) == (0, c, g, inverse(c))
    for N in (10**3, 10**4):
        assert_close(f, N, x0=rng.random())


@pytest.mark.parametrize("seed", range(5))
def test_split_fires_on_circle_compose_chain(seed):
    rng = random.Random(100 + seed)
    # c(0) < 0 puts Translate(1) in front of c's lift and Translate(-1)
    # at the back of its inverse's
    table = random_circle_pl(rng, shift=rng.uniform(-0.4, 0.4))
    c = project(table)
    f = project(sine_lift(rng.uniform(0.05, 0.95), rng.uniform(0.03, 0.12)))
    conj = c.compose(f).compose(c.inverse())
    assert _conjugate_split(conj.lift)[1] == table
    assert_close(conj, 10**4)


@pytest.mark.parametrize("offset, s", [(1.3, -1), (-0.3, 1), (2.6, -2)])
def test_normalizing_shift_is_carried_by_s(offset, s):
    # psi(0) = 0.5; G moves points by more than a unit, or backwards, so
    # normalize_lift puts Translate(s) in front of the chain
    psi = PiecewiseMonotone([0.0, 0.3, 0.6], [0.5, 0.7, 1.2], "linear",
                            "periodic")
    f = project(compose_all([psi, sine_lift(offset, 0.1), inverse(psi)]))
    assert f.lift.members[0] == Translate(s)
    split = _conjugate_split(f.lift)
    assert split[0] == s and split[1] == psi
    for N in (10**3, 10**4):
        assert_close(f, N)
        assert_close(f, N, x0=0.77)


def test_multi_member_psi_of_translates_and_cells():
    rng = random.Random(7)
    c = random_circle_pl(rng)
    hat = CellHat(Translate(0.4), (0.1, 0.6))
    psi = [Translate(0.25), hat, c]
    g = sine_lift(0.4, 0.08)
    f = project(compose_all(psi + [g] + [inverse(h) for h in reversed(psi)]))
    split = _conjugate_split(f.lift)
    assert split[1] == Compose(*psi) and split[2] == g
    assert_close(f, 10**4, x0=0.3)


def test_approximate_chain_is_iterated_whole():
    c = random_circle_pl(random.Random(3))
    f = project(compose_all([c, inverse(sine_lift(0.3, 0.1)), inverse(c)]))
    assert f.lift.approximate
    assert _conjugate_split(f.lift) == (0, None, f.lift, None)
    N = 10**3
    est = rotation_number(f, N)
    assert est.value == direct_estimate(f, N)
    assert est.error_bound == 1.0 / N


def test_chain_without_inverse_pair_and_bare_table_are_unchanged():
    rng = random.Random(4)
    c, d = random_circle_pl(rng), random_circle_pl(rng)
    g = sine_lift(0.3, 0.1)
    for lift in (compose_all([c, g, inverse(d)]), compose_all([c, g]), g,
                 compose_all([c, inverse(c)]), Translate(0.3)):
        f = project(lift)
        assert _conjugate_split(f.lift)[1] is None
        for N in (10**3, 10**4):
            assert rotation_number(f, N, 0.2).value == direct_estimate(f, N, 0.2)


class CountingTable(PiecewiseMonotone):
    """A table that counts its evaluations; its inverse counts too."""

    __slots__ = ("calls",)

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def _eval(self, x, eps):
        self.calls += 1
        return super()._eval(x, eps)

    def structural_inverse(self):
        return CountingTable(self.ys, self.xs, "linear", self.extension)


def counting_conjugate(seed):
    rng = random.Random(seed)
    c0 = random_circle_pl(rng)
    g0 = sine_lift(rng.uniform(0.05, 0.95), 0.1)
    c = CountingTable(c0.xs, c0.ys, "linear", "periodic")
    g = CountingTable(g0.xs, g0.ys, "cubic", "periodic")
    c_inv = inverse(c)
    return c, g, c_inv, project(compose_all([c, g, c_inv]))


@pytest.mark.parametrize("N", [1, 10**3, 10**4])
def test_counted_guard_g_n_times_psi_once(N):
    c, g, c_inv, f = counting_conjugate(N)
    for node in (c, g, c_inv):
        node.calls = 0
    est = rotation_number(f, N, 0.4)
    assert (g.calls, c.calls, c_inv.calls) == (N, 1, 1)
    assert circular_distance(est.value, direct_estimate(f, N, 0.4)) <= 1e-14


def test_rotnum_cli_on_a_conjugate_tree_file(tmp_path, capsys):
    rng = random.Random(11)
    c = random_circle_pl(rng)
    tree = compose_all([c, sine_lift(0.37, 0.09), inverse(c)])
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_jsonable(tree)))
    code = main(["rotnum", "--lift", f"file:{path}", "--N", "20000",
                 "--x0", "0.25"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    doc.pop("rational_screen")
    f = project(expr_from_jsonable(json.loads(path.read_text())))
    assert _conjugate_split(f.lift)[1] == c
    assert doc == rotation_number(f, 20000, 0.25).as_jsonable()
