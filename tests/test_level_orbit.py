"""Word values of the line construction filled level by level: level n is
the unit translation plus level n - 1 transplanted into every unit cell, so
the ball at x0 = m + u is m + j + hbar(ball of level n - 1 at hbar^-1(u)).
The values agree with direct evaluation of every word's tree, actions of
any other shape take the step engine, and the recursion makes no cell
transplant at all (counted, so independent of the machine)."""

import itertools
import json
import math
import random

import pytest

from circledyn import (Affine, CellHat, Translate, ZnAction,
                       build_line_action, evaluate, orbit,
                       parse_quad_irrational, word_to_homeo)
from circledyn import probes
from circledyn.cli import action_from_bundle, main
from circledyn.errors import BudgetExceededError, DomainError
from circledyn.expr import BOUNDARY_DELTA, DEFAULT_EPS, UnitCellHat
from circledyn.probes import DEDUP_RESOLUTION, _word_values

ALPHA = parse_quad_irrational("sqrt(2)-1")

#: (n, radius) small enough to evaluate every word's tree
LEVELS = [(2, 10), (3, 5), (4, 3), (5, 2)]


def _base_points(n):
    rng = random.Random(f"level {n}")
    seeded = [rng.uniform(-3.0, 3.0) for _ in range(3)]
    # integer, negative, and next to a wall (inside the chart guard band)
    return seeded + [2.0, -1.37, 1.0 - BOUNDARY_DELTA / 2,
                     3.0 + BOUNDARY_DELTA / 2, 0.5]


def _direct(action, x0, radius):
    """g_v(x0) from each word's own tree, in code order."""
    span = range(-radius, radius + 1)
    return [evaluate(word_to_homeo(action, v), x0, DEFAULT_EPS)
            for v in itertools.product(span, repeat=len(action.generators))]


def _merged_count(values):
    kept = []
    for v in sorted(values):
        if kept and v - kept[-1] < DEDUP_RESOLUTION:
            continue
        kept.append(v)
    return len(kept)


@pytest.mark.parametrize("n,radius", LEVELS)
def test_level_values_match_direct_evaluation(n, radius):
    action = build_line_action(ALPHA, n)
    for x0 in _base_points(n):
        values = _word_values(action, x0, radius)
        direct = _direct(action, x0, radius)
        assert len(values) == len(direct)
        worst = max(abs(a - b) for a, b in zip(values, direct))
        assert worst <= 1e-12, (x0, worst)


@pytest.mark.parametrize("n,radius", LEVELS)
def test_orbit_size_matches_direct_evaluation(n, radius):
    action = build_line_action(ALPHA, n)
    for x0 in _base_points(n):
        direct = _direct(action, x0, radius)
        assert len(orbit(action, x0, radius)) == _merged_count(direct), x0


def test_integer_base_point_is_fixed_by_every_cell():
    action = build_line_action(ALPHA, 4)
    values = _word_values(action, -2.0, 2)
    cube = 5 ** 3
    for i, j in enumerate(range(-2, 3)):
        assert set(values[i * cube:(i + 1) * cube]) == {-2.0 + j}


def test_zero_word_is_the_base_point():
    for n in (2, 3, 4):
        action = build_line_action(ALPHA, n)
        for x0 in _base_points(n):
            values = _word_values(action, x0, 3)
            assert values[len(values) // 2] == x0


#: commuting line generators that are not the construction's shape, each
#: with one level that takes the step engine
OFF_SHAPE = {
    "translate-2 head": (Translate(2), UnitCellHat(Translate(1)),
                         UnitCellHat(Translate(0.3))),
    "affine translation": (Translate(1), Affine(1.0, 0.5)),
    "dilations": (Affine(2.0, 0.0), Affine(3.0, 0.0)),
    "other cells": (Translate(1), CellHat(Translate(1), (0.2, 0.7)),
                    CellHat(Translate(0.41), (0.2, 0.7))),
    "affine inner": (Translate(1), UnitCellHat(Affine(1.0, 1.0)),
                     UnitCellHat(Affine(1.0, 0.3))),
}


@pytest.mark.parametrize("name", sorted(OFF_SHAPE))
def test_off_shape_actions_take_the_step_engine(name, monkeypatch):
    gens = OFF_SHAPE[name]
    action = ZnAction(n=len(gens), generators=gens)
    stepped = []
    engine = probes._stepped_values

    def spy(generators, x, radius):
        stepped.append(len(generators))
        return engine(generators, x, radius)

    monkeypatch.setattr(probes, "_stepped_values", spy)
    for x0 in (0.37, -1.8, 2.0):
        values = _word_values(action, x0, 2)
        direct = _direct(action, x0, 2)
        assert max(abs(a - b) for a, b in zip(values, direct)) <= 1e-12
    assert stepped


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bundle_read_back_gives_identical_values(n, tmp_path, capsys):
    path = tmp_path / f"g{n}.json"
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", str(n),
                 "--output", str(path)]) == 0
    capsys.readouterr()
    loaded = action_from_bundle(json.loads(path.read_text()))
    built = build_line_action(ALPHA, n)
    for x0 in _base_points(n):
        assert _word_values(loaded, x0, 3) == _word_values(built, x0, 3)


def test_word_values_keep_their_checks():
    action = build_line_action(ALPHA, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        _word_values(action, 0.5, -1)
    with pytest.raises(BudgetExceededError):
        _word_values(action, 0.5, 100)
    with pytest.raises(DomainError):
        _word_values(action, math.nan, 2)


def test_orbit_n4_radius5_makes_no_cell_transplant(monkeypatch):
    """The regression guard on evaluation counts: the level recursion
    evaluates no CellHat or Translate node and applies the chart at most
    once per point of each level's sub-ball."""
    counts = {"cell_hat": 0, "translate": 0, "atan": 0}

    def counted(cls, key):
        inner = cls._eval

        def wrapper(self, x, eps):
            counts[key] += 1
            return inner(self, x, eps)
        monkeypatch.setattr(cls, "_eval", wrapper)

    counted(CellHat, "cell_hat")
    counted(Translate, "translate")
    atan = math.atan

    def counted_atan(x):
        counts["atan"] += 1
        return atan(x)
    monkeypatch.setattr(math, "atan", counted_atan)

    n, radius = 4, 5
    action = build_line_action(ALPHA, n)
    # the counters see the step engine: one word costs cell transplants
    word_to_homeo(action, (0, 1, 1, 1))(0.37)
    assert counts["cell_hat"] > 0
    counts.update(cell_hat=0, translate=0, atan=0)

    bound = sum((2 * radius + 1) ** level for level in range(n))
    for x0 in (0.5, 0.37, -2.61):
        counts.update(atan=0)
        orbit(action, x0, radius)
        assert counts["cell_hat"] == 0
        assert counts["translate"] == 0
        assert 0 < counts["atan"] <= bound


def test_radius_zero_is_the_base_point():
    for n in (2, 3, 4, 5):
        action = build_line_action(ALPHA, n)
        assert list(_word_values(action, 0.37, 0)) == [0.37]

