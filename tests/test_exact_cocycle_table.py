"""`euler-cocycle` tabulates the rotation images of the words: the table
equals the float table of the words' lift trees, cocycle_value on the lift
trees, and floor((r_v + r_w)/k) with r_w the word's exponent of f mod k."""

import json
import random

import pytest

from circledyn import cli
from circledyn.circle import CircleHomeo
from circledyn.cli import action_from_bundle, emit_json
from circledyn.euler import cocycle_value, euler_cocycle_table
from circledyn.groups import word_ball, word_to_homeo
from test_cli import run

#: (alpha, g) for n = 2, cycled over k so every k sees one of each kind
N2_BUNDLES = [("sqrt(2)-1", "1,0"), ("golden - 1", "1,1"), ("sqrt(2)-1", "0,1")]


def _bundle(capsys, path, alpha, n, k, g):
    code, _, err = run(capsys, "build-group", "--alpha", alpha, "--n", str(n),
                       "--circle", "--k", str(k), "--g", g,
                       "--output", str(path))
    assert code == 0, err
    return action_from_bundle(json.loads(path.read_text()))


def _floor_rule(v, w, k):
    return (v[-1] % k + w[-1] % k) // k


@pytest.mark.parametrize("k", range(1, 8))
def test_n2_table_equals_the_float_table_and_the_floor_rule(tmp_path, capsys, k):
    alpha, g = N2_BUNDLES[k % 3]
    action = _bundle(capsys, tmp_path / "c.json", alpha, 2, k, g)
    code, out, err = run(capsys, "euler-cocycle", "--action",
                         str(tmp_path / "c.json"), "--ball", "1")
    assert (code, err) == (0, "")
    reference = euler_cocycle_table(
        [(w, CircleHomeo(word_to_homeo(action, w))) for w in word_ball(3, 1)])
    # compared line by line: a text diff of two tables takes minutes
    assert out.splitlines() == emit_json(reference.as_jsonable()).splitlines()
    values = json.loads(out)["values"]
    assert len(values) == 27 ** 2
    for v, w, c in values:
        assert c == _floor_rule(v, w, k), (v, w)


@pytest.mark.parametrize("k", range(1, 8))
def test_n3_pairs_equal_cocycle_value_on_lift_trees(tmp_path, capsys,
                                                     monkeypatch, k):
    action = _bundle(capsys, tmp_path / "c.json", "sqrt(2)-1", 3, k, "1,0,1")
    # keep the elements the command tabulates and tabulate only the first: the
    # whole table, 81**2 pairs, takes seconds and the README test runs it
    tabulated = {}

    def first_row(elements):
        tabulated.update(elements)
        return euler_cocycle_table(elements[:1])

    monkeypatch.setattr(cli, "euler_cocycle_table", first_row)
    code, _, err = run(capsys, "euler-cocycle", "--action",
                       str(tmp_path / "c.json"), "--ball", "1")
    assert (code, err) == (0, "")
    words = word_ball(4, 1)
    assert list(tabulated) == words
    trees = {}
    rng = random.Random(1000 + k)
    for _ in range(100):
        v, w = rng.choice(words), rng.choice(words)
        for u in (v, w):
            if u not in trees:
                trees[u] = CircleHomeo(word_to_homeo(action, u))
        c = cocycle_value(tabulated[v], tabulated[w])
        assert c == cocycle_value(trees[v], trees[w]) == _floor_rule(v, w, k)
