"""euler: bounded Euler cocycle values on pairs from the radius-1 word balls
of three circle actions, and exact rational cocycle tables.

Lift validation inside `CircleHomeo.compose` dominates each pair, so lift
handling shows here and in no other in-process workload.

Each action has a seeded third of its cocycle table, PAIRS_PER_ACTION of
the 729 ordered pairs of its 27-word ball, and computes it pass after
pass, each pair once per pass, with the elements built afresh for each
pass (outside the timed ops), so no object carries from one pass to the
next.  An op's label names its pair, so the wall times of one label,
about ten a run, are the same computation.  A cycle takes PAIRS_PER_CYCLE
pairs from the stream of each action, so every action gets the same share,
and one rational table per k.  Thirteen pairs per action keep the three
cheap rational ops at 3/42 of the mix, so both percentiles lie among the
pair ops.

Every op of the workload must succeed, so the two actions on which
circledyn 0.1.0 raises PrecisionError are not in the ops: (n, k) = (2, 3),
where 364 of 729 pairs raise, and (3, 2), where 16 of 81 elements cannot be
built and 3825 of the 4225 buildable pairs raise.  The traced run reports
how often they fail (`euler.failed_ratio.*`, `euler.unbuildable.*`).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

import oracles
from common import Op
from oracles import expect

LIMIT_MS = 50.0
TRACE_ROUNDS = 5

ALPHA = "sqrt(2)-1"
PAIRS_PER_CYCLE = 13
PAIRS_PER_ACTION = 243
#: name, n, k, g of the actions whose tables the ops stream
ACTIONS = (
    ("c22_10", 2, 2, (1, 0)),
    ("c22_11", 2, 2, (1, 1)),
    ("c24_10", 2, 4, (1, 0)),
)
#: actions that fail on circledyn 0.1.0; only the traced run touches them
FAILING = (
    ("c23_10", 2, 3, (1, 0)),
    ("c32_101", 3, 2, (1, 0, 1)),
)
RATIONAL_K = (2, 3, 5)
#: pairs per failing action scanned for its failure ratio
SITE_SAMPLE = 243


@dataclass
class Family:
    name: str
    action: object
    words: list
    pairs: list             # ordered word pairs, in seeded order
    table: int = -1         # how many passes over the pairs were started
    elements: dict = None   # word -> CircleHomeo, or the build error


@dataclass
class State:
    cd: object
    seed: int
    families: list


def _build_elements(cd, fam: Family) -> dict:
    elements = {}
    for w in fam.words:
        try:
            elements[w] = cd.CircleHomeo(cd.word_to_homeo(fam.action, w))
        except cd.errors.CircledynError as exc:
            elements[w] = exc.with_traceback(None)
    return elements


def _table_elements(cd, fam: Family, index: int) -> dict:
    """The elements of the pass that the index-th pair of the stream
    belongs to; a new pass gets new elements."""
    table = index // len(fam.pairs)
    if table != fam.table:
        fam.elements = _build_elements(cd, fam)
        fam.table = table
    return fam.elements


def _families(cd, actions, rng: random.Random, size: int) -> list:
    """The actions, each with the first `size` of its ordered word pairs
    in a seeded order."""
    alpha = cd.parse_quad_irrational(ALPHA)
    families = []
    for name, n, k, g in actions:
        action = cd.build_circle_action(alpha, n, k, g)
        words = list(itertools.product((-1, 0, 1), repeat=n + 1))
        pairs = list(itertools.product(words, repeat=2))
        rng.shuffle(pairs)
        fam = Family(name, action, words, pairs[:size])
        _table_elements(cd, fam, 0)
        families.append(fam)
    return families


def setup(cd, env) -> State:
    return State(cd, env.seed, _families(cd, ACTIONS, random.Random(env.seed),
                                         PAIRS_PER_ACTION))


def _element(cd, fam: Family, word):
    """An element of a failing action; one that could not be built is
    built again, so that it raises again."""
    el = fam.elements[word]
    if isinstance(el, Exception):
        return cd.CircleHomeo(cd.word_to_homeo(fam.action, word))
    return el


def _pair_op(cd, fam: Family, elements: dict, u, v) -> Op:
    f1, f2 = elements[u], elements[v]

    def check(c):
        want = oracles.cocycle_expected(cd, f1, f2)
        expect(c == want, f"c({u}, {v}) = {c}, floor rule gives {want}")

    return Op(f"cocycle_value.{fam.name}.{_word_text(u)}.{_word_text(v)}",
              lambda: cd.cocycle_value(f1, f2), check)


def _word_text(word) -> str:
    return "".join("-0+"[e + 1] for e in word)


def _rational_op(cd, k: int, residues) -> Op:
    def check(table):
        for (a, b), c in table.values.items():
            expect(c == (a + b) // k, f"k={k}: c({a}, {b}) = {c}")
        expect(len(table.values) == len(set(residues)) ** 2,
               f"k={k}: {len(table.values)} entries")

    return Op(f"rational_class_table.k{k}",
              lambda: cd.rational_class_table(k, residues), check)


def ops(state: State, r: int) -> list:
    cd = state.cd
    out = []
    for fam in state.families:
        for j in range(PAIRS_PER_CYCLE):
            index = r * PAIRS_PER_CYCLE + j
            elements = _table_elements(cd, fam, index)
            u, v = fam.pairs[index % len(fam.pairs)]
            out.append(_pair_op(cd, fam, elements, u, v))
    rng = random.Random(state.seed * 1_000_003 + r)
    for k in RATIONAL_K:
        out.append(_rational_op(cd, k, (rng.randrange(k), rng.randrange(k))))
    return out


def layer_metrics(ctx) -> dict:
    cd, state = ctx.cd, ctx.state
    m = {}
    pair_ids = [i for i, lab in enumerate(ctx.labels)
                if lab.startswith("cocycle_value.")]
    calls = ctx.spans.calls("euler.cocycle_value", pair_ids)
    evals = sum(ctx.traced.records[i].evals for i in pair_ids)
    m["euler.evals_per_pair"] = evals / calls if calls else 0.0

    # where the failures of the actions left out of the ops sit: the first
    # SITE_SAMPLE pairs of each one's seeded pair list
    for fam in _families(cd, FAILING, random.Random(state.seed),
                         SITE_SAMPLE):
        failed = 0
        for u, v in fam.pairs:
            try:
                cd.cocycle_value(*(_element(cd, fam, w) for w in (u, v)))
            except cd.errors.CircledynError:
                failed += 1
        m[f"euler.failed_ratio.{fam.name}"] = failed / len(fam.pairs)
        m[f"euler.unbuildable.{fam.name}"] = sum(
            isinstance(e, Exception) for e in fam.elements.values())

    fam = state.families[0]
    elements = [(w, e) for w, e in sorted(fam.elements.items())]
    t0 = time.perf_counter()
    cd.euler_cocycle_table(elements)
    m["euler.euler_cocycle_table.s.c22"] = time.perf_counter() - t0
    return m
