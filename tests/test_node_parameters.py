"""Node parameters built through the Python API are numbers, as the loader
requires of a document: a bool or a string is a TypeError naming the
parameter, so every node the API builds writes a document that loads back
to an equal node."""

from fractions import Fraction

import pytest

from circledyn import build_circle_action, build_line_action, parse_quad_irrational
from circledyn.expr import (_NODE_REGISTRY, Affine, CellHat, Compose,
                            HBar, HBarInv, Identity, Inverse,
                            PiecewiseMonotone, Translate, UnitCellHat,
                            expr_from_jsonable, expr_to_jsonable, inverse,
                            power)
from circledyn.groups import word_to_homeo
from circledyn.rotnum import TranslationConjugacy

ALPHA = parse_quad_irrational("sqrt(2)-1")

#: (build, the parameter its TypeError names)
REFUSED = [
    (lambda: Translate(True), "amount"),
    (lambda: Translate("0.25"), "amount"),
    (lambda: Affine(True, 0), "scale"),
    (lambda: Affine("2", 0), "scale"),
    (lambda: Affine(2, False), "offset"),
    (lambda: Affine(2, "0.5"), "offset"),
    (lambda: CellHat(Identity(), ("0", "1")), "edges"),
    (lambda: CellHat(Identity(), (False, True)), "edges"),
    (lambda: CellHat(Identity(), (0.25, "0.5")), "edges"),
    (lambda: PiecewiseMonotone(["0", "0.5"], [0.0, 0.5]), "xs"),
    (lambda: PiecewiseMonotone([0.0, True], [0.0, 0.5]), "xs"),
    (lambda: PiecewiseMonotone([0.0, 0.5], [0.0, "0.5"]), "ys"),
]


@pytest.mark.parametrize("build,name", REFUSED)
def test_bool_and_string_parameters_are_refused(build, name):
    with pytest.raises(TypeError, match=repr(name)):
        build()


def _api_nodes():
    """Nodes of every kind, with int, Fraction and float parameters, and
    the trees of the constructions' generators, words and inverses."""
    table = PiecewiseMonotone([0.0, 0.3, 0.6], [0.1, 0.5, 0.8], "cubic",
                              "periodic")
    nodes = [Identity(), Translate(2), Translate(Fraction(1, 3)),
             Translate(-0.75), Affine(3, Fraction(-1, 2)), Affine(0.5, 1.25),
             HBar(), HBarInv(), UnitCellHat(Translate(0.3)),
             CellHat(Affine(2, 0), (Fraction(1, 4), 0.75)),
             CellHat(HBar(), (0, 0.25, 1)), table,
             PiecewiseMonotone([0, 1, 2], [0, 2, 3], "linear", "linear"),
             Compose(Translate(1), HBar()), Inverse(table), inverse(table),
             power(UnitCellHat(Translate(0.1)), -3),
             TranslationConjugacy(Translate(0.5), Affine(2, 0)),
             inverse(TranslationConjugacy(Translate(0.5), Affine(2, 0)))]
    line = build_line_action(ALPHA, 3)
    circle = build_circle_action(ALPHA, 2, 2, (1, 0))
    nodes += list(line.generators)
    nodes += [g.lift for g in circle.generators]
    nodes += [word_to_homeo(line, v) for v in [(1, -2, 3), (0, 0, -1)]]
    nodes += [word_to_homeo(circle, v) for v in [(1, -1, 2)]]
    return nodes


def test_every_kind_is_built():
    kinds = set()

    def walk(h):
        kinds.add(h.kind)
        for child in h.children():
            walk(child)

    for h in _api_nodes():
        walk(h)
    assert kinds == set(_NODE_REGISTRY)


@pytest.mark.parametrize("h", _api_nodes(), ids=lambda h: h.kind)
def test_api_built_nodes_round_trip(h):
    doc = expr_to_jsonable(h)
    assert expr_from_jsonable(doc) == h
    assert expr_to_jsonable(expr_from_jsonable(doc)) == doc
