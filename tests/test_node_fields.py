"""Each node kind declares its constructor's parameters once, in `fields`;
its JSON payload, its loader and its equality follow from them.  The
documents and reprs below are the ones circledyn wrote before `fields`
existed, so a kind's serialized form cannot drift."""

import inspect
import json
from fractions import Fraction

import pytest

from circledyn import expr
from circledyn.cli import main
from circledyn.expr import (Affine, CellHat, Compose, HBar, HBarInv, HomeoExpr,
                            Identity, Inverse, PiecewiseMonotone, Translate,
                            expr_from_jsonable, expr_to_jsonable, inverse)
from circledyn.rotnum import TranslationConjugacy

_TABLE = PiecewiseMonotone([0.0, 0.3, 0.6], [0.1, 0.5, 0.8], "cubic", "periodic")
_TABLE_DOC = ('{"kind": "piecewise_monotone", "xs": [0.0, 0.3, 0.6], '
              '"ys": [0.1, 0.5, 0.8], "interpolation": "cubic", '
              '"extension": "periodic"}')
_TABLE_REPR = ("PiecewiseMonotone(xs=[0.0, 0.3, 0.6], ys=[0.1, 0.5, 0.8], "
               "interpolation='cubic', extension='periodic')")
_CONJUGACY = TranslationConjugacy(Translate(0.5), Affine(2, 0))
_CONJUGACY_KIDS = ('"children": [{"kind": "translate", "amount": 0.5}, '
                   '{"kind": "affine", "scale": 2, "offset": 0}]}')

#: kind -> (tree, its JSON document, its repr)
SAMPLES = {
    "identity": (Identity(), '{"kind": "identity"}', "Identity()"),
    "translate": (Translate(Fraction(1, 3)),
                  '{"kind": "translate", "amount": {"num": 1, "den": 3}}',
                  "Translate(amount=Fraction(1, 3))"),
    "affine": (Affine(2, Fraction(1, 2)),
               '{"kind": "affine", "scale": 2, "offset": {"num": 1, "den": 2}}',
               "Affine(scale=2, offset=Fraction(1, 2))"),
    "hbar": (HBar(), '{"kind": "hbar"}', "HBar()"),
    "hbar_inv": (HBarInv(), '{"kind": "hbar_inv"}', "HBarInv()"),
    "cell_hat": (CellHat(Translate(0.3), (0.0, 0.25, 1.0)),
                 '{"kind": "cell_hat", "edges": [0.0, 0.25, 1.0], '
                 '"children": [{"kind": "translate", "amount": 0.3}]}',
                 "CellHat(edges=[0.0, 0.25, 1.0], Translate(amount=0.3))"),
    "piecewise_monotone": (_TABLE, _TABLE_DOC, _TABLE_REPR),
    "compose": (Compose(Translate(1), HBar()),
                '{"kind": "compose", "children": [{"kind": "translate", '
                '"amount": 1}, {"kind": "hbar"}]}',
                "Compose(Translate(amount=1), HBar())"),
    "inverse": (Inverse(_TABLE),
                '{"kind": "inverse", "children": [' + _TABLE_DOC + ']}',
                f"Inverse({_TABLE_REPR})"),
    "translation_conjugacy": (
        _CONJUGACY, '{"kind": "translation_conjugacy", ' + _CONJUGACY_KIDS,
        "TranslationConjugacy(Translate(amount=0.5), Affine(scale=2, offset=0))"),
    "translation_conjugacy_inverse": (
        inverse(_CONJUGACY),
        '{"kind": "translation_conjugacy_inverse", ' + _CONJUGACY_KIDS,
        "_TranslationConjugacyInverse(Translate(amount=0.5), "
        "Affine(scale=2, offset=0))"),
}

#: load-only kind -> (legacy document, the document it is written back as,
#: the repr of the tree it loads to)
LEGACY = {
    "unit_cell_hat": (
        {"kind": "unit_cell_hat",
         "children": [{"kind": "translate", "amount": 0.3}]},
        '{"kind": "cell_hat", "edges": [0.0, 1.0], '
        '"children": [{"kind": "translate", "amount": 0.3}]}',
        "CellHat(edges=[0.0, 1.0], Translate(amount=0.3))"),
    "arc_hat": (
        {"kind": "arc_hat", "lo": 0.25, "hi": 0.75,
         "children": [{"kind": "translate", "amount": 0.3}]},
        '{"kind": "cell_hat", "edges": [0.25, 0.75], '
        '"children": [{"kind": "translate", "amount": 0.3}]}',
        "CellHat(edges=[0.25, 0.75], Translate(amount=0.3))"),
}


def test_every_kind_has_a_sample():
    assert set(SAMPLES) == set(expr._NODE_REGISTRY)
    assert set(LEGACY) == set(expr._LOAD_ONLY_KINDS)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_document_repr_and_round_trip(kind):
    tree, doc, text = SAMPLES[kind]
    assert tree.kind == kind
    assert json.dumps(expr_to_jsonable(tree)) == doc
    assert repr(tree) == text
    back = expr_from_jsonable(json.loads(doc))
    assert type(back) is type(tree)
    assert back == tree and hash(back) == hash(tree)
    assert json.dumps(expr_to_jsonable(back)) == doc
    assert repr(back) == text


@pytest.mark.parametrize("kind", sorted(LEGACY))
def test_load_only_kinds(kind):
    legacy, doc, text = LEGACY[kind]
    tree = expr_from_jsonable(legacy)
    assert json.dumps(expr_to_jsonable(tree)) == doc
    assert repr(tree) == text
    assert tree == expr_from_jsonable(json.loads(doc))


def test_fields_are_the_only_per_kind_serialization():
    # a kind is __init__, _eval, fields and structural_inverse: the payload,
    # equality and the loader are the base class's, except that an inverse
    # document loads as inverse(inner)
    for cls in expr._NODE_REGISTRY.values():
        own = set()
        for klass in cls.__mro__[:cls.__mro__.index(HomeoExpr)]:
            own |= set(vars(klass))
        assert not own & {"payload", "_key"}, cls
        assert ("_from_payload" in own) == (cls is Inverse), cls
        params = inspect.signature(cls.__init__).parameters
        assert set(cls.fields) <= set(params), cls


_BASE_TABLE = (("xs", [0.0, 0.5]), ("ys", [0.1, 0.7]),
               ("interpolation", "linear"), ("extension", "periodic"))


@pytest.mark.parametrize("a, b", [
    (Translate(0.3), Translate(0.4)),
    (Affine(2, 0.5), Affine(3, 0.5)),
    (Affine(2, 0.5), Affine(2, 0.25)),
    (CellHat(HBar(), (0.0, 1.0)), CellHat(HBar(), (0.0, 0.5))),
    (Compose(Translate(0.3), HBar()), Compose(Translate(0.4), HBar())),
    (CellHat(Translate(0.3), (0.0, 1.0)), CellHat(Translate(0.4), (0.0, 1.0))),
] + [(PiecewiseMonotone(**dict(_BASE_TABLE)),
      PiecewiseMonotone(**dict(_BASE_TABLE, **{name: value})))
     for name, value in (("xs", [0.0, 0.6]), ("ys", [0.1, 0.8]),
                         ("interpolation", "cubic"), ("extension", "linear"))])
def test_equality_sees_every_field(a, b):
    assert a != b
    twin = expr_from_jsonable(expr_to_jsonable(a))
    assert twin == a and hash(twin) == hash(a) and twin != b


def test_unknown_keys_are_ignored():
    doc = {"kind": "translate", "amount": 0.3, "note": "ignored"}
    assert expr_from_jsonable(doc) == Translate(0.3)


_HALF = {"kind": "translate", "amount": 0.5}


@pytest.mark.parametrize("doc, kind", [
    ({"kind": "translate", "amount": [1]}, "translate"),
    ({"kind": "identity", "children": [{"kind": "hbar"}]}, "identity"),
    ({"kind": "translate", "amount": 1, "children": [_HALF]}, "translate"),
    ({"kind": "cell_hat", "edges": [0.0, 1.0]}, "cell_hat"),
    ({"kind": "translation_conjugacy", "children": [_HALF]},
     "translation_conjugacy"),
    ({"kind": "inverse", "children": [_HALF, _HALF]}, "inverse"),
    ({"kind": "unit_cell_hat"}, "unit_cell_hat"),
])
def test_malformed_documents_raise_value_error_naming_the_kind(doc, kind):
    with pytest.raises(ValueError, match=f"'{kind}'"):
        expr_from_jsonable(doc)


@pytest.mark.parametrize("doc", [
    {"kind": "translate"},
    {"kind": "affine", "scale": 2},
    {"kind": "cell_hat", "children": [_HALF]},
    {"kind": "piecewise_monotone", "xs": [0, 1], "ys": [0, 1]},
])
def test_missing_parameter_raises_key_error(doc):
    with pytest.raises(KeyError):
        expr_from_jsonable(doc)


@pytest.mark.parametrize("doc", [{"kind": "translate", "amount": [1]},
                                 {"kind": "translate"}])
def test_cli_exits_2_on_a_bad_lift_file(tmp_path, capsys, doc):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    assert main(["rotnum", "--lift", f"file:{path}", "--N", "100"]) == 2
    assert "circledyn:" in capsys.readouterr().err
