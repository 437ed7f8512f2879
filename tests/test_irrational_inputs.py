"""Irrational inputs and circle bundles that cannot be used end in a typed
ValueError (CLI exit 2 with one `circledyn: ...` line), and the angle
-0.0 is printed as 0."""

import json
import math
import re

import pytest

from circledyn import build_circle_action, parse_quad_irrational
from circledyn.circle import frac
from circledyn.cli import action_from_bundle, action_to_bundle, emit_json, main
from circledyn.expr import Translate, expr_to_jsonable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_validation_error(capsys, argv, match):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("circledyn: ") and err.count("\n") == 1, err
    assert match in err


@pytest.mark.parametrize("x", ["1/0", "sqrt(2)/(sqrt(2)-sqrt(2))"])
def test_check_equiv_division_by_zero_exits_2(capsys, x):
    assert_validation_error(capsys, ["check-equiv", "--x", x, "--y", "sqrt(2)"],
                            "divides by zero")


def test_build_group_radicand_bound_exits_2(capsys, tmp_path):
    assert_validation_error(
        capsys, ["build-group", "--alpha",
                 "sqrt(99999999999999999999999999999999999)", "--n", "2",
                 "--output", str(tmp_path / "g.json")],
        "MAX_RADICAND")
    assert not (tmp_path / "g.json").exists()


def _write_bundle(tmp_path, doc) -> str:
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    return str(path)


C22 = build_circle_action(parse_quad_irrational("sqrt(2)-1"), 2, 2, (1, 0))


def _c22_doc() -> dict:
    return json.loads(emit_json(action_to_bundle(C22)))


@pytest.mark.parametrize("field, value, match", [
    ("d", 10**14 + 31, "MAX_RADICAND"),
    ("d", 2.0, "must be integers"),
    ("p", 1.5, "must be integers"),
    ("r", True, "must be integers"),
])
def test_bundle_alpha_fields_are_checked(capsys, tmp_path, field, value, match):
    for doc in (_c22_doc(), {"space": "line", "n": 2,
                             "alpha": {"p": -1, "q": 1, "d": 2, "r": 1}}):
        doc["alpha"][field] = value
        with pytest.raises(ValueError, match=match):
            action_from_bundle(doc)
        assert_validation_error(
            capsys, ["orbit", "--group", _write_bundle(tmp_path, doc),
                     "--radius", "1"], match)


def test_bundle_alpha_must_be_an_object(capsys, tmp_path):
    doc = _c22_doc()
    doc["alpha"] = [-1, 1, 2, 1]
    assert_validation_error(
        capsys, ["orbit", "--group", _write_bundle(tmp_path, doc)],
        "alpha must be an object")


def test_written_circle_bundles_load_unchanged():
    for alpha, n, k, g in [("sqrt(2)-1", 2, 2, (1, 0)),
                           ("sqrt(2)-1", 3, 2, (1, 0, 1)),
                           ("sqrt(2)-1", 2, 5, (1, 1)),
                           ("golden - 1", 2, 3, (1, 0))]:
        action = build_circle_action(parse_quad_irrational(alpha), n, k, g)
        text = emit_json(action_to_bundle(action))
        loaded = action_from_bundle(json.loads(text))
        assert emit_json(action_to_bundle(loaded)) == text


def _edited(field, edit):
    doc = _c22_doc()
    edit(doc[field])
    return doc


@pytest.mark.parametrize("doc, where", [
    (_edited("generators", lambda g: g.__setitem__(1, g[0])), "generators[1]"),
    (_edited("generators",
             lambda g: g.__setitem__(2, expr_to_jsonable(Translate(0.5)))),
     "generators[2]"),
    (_edited("generators", lambda g: g.pop()), "generators[2]"),
    (_edited("generators", lambda g: g.append(g[0])), "generators[3]"),
    (_edited("marked_angles", lambda a: a.__setitem__(0, 0.25)),
     "marked_angles[0]"),
    (_edited("marked_angles", lambda a: a.__setitem__(1, "0")),
     "marked_angles[1]"),
    (_edited("marked_angles", lambda a: a.pop()), "marked_angles[1]"),
], ids=["swapped", "replaced", "missing", "extra", "moved", "string",
        "missing angle"])
def test_circle_bundle_must_match_its_rebuilt_action(capsys, tmp_path, doc,
                                                    where):
    with pytest.raises(ValueError, match=re.escape(where)):
        action_from_bundle(doc)
    assert_validation_error(
        capsys, ["orbit", "--group", _write_bundle(tmp_path, doc)], where)


def test_circle_bundle_fields_must_be_lists(tmp_path, capsys):
    doc = _c22_doc()
    doc["marked_angles"] = 0.5
    assert_validation_error(
        capsys, ["orbit", "--group", _write_bundle(tmp_path, doc)],
        "'marked_angles' must be a list")


def test_circle_bundle_without_written_fields_loads():
    doc = _c22_doc()
    del doc["generators"], doc["marked_angles"]
    assert action_to_bundle(action_from_bundle(doc)) == action_to_bundle(C22)


def test_negative_zero_angle_is_zero(tmp_path, capsys):
    assert math.copysign(1.0, frac(-0.0)) == 1.0
    assert math.copysign(1.0, frac(0.0)) == 1.0
    bundle = _write_bundle(tmp_path, _c22_doc())
    outputs = []
    for x0 in ("-0.0", "0.0"):
        code, out, _ = run(capsys, "orbit", "--group", bundle, f"--x0={x0}",
                           "--radius", "1", "--format", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == "0\n0.5\n"
