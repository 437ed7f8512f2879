"""Bundle fields n, k and g_word of the wrong JSON type are a ValueError
that names the field, so the CLI exits 2 with one `circledyn: ...` line."""

import json

import pytest

from circledyn import build_circle_action, parse_quad_irrational
from circledyn.cli import action_from_bundle, action_to_bundle, emit_json, main

C22 = build_circle_action(parse_quad_irrational("sqrt(2)-1"), 2, 2, (1, 0))


def _run_orbit(capsys, tmp_path, doc):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    code = main(["orbit", "--group", str(path), "--radius", "1"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("field, value", [
    ("n", "2"), ("n", 2.0), ("n", None),
    ("k", "2"), ("k", 2.5), ("k", True),
    ("g_word", 5), ("g_word", "10"), ("g_word", [1, "0"]), ("g_word", [1.0, 0]),
])
def test_circle_bundle_field_types(capsys, tmp_path, field, value):
    doc = json.loads(emit_json(action_to_bundle(C22)))
    doc[field] = value
    with pytest.raises(ValueError, match=f"'{field}'"):
        action_from_bundle(doc)
    code, out, err = _run_orbit(capsys, tmp_path, doc)
    assert code == 2 and out == ""
    assert err.startswith("circledyn: ") and err.count("\n") == 1, err
    assert f"'{field}'" in err


@pytest.mark.parametrize("doc", [
    {"space": "line", "n": "2", "alpha": {"p": -1, "q": 1, "d": 2, "r": 1}},
    {"space": "line", "n": [1], "generators": [{"kind": "translate",
                                               "amount": 1}]},
])
def test_line_bundle_n_type(capsys, tmp_path, doc):
    code, out, err = _run_orbit(capsys, tmp_path, doc)
    assert code == 2 and out == ""
    assert "'n'" in err and err.count("\n") == 1, err
