"""Malformed JSON documents (config, bundle, witness, file: lift) and
unwritable --output targets are validation errors: exit 2 with one
`circledyn:` line on stderr that depends only on the invocation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circledyn
from test_cli import run

SRC = Path(circledyn.__file__).resolve().parent.parent
TRANSLATE = {"kind": "translate", "amount": 1}
ROTNUM = ["rotnum", "--lift", "translate:0.3", "--N", "100"]


def _write(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _assert_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("circledyn: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("doc, message", [
    (None, "No such file"),
    ([1, 2], "expected a JSON object, got list"),
    ("{bad", "Expecting property name"),
])
def test_bad_config_file(tmp_path, capsys, doc, message):
    path = tmp_path / "config.json"
    if doc is not None:
        _write(path, doc)
    _assert_rejected(capsys, ["--config", str(path)] + ROTNUM, message)


@pytest.mark.parametrize("command", ["orbit --group", "euler-cocycle --action"])
def test_bundle_that_is_not_an_object(tmp_path, capsys, command):
    path = _write(tmp_path / "list.json", [1, 2])
    _assert_rejected(capsys, command.split() + [path],
                     "expected a JSON object, got list")


@pytest.mark.parametrize("generators, message", [
    (5, "field 'generators' must be a list, got 5"),
    ([TRANSLATE, 7], "an expression node must be an object, got 7"),
])
def test_line_bundle_with_bad_generators(tmp_path, capsys, generators, message):
    path = _write(tmp_path / "line.json",
                  {"space": "line", "n": 2, "generators": generators})
    _assert_rejected(capsys, ["orbit", "--group", path], message)


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "expected a JSON object, got list"),
    ("abc", "expected a JSON object, got str"),
    ({"kind": "compose", "children": 5},
     "the children of a 'compose' node must be a list, got 5"),
])
def test_bad_file_lift(tmp_path, capsys, doc, message):
    path = _write(tmp_path / "x.json", json.dumps(doc))
    _assert_rejected(capsys, ["rotnum", "--lift", f"file:{path}"], message)


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "expected a JSON object, got list"),
    ({"phi": {"kind": "identity"}, "h_word": 5},
     "field 'h_word' must be a list, got 5"),
])
def test_bad_witness(tmp_path, capsys, doc, message):
    bundle = str(tmp_path / "c.json")
    assert run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
               "--circle", "--k", "2", "--g", "1,0", "--output", bundle)[0] == 0
    witness = _write(tmp_path / "w.json", doc)
    _assert_rejected(capsys, ["conjugacy-verdict", "--a", bundle, "--b", bundle,
                              "--witness", witness], message)


@pytest.mark.parametrize("h_word", [[0.9, "0"], [0, 0.0], ["0", 0],
                                    [True, 0], [0, None]])
def test_witness_h_word_must_hold_json_integers(tmp_path, capsys, h_word):
    # int() used to read [0.9, "0"] as (0, 0), a witnessed conjugacy
    bundle = str(tmp_path / "c.json")
    assert run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
               "--circle", "--k", "2", "--g", "1,0", "--output", bundle)[0] == 0
    verdict = ["conjugacy-verdict", "--a", bundle, "--b", bundle, "--witness"]
    good = _write(tmp_path / "good.json", {"phi": {"kind": "identity"},
                                           "h_word": [0, 0]})
    code, out, _ = run(capsys, *verdict, good)
    assert code == 0 and json.loads(out)["verdict"] == "CONJUGATE_WITNESSED"
    bad = _write(tmp_path / "bad.json", {"phi": {"kind": "identity"},
                                         "h_word": h_word})
    _assert_rejected(capsys, verdict + [bad],
                     f"field 'h_word' must be a list of integers, "
                     f"got {h_word!r}")


def test_missing_config_exits_2_without_a_traceback(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "circledyn", "--config", "nope.json"] + ROTNUM,
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("circledyn: [Errno 2] No such file or directory: "
                           "'nope.json'\n")


@pytest.mark.parametrize("target", ["adir", "missing/r.json"])
def test_output_error_names_the_target_alone(tmp_path, capsys, target):
    (tmp_path / "adir").mkdir()
    path = str(tmp_path / target)
    errors = [run(capsys, *ROTNUM, "--output", path) for _ in range(2)]
    assert errors[0] == errors[1]
    code, out, err = errors[0]
    assert (code, out) == (2, "")
    assert err.startswith("circledyn: [Errno ") and err.endswith(f": '{path}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []
