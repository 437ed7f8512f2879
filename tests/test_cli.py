"""End-to-end CLI behavior: artifact round-trips, determinism, exit codes."""

import json

import pytest

from circledyn.cli import emit_json, main, parse_map_spec
from circledyn.expr import Translate, expr_to_jsonable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rotnum_translation(capsys):
    code, out, _ = run(capsys, "rotnum", "--lift", "translate:0.3", "--N", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.3, abs=1e-12)
    assert doc["error_bound"] == pytest.approx(0.01)
    assert doc["rational_screen"] == {"p": 3, "q": 10}


def test_check_equiv(capsys):
    code, out, _ = run(capsys, "check-equiv", "--x", "sqrt(2)-1",
                       "--y", "sqrt(2)+1")
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    m1, n1, m2, n2 = doc["witness"]
    assert abs(m1 * n2 - n1 * m2) == 1


def test_check_equiv_negative(capsys):
    code, out, _ = run(capsys, "check-equiv", "--x", "golden - 1",
                       "--y", "sqrt(2)-1")
    assert code == 0
    assert json.loads(out) == {"equivalent": False, "witness": None}


def test_build_group_then_probes(tmp_path, capsys):
    bundle = tmp_path / "g2.json"
    code, _, _ = run(capsys, "build-group", "--alpha", "(0+1*sqrt(2))/1 - 1",
                     "--n", "2", "--output", str(bundle))
    assert code == 0
    doc = json.loads(bundle.read_text())
    assert doc["space"] == "line" and doc["n"] == 2
    assert doc["alpha"] == {"p": -1, "q": 1, "d": 2, "r": 1}

    code, out, _ = run(capsys, "probe-transitive", "--group", str(bundle),
                       "--eps", "0.02", "--radius", "50", "--window", "0,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "SUPPORTS" and rep["coverage"] == 1.0

    code, out, _ = run(capsys, "probe-wandering", "--group", str(bundle),
                       "--interval", "0.2,0.4", "--radius", "20")
    assert code == 3
    assert json.loads(out)["verdict"] == "REFUTES"


def test_hand_written_line_bundle(tmp_path, capsys):
    # a bundle with explicit generators is accepted directly
    bundle = tmp_path / "L1.json"
    bundle.write_text(json.dumps({
        "space": "line", "n": 1,
        "generators": [expr_to_jsonable(Translate(1))]}))
    code, out, _ = run(capsys, "probe-wandering", "--group", str(bundle),
                       "--interval", "0.1,0.9", "--radius", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "SUPPORTS"


def test_orbit_csv_and_svg(tmp_path, capsys):
    bundle = tmp_path / "g2.json"
    run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
        "--output", str(bundle))
    code, out, _ = run(capsys, "orbit", "--group", str(bundle),
                       "--radius", "2", "--format", "csv")
    assert code == 0
    rows = [float(line) for line in out.strip().splitlines()]
    assert len(rows) == 25
    assert rows == sorted(rows)

    svg = tmp_path / "orbit.svg"
    code, _, _ = run(capsys, "orbit", "--group", str(bundle), "--radius", "3",
                     "--format", "svg", "--window", "0,1",
                     "--output", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_circle_bundle_roundtrip_and_euler(tmp_path, capsys):
    bundle = tmp_path / "c22.json"
    code, _, _ = run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                     "--circle", "--k", "2", "--g", "1,0",
                     "--output", str(bundle))
    assert code == 0
    doc = json.loads(bundle.read_text())
    assert doc["space"] == "circle" and doc["k"] == 2
    assert len(doc["generators"]) == 3

    code, out, _ = run(capsys, "euler-cocycle", "--action", str(bundle),
                       "--ball", "1")
    assert code == 0
    table = json.loads(out)
    assert len(table["elements"]) == 27
    assert all(entry[2] in (0, 1) for entry in table["values"])


def test_conjugacy_verdict_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2", "--circle",
        "--k", "2", "--g", "1,0", "--output", str(a))
    run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2", "--circle",
        "--k", "3", "--g", "1,0", "--output", str(b))
    code, out, _ = run(capsys, "conjugacy-verdict", "--a", str(a), "--b", str(b))
    assert code == 0
    assert json.loads(out)["verdict"] == "NOT_CONJUGATE"

    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"phi": {"kind": "identity"},
                                   "h_word": [0, 0]}))
    code, out, _ = run(capsys, "conjugacy-verdict", "--a", str(a), "--b", str(a),
                       "--witness", str(witness))
    assert code == 0
    assert json.loads(out)["verdict"] == "CONJUGATE_WITNESSED"


def test_fixed_points_cli(capsys):
    code, out, _ = run(capsys, "fixed-points", "--lift", "sine:0.0,0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_angles"] == pytest.approx([0.0, 0.5], abs=1e-8)


def test_validation_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "check-equiv", "--x", "3/4", "--y", "sqrt(2)")
    assert code == 2
    assert "circledyn" in err
    code, _, _ = run(capsys, "orbit", "--group", str(tmp_path / "missing.json"))
    assert code == 2


def test_determinism_byte_identical(tmp_path, capsys):
    outs = []
    for run_idx in range(2):
        path = tmp_path / f"out{run_idx}.json"
        code, _, _ = run(capsys, "rotnum", "--lift", "sine:0.3,0.05",
                         "--N", "500", "--output", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 250, "x0": 0.0}))
    code, out, _ = run(capsys, "--config", str(cfg), "rotnum",
                       "--lift", "translate:0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["iterations"] == 250
    # explicit flags win over the config
    code, out, _ = run(capsys, "--config", str(cfg), "rotnum",
                       "--lift", "translate:0.25", "--N", "100")
    assert json.loads(out)["iterations"] == 100


def test_map_spec_parsing():
    assert parse_map_spec("identity").kind == "identity"
    assert parse_map_spec("translate:0.5") == Translate(0.5)
    with pytest.raises(ValueError):
        parse_map_spec("nonsense")
    with pytest.raises(ValueError):
        parse_map_spec("banana:1")


def test_emit_json_17_digits():
    text = emit_json({"x": 1.0 / 3.0, "list": [0.1], "n": 3, "s": "ok",
                      "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert "0.10000000000000001" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "list": [0.1], "n": 3,
                                "s": "ok", "flag": True, "none": None}


@pytest.mark.parametrize("config, argv", [
    ({"N": "100"}, ["rotnum", "--lift", "translate:0.25"]),
    ({"handler": 1, "command": "orbit", "help": True, "N": 100,
      "output": None}, ["rotnum", "--lift", "translate:0.25"]),
])
def test_config_values_are_typed_like_flags(tmp_path, capsys, config, argv):
    # a string converts as --N's text would; null values and keys that name
    # no option of the command are ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, "--config", str(cfg), *argv)
    assert code == 0
    assert json.loads(out)["iterations"] == 100


@pytest.mark.parametrize("config, flag", [({"radius": 2.5}, "--radius"),
                                          ({"format": "png"}, "--format"),
                                          ({"x0": [0.5]}, "--x0")])
def test_bad_config_values_exit_2(tmp_path, capsys, config, flag):
    bundle = tmp_path / "g2.json"
    assert run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
               "--output", str(bundle))[0] == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "orbit", "--group", str(bundle)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err



@pytest.mark.parametrize("flags", [["--rad", "1"], ["--radi=1"],
                                   ["--radius", "1"]])
def test_abbreviated_flags_win_over_the_config(tmp_path, capsys, flags):
    bundle = tmp_path / "g2.json"
    assert run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
               "--output", str(bundle))[0] == 0
    argv = ["orbit", "--group", str(bundle), "--format", "csv"]
    code, want, _ = run(capsys, *argv, "--radius", "1")
    assert code == 0 and len(want.splitlines()) == 9
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 0}))
    assert run(capsys, "--config", str(cfg), *argv, *flags) == (0, want, "")


def test_abbreviated_switch_wins_over_the_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"circle": False}))
    code, out, _ = run(capsys, "--config", str(cfg), "build-group",
                       "--alpha", "sqrt(2)-1", "--n", "2", "--circ",
                       "--k", "2", "--g", "1,0")
    assert code == 0 and json.loads(out)["space"] == "circle"

def test_config_switch_takes_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    argv = ["--config", str(cfg), "build-group", "--alpha", "sqrt(2)-1",
            "--n", "2", "--k", "2", "--g", "1,0"]
    cfg.write_text(json.dumps({"circle": True}))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["space"] == "circle"
    cfg.write_text(json.dumps({"circle": False}))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["space"] == "line"
    cfg.write_text(json.dumps({"circle": "false"}))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
