"""CLI flags that only some forms accept: build-group's circle-only --k and
--g, and the affine: map spec of rotnum."""

import json

import pytest

from circledyn.cli import main

LINE = ["build-group", "--alpha", "sqrt(2)-1", "--n", "2"]


@pytest.mark.parametrize("extra, flag", [(["--k", "3", "--g", "1,0"], "--k"),
                                         (["--k", "1"], "--k"),
                                         (["--g", "1,0"], "--g")])
def test_circle_flags_without_circle_exit_2(capsys, tmp_path, extra, flag):
    out = tmp_path / "g2.json"
    assert main(LINE + extra + ["--output", str(out)]) == 2
    assert f"{flag} needs --circle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, flag", [({"k": 3}, "--k"),
                                          ({"g": "1,0"}, "--g")])
def test_circle_flags_from_config_exit_2(capsys, tmp_path, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)] + LINE) == 2
    assert f"{flag} needs --circle" in capsys.readouterr().err


def test_circle_defaults_to_one_marked_point(capsys):
    assert main(LINE + ["--circle", "--g", "1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"] == "circle" and doc["k"] == 1


def test_rotnum_affine_translation(capsys):
    assert main(["rotnum", "--lift", "affine:1,0.25", "--N", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 0.25
    assert doc["rational_screen"] == {"p": 1, "q": 4}


def test_rotnum_affine_non_lift_exits_2(capsys):
    assert main(["rotnum", "--lift", "affine:2,0", "--N", "100"]) == 2
    assert "commutation defect" in capsys.readouterr().err
