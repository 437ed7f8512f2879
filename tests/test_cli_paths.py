"""CLI paths the other tests leave out: the default JSON orbit, the circle
SVG window, five validation errors, the mode of --output files, and a
fixed-point bisection that runs down to adjacent floats."""

import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import circledyn
from circledyn import Translate, ZnAction, cli, orbit
from circledyn.cli import action_from_bundle
from test_cli import run

SRC = Path(circledyn.__file__).resolve().parent.parent


@pytest.fixture
def bundles(tmp_path, capsys):
    g2, c22 = tmp_path / "g2.json", tmp_path / "c22.json"
    assert run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
               "--output", str(g2))[0] == 0
    assert run(capsys, "build-group", "--alpha", "sqrt(2)-1", "--n", "2",
               "--circle", "--k", "2", "--g", "1,0", "--output", str(c22))[0] == 0
    return g2, c22


def test_orbit_prints_json_by_default(bundles, capsys):
    g2, _ = bundles
    code, out, _ = run(capsys, "orbit", "--group", str(g2), "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["base_point", "radius", "points"]
    action = action_from_bundle(json.loads(g2.read_text()))
    assert doc == {"base_point": 0.0, "radius": 1,
                   "points": list(orbit(action, 0.0, 1).points)}


def test_circle_orbit_svg_spans_the_unit_interval(bundles, capsys):
    _, c22 = bundles
    code, out, _ = run(capsys, "orbit", "--group", str(c22), "--format", "svg")
    assert code == 0
    assert '<text x="40" y="144" font-size="12">0</text>' in out
    assert '<text x="720" y="144" font-size="12">1</text>' in out


def test_euler_cocycle_of_a_line_bundle_exits_2(bundles, capsys):
    g2, _ = bundles
    code, out, err = run(capsys, "euler-cocycle", "--action", str(g2))
    assert (code, out) == (2, "")
    assert "the Euler cocycle needs a circle action bundle" in err


def test_euler_cocycle_of_a_translation_circle_exits_2(bundles, capsys,
                                                       monkeypatch):
    # a circle action that is not the construction has no word_rotation
    _, c22 = bundles
    translations = ZnAction(n=1, generators=(Translate(0.25),), space="circle")
    monkeypatch.setattr(cli, "action_from_bundle", lambda doc: translations)
    code, out, err = run(capsys, "euler-cocycle", "--action", str(c22))
    assert (code, out) == (2, "")
    assert "the Euler cocycle needs a circle action bundle" in err



@pytest.mark.parametrize("line_first", [True, False])
def test_conjugacy_verdict_of_a_line_bundle_exits_2(bundles, capsys,
                                                    line_first):
    g2, c22 = bundles
    a, b = (g2, c22) if line_first else (c22, g2)
    code, out, err = run(capsys, "conjugacy-verdict", "--a", str(a),
                         "--b", str(b))
    assert (code, out) == (2, "")
    assert err == ("circledyn: the conjugacy verdict needs two circle "
                   "actions\n")

@pytest.mark.parametrize("argv, message", [
    (["build-group", "--alpha", "sqrt(2)-1", "--n", "2", "--circle"],
     "--circle needs --g"),
    (["rotnum", "--lift", "translate:0.3", "--N", "0"],
     "N must be at least 1"),
    (["rotnum", "--lift", "sine:0.3"], "circledyn: bad map spec 'sine:0.3'\n"),
    (["rotnum", "--lift", "affine:1,2,3"],
     "circledyn: bad map spec 'affine:1,2,3'\n"),
])
def test_validation_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_output_file_gets_the_redirect_mode(tmp_path, capsys):
    target = tmp_path / "r.json"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "rotnum", "--lift", "translate:0.3",
                         "--N", "100", "--output", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert json.loads(target.read_text())["iterations"] == 100
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_output_onto_a_directory_exits_2_and_leaves_nothing(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run(capsys, "rotnum", "--lift", "translate:0.3",
                         "--N", "100", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("circledyn: ")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


def _python(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, timeout=60)


def test_fixed_points_bisection_stops_at_adjacent_floats():
    done = _python(["-m", "circledyn", "fixed-points", "--lift",
                    "sine:0.06715302078397395,0.12731068271620213",
                    "--tol", "1e-17"])
    assert done.returncode == 0, done.stderr
    angles = json.loads(done.stdout)["fixed_angles"]
    assert angles == pytest.approx([0.58843032204377077, 0.91156971772463424],
                                   abs=1e-12)


def test_fixed_points_at_tiny_tol_end_for_seeded_maps():
    rng = random.Random(1)
    maps = [(rng.uniform(-0.1, 0.1), rng.uniform(0.11, 0.15)) for _ in range(40)]
    code = ("from circledyn import project, sine_lift\n"
            "from circledyn.probes import fixed_points\n"
            f"for t, a in {maps!r}:\n"
            "    fixed_points(project(sine_lift(t, a)), 1e-300)\n"
            "print('done')\n")
    done = _python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "done\n"
