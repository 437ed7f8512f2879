"""transitivity_probe keeps only the bins its orbit hits, so a tiny eps costs
no memory, and a window of more bins than a float can count is rejected;
conjugacy_verdict rejects a NaN or negative tol and never witnesses a
conjugacy from a non-finite residual.  Unusable values are ValueError,
CLI exit code 2."""

import json
import math
import random

import pytest

from circledyn import (Affine, ConjugacyWitness, Identity, Verdict,
                       build_circle_action, build_line_action,
                       conjugacy_verdict, expr_to_jsonable, orbit,
                       parse_quad_irrational, transitivity_probe)
from circledyn.cli import main

ALPHA = parse_quad_irrational("sqrt(2)-1")


def _listed_coverage(points, eps, window):
    """The former coverage: one flag per eps-bin of the window."""
    a, b = window
    bins = max(1, math.ceil((b - a) / eps))
    hit = [False] * bins
    for y in points:
        if a <= y < b:
            hit[min(int((y - a) / eps), bins - 1)] = True
    return sum(hit) / bins


@pytest.mark.parametrize("n,radius,eps,window", [
    (2, 50, 0.02, (0.0, 1.0)), (2, 6, 0.013, (-0.7, 1.3)),
    (3, 4, 0.05, (0.2, 0.8)), (4, 3, 0.1, (0.2, 0.8)),
    (3, 3, 1e-4, (0.0, 0.9))])
def test_coverage_is_unchanged(n, radius, eps, window):
    action = build_line_action(ALPHA, n)
    rng = random.Random(f"bins {n} {radius}")
    for x0 in [rng.uniform(-1.0, 2.0) for _ in range(3)] + [0.0, 1.0]:
        report = transitivity_probe(action, x0, eps, radius, window)
        points = orbit(action, x0, radius).points
        assert report.coverage == _listed_coverage(points, eps, window)


@pytest.fixture
def g2(tmp_path, capsys):
    path = tmp_path / "g2.json"
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("eps", ["1e-300", "1e-9"])
def test_cli_tiny_eps_counts_only_the_hit_bins(g2, capsys, eps):
    # 1e-300 ended in an OverflowError traceback (exit 1); 1e-9 asked for
    # a list of 10^9 bins
    assert main(["probe-transitive", "--group", g2, "--eps", eps,
                 "--window", "0,1", "--radius", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "INCONCLUSIVE"
    # at most one orbit point in each hit bin of width eps
    hit = round(doc["coverage"] * math.ceil(1.0 / float(eps)))
    assert 0 < hit <= doc["parameters"]["orbit_size"]


def test_cli_rejects_a_window_of_uncountably_many_bins(g2, capsys):
    assert main(["probe-transitive", "--group", g2, "--eps", "5e-324",
                 "--window", "0,1", "--radius", "5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "too many bins" in out.err


def test_library_rejects_an_infinite_span():
    action = build_line_action(ALPHA, 2)
    with pytest.raises(ValueError, match="too many bins"):
        transitivity_probe(action, 0.5, 1e-10, 3, (-1e308, 1e308))


C22 = build_circle_action(ALPHA, 2, 2, (1, 0))
IDENTITY_WITNESS = ConjugacyWitness(phi=Identity(), h_word=(0, 0))


def test_identity_witness_is_witnessed_at_any_usable_tol():
    for tol in (1e-9, 0.0):
        report = conjugacy_verdict(C22, C22, IDENTITY_WITNESS, tol=tol)
        assert report.verdict is Verdict.CONJUGATE_WITNESSED
        assert report.residual == 0.0


@pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
def test_conjugacy_verdict_rejects_unusable_tol(tol):
    # tol=nan turned the identity witness into a failed one
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        conjugacy_verdict(C22, C22, IDENTITY_WITNESS, tol=tol)


def test_non_finite_residual_is_never_witnessed():
    # both sides overflow to inf on part of the grid, where inf - inf is
    # NaN; the max over the residuals skipped it and reported a witness
    huge = Affine(1e308, -0.9e308)
    witness = ConjugacyWitness(phi=huge, h_word=(0, 0), psi=huge)
    for tol in (1e-9, math.inf):
        report = conjugacy_verdict(C22, C22, witness, tol=tol)
        assert report.verdict is Verdict.UNDECIDED_NEEDS_WITNESS
        assert "non-finite" in report.reason


@pytest.fixture
def c22(tmp_path, capsys):
    path = tmp_path / "c22.json"
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                 "--circle", "--k", "2", "--g", "1,0",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def _witness_file(tmp_path, phi):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"phi": expr_to_jsonable(phi), "h_word": [0, 0],
                                "psi": expr_to_jsonable(phi)}))
    return str(path)


@pytest.mark.parametrize("tol,code", [("1e-9", 0), ("0", 0), ("nan", 2),
                                      ("-1", 2)])
def test_cli_conjugacy_verdict_tol(c22, tmp_path, capsys, tol, code):
    witness = _witness_file(tmp_path, Identity())
    assert main(["conjugacy-verdict", "--a", c22, "--b", c22,
                 "--witness", witness, "--tol", tol]) == code
    out = capsys.readouterr()
    if code:
        assert out.out == ""
        assert "tol must be nonnegative" in out.err
    else:
        assert json.loads(out.out)["verdict"] == "CONJUGATE_WITNESSED"


def test_cli_non_finite_residual(c22, tmp_path, capsys):
    witness = _witness_file(tmp_path, Affine(1e308, -0.9e308))
    assert main(["conjugacy-verdict", "--a", c22, "--b", c22,
                 "--witness", witness]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"verdict": "UNDECIDED_NEEDS_WITNESS",
                   "reason": "supplied witness gives a non-finite residual"}
