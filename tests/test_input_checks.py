"""Tolerances, accuracies and windows that cannot be used are rejected with
ValueError (CLI exit 2), never silently answered or crashed on: a NaN
compares false with everything, so every check is written to fail on it."""

import math
from fractions import Fraction

import pytest

from circledyn import (Affine, CfExpansion, CircleZnAction, CochainTable,
                       Compose, ConjugacyWitness, Identity, PiecewiseMonotone,
                       Translate, UnitCellHat, ZnAction,
                       approximate_poincare_conjugacy,
                       build_circle_action, build_line_action, coboundary,
                       conjugacy_verdict, evaluate, fixed_points, inverse,
                       orbit, parse_quad_irrational, power, project,
                       rational_class_table, rational_screen, rotation,
                       sine_lift, transitivity_probe, wandering_probe,
                       word_ball)
from circledyn.cli import action_to_bundle, main
from circledyn.errors import DomainError, PrecisionError
from circledyn.groups import check_word_budget

ALPHA = parse_quad_irrational("sqrt(2)-1")
LINE = build_line_action(ALPHA, 2)
CIRCLE = build_circle_action(ALPHA, 2, 2, (1, 0))
#: an int past the float range, and one past the 4,300 digits that repr
#: and str convert
BIG, HUGE = 10**400, 10**5000


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
def test_wandering_probe_rejects_unusable_tol(tol):
    action = build_line_action(ALPHA, 2)
    # with tol=nan every word passed as the identity on the interval, so
    # this violated interval was reported SUPPORTS
    assert wandering_probe(action, (0.2, 0.4), 3).verdict.value == "REFUTES"
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        wandering_probe(action, (0.2, 0.4), 3, tol=tol)


def test_wandering_probe_accepts_zero_tol():
    action = build_line_action(ALPHA, 2)
    assert wandering_probe(action, (0.2, 0.4), 3, tol=0.0).verdict.value \
        == "REFUTES"


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_fixed_points_rejects_unusable_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        fixed_points(project(sine_lift(0.0, 0.1)), tol=tol)


@pytest.mark.parametrize("h", [Translate(1), inverse(sine_lift(0.3, 0.1))],
                         ids=["closed form", "bisection"])
@pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-12])
def test_evaluate_rejects_unusable_eps(h, eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        evaluate(h, 0.5, eps)


def test_transitivity_probe_rejects_nan_eps():
    action = build_line_action(ALPHA, 2)
    with pytest.raises(ValueError, match="eps must be positive"):
        transitivity_probe(action, 0.5, math.nan, 3)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_quad_irrational_value_rejects_nan_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        ALPHA.value(eps)


@pytest.mark.parametrize("build, message", [
    (lambda: Translate(math.nan), "translate amount must be finite"),
    (lambda: Translate(-math.inf), "translate amount must be finite"),
    (lambda: Affine(1, math.inf), "affine scale and offset must be finite"),
    (lambda: Affine(math.inf, 0), "affine scale and offset must be finite"),
    (lambda: Affine(1, math.nan), "affine scale and offset must be finite"),
    (lambda: PiecewiseMonotone([-math.inf, 0.0], [0.0, 1.0]),
     "breakpoints must be finite"),
    (lambda: PiecewiseMonotone([0.0, 1.0], [0.0, math.inf]),
     "breakpoints must be finite"),
    # a closed form that overflows raises instead of building an infinite node
    (lambda: power(Translate(1e308), 10), "translate amount must be finite"),
])
def test_nodes_reject_non_finite_parameters(build, message):
    # evaluate(Translate(nan), 0.0) returned nan, and a NaN generator made
    # the wandering probe answer SUPPORTS
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("q_max", [0, -1])
def test_rational_screen_rejects_q_max_below_1(q_max):
    # the bound reaching 0 returned (0, 1) whatever q_max was
    assert rational_screen(0.0001, 0.01, 1) == (0, 1)
    with pytest.raises(ValueError, match="q_max must be at least 1"):
        rational_screen(0.0001, 0.01, q_max)
    # a NaN value was answered (1, 2), and a negative bound None
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="value must be finite"):
            rational_screen(value, 0.1)
    for bound in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            rational_screen(0.3, bound)


#: wandering_probe(LINE, (A_PAST, A_PAST + 0.2), 1.5) answered REFUTES with
#: the word (-1, 2), outside the radius, and coverage 1.0
A_PAST = -1.4695858455634698


@pytest.mark.parametrize("radius", [1.5, 2.0])
@pytest.mark.parametrize("call", [
    lambda r: orbit(LINE, 0.5, r),
    lambda r: transitivity_probe(LINE, 0.5, 0.1, r),
    lambda r: wandering_probe(LINE, (A_PAST, A_PAST + 0.2), r),
    lambda r: word_ball(2, r),
    lambda r: check_word_budget(2, r),
], ids=["orbit", "transitivity", "wandering", "word ball", "budget"])
def test_word_radius_must_be_an_integer(call, radius):
    with pytest.raises(TypeError, match="'float' object cannot be "
                                        "interpreted as an integer"):
        call(radius)


def test_cli_rotnum_rejects_q_max_0(capsys):
    assert main(["rotnum", "--lift", "translate:0.0001", "--N", "100",
                 "--q-max", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "q_max must be at least 1" in out.err


@pytest.fixture
def g2(tmp_path, capsys):
    path = tmp_path / "g2.json"
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("argv,message", [
    (["probe-wandering", "--interval", "0.2,0.4", "--radius", "3",
      "--tol", "nan"], "tol must be nonnegative"),
    (["probe-transitive", "--eps", "nan", "--radius", "3"],
     "eps must be positive"),
    (["orbit", "--x0", "0.5", "--radius", "0", "--format", "svg",
      "--window", "0.5,0.5"], "a < b"),
    (["orbit", "--format", "svg", "--window", "0.9,0.1"], "a < b"),
    (["orbit", "--format", "svg", "--window", "0.3"], "two finite numbers"),
    (["orbit", "--format", "svg", "--window", "0,inf"], "two finite numbers"),
    (["probe-transitive", "--eps", "0.1", "--window", "nan,1"],
     "two finite numbers"),
    (["probe-wandering", "--interval", "0.2,0.4,0.6"], "two finite numbers"),
    (["probe-wandering", "--interval", "0.2,0.4", "--radius", "3",
      "--tol", "inf"], "tol must be nonnegative"),
    (["probe-transitive", "--eps", "inf", "--radius", "3"],
     "eps must be positive"),
])
def test_cli_rejects_unusable_values(g2, capsys, argv, message):
    assert main(argv[:1] + ["--group", g2] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_cli_rejects_a_circle_window_outside_the_unit(tmp_path, capsys):
    path = str(tmp_path / "c22.json")
    assert main(["build-group", "--alpha", "sqrt(2)-1", "--n", "2",
                 "--circle", "--k", "2", "--g", "1,0", "--output", path]) == 0
    capsys.readouterr()
    argv = ["probe-transitive", "--group", path, "--eps", "0.1",
            "--radius", "4", "--x0", "0.41"]
    assert main(argv + ["--window", "0.5,1.5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "window (0.5, 1.5) of a circle action" in out.err
    # the unit window, the default, is still probed
    assert main(argv + ["--window", "0,1"]) == 0


def test_cli_fixed_points_rejects_nan_tol(capsys):
    assert main(["fixed-points", "--lift", "sine:0.0,0.1",
                 "--tol", "nan"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["0.5", "-3.25", "1e17"])
def test_svg_of_a_single_point_orbit(g2, capsys, x0):
    assert main(["orbit", "--group", g2, "--x0", x0, "--radius", "0",
                 "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    # the one point is drawn in the middle of a range of nonzero width
    assert svg.count("<circle") == 1
    assert '<circle cx="410.000"' in svg


@pytest.mark.parametrize("call", [
    lambda: evaluate(Translate(1), BIG),
    lambda: evaluate(Translate(1), Fraction(BIG, 3)),
    lambda: evaluate(Translate(1), -HUGE),
    lambda: Translate(1)(BIG),
    lambda: orbit(LINE, BIG, 1),
], ids=["int", "fraction", "huge int", "call", "orbit"])
def test_points_past_the_float_range_are_domain_errors(call):
    # these ended in a bare OverflowError
    with pytest.raises(DomainError,
                       match="^evaluation point beyond the float range$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: transitivity_probe(LINE, 0.5, 0.1, 1, (0, BIG)), "window"),
    (lambda: transitivity_probe(LINE, 0.5, 0.1, 1, (-HUGE, 0)), "window"),
    (lambda: wandering_probe(LINE, (0, BIG), 1), "interval"),
    (lambda: wandering_probe(LINE, (Fraction(-HUGE, 7), 0), 1), "interval"),
], ids=["window", "huge window", "interval", "huge interval"])
def test_probe_ends_past_the_float_range_are_refused(call, name):
    with pytest.raises(ValueError, match=f"^{name} end beyond the float range$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: Affine(0, 1), ValueError, "affine scale must be positive"),
    (lambda: Affine(-2.0, 0), ValueError, "affine scale must be positive"),
    (lambda: PiecewiseMonotone([0.0], [0.0]), ValueError,
     "need at least two breakpoints"),
    (lambda: PiecewiseMonotone([0.0, 1.0], [0.0, 1.0], "quadratic"),
     ValueError, "unknown interpolation 'quadratic'"),
    (lambda: PiecewiseMonotone([0.0, 1.0], [0.0, 1.0], "cubic", "constant"),
     ValueError, "unknown extension 'constant'"),
    (lambda: Compose(Translate(1)), ValueError,
     "compose needs at least two members"),
    (lambda: evaluate(UnitCellHat(Translate(0.3)), 5e-16, 1e-14),
     PrecisionError, "in the chart guard band; cannot certify accuracy"),
    (lambda: build_circle_action(ALPHA, 2, 0, (1, 0)), ValueError,
     "k must be at least 1"),
    (lambda: build_circle_action(ALPHA, 2, 2, (1,)), ValueError,
     "g_word must have length 2"),
    (lambda: conjugacy_verdict(CIRCLE, CIRCLE,
                               ConjugacyWitness(Identity(), (0,))),
     ValueError, "h_word must have length 2"),
    (lambda: transitivity_probe(LINE, 0.5, 0.1, 1, (1.0, 1.0)), ValueError,
     "window must be a nonempty interval"),
    # circle orbit points are angles in [0, 1), so half of this window
    # could never be hit: coverage 0.5 at any radius
    (lambda: transitivity_probe(CIRCLE, 0.41, 0.1, 4, (0.5, 1.5)),
     ValueError, r"window \(0.5, 1.5\) of a circle action must lie inside"),
    (lambda: transitivity_probe(CIRCLE, 0.41, 0.1, 4, (-0.25, 0.75)),
     ValueError, r"window \(-0.25, 0.75\) of a circle action"),
    (lambda: wandering_probe(LINE, (0.4, 0.2), 1), ValueError,
     "interval must satisfy a < b"),
    (lambda: CfExpansion([1], []), ValueError, "period must be non-empty"),
    (lambda: CfExpansion([1, 0], [2]), ValueError,
     "all terms except the first must be >= 1"),
    (lambda: parse_quad_irrational("sqrt(2) $ 1"), ValueError,
     "unexpected character '\\$'"),
    (lambda: parse_quad_irrational("(sqrt(2) + 1"), ValueError,
     "expected '\\)', got None"),
    (lambda: parse_quad_irrational("(" * 2000 + "sqrt(2)" + ")" * 2000),
     ValueError, "nests parentheses too deeply"),
    (lambda: parse_quad_irrational("sqrt(2) 1"), ValueError,
     "trailing input at token 1"),
    (lambda: coboundary(CochainTable(1, "inhomogeneous", {(0,): 1})),
     ValueError, "coboundary needs a homogeneous table"),
    # 59 elements have 59**3 = 205,379 triples
    (lambda: coboundary(CochainTable(1, "homogeneous",
                                     {(i, i + 1): 0 for i in range(58)})),
     ValueError, "coboundary tabulation would exceed the budget"),
    (lambda: rational_class_table(0, [0]), ValueError,
     "k must be at least 1"),
    (lambda: approximate_poincare_conjugacy(rotation(0.3), 9), ValueError,
     "N must be at least 10"),
    # saved as a line bundle, it came back a line action, whose orbit of
    # 0.5 under the quarter translation kept 1.0 beside 0.0
    (lambda: action_to_bundle(ZnAction(n=1, generators=(Translate(0.25),),
                                       space="circle")),
     ValueError, "only the circle construction, with its exact alpha"),
    # saved with a null alpha, which no bundle is read back with
    (lambda: action_to_bundle(CircleZnAction(
        CIRCLE.n, CIRCLE.k, ZnAction(CIRCLE.n, CIRCLE.base.generators),
        CIRCLE.g_word, CIRCLE.f, CIRCLE.generators, CIRCLE.marked_angles)),
     ValueError, "only the circle construction, with its exact alpha"),
], ids=["affine scale 0", "affine scale < 0", "one breakpoint",
        "interpolation", "extension", "one member", "hat guard band",
        "k 0", "g_word length", "h_word length", "empty window",
        "circle window above", "circle window below",
        "reversed interval", "empty period", "term 0", "character",
        "missing paren", "deep nesting", "trailing input", "inhomogeneous",
        "coboundary budget", "class table k 0", "N below 10",
        "circle bundle", "circle bundle without alpha"])
def test_library_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_conjugacy_verdict_without_exact_irrationals_is_undecided():
    bare = CircleZnAction(CIRCLE.n, CIRCLE.k,
                          ZnAction(CIRCLE.n, CIRCLE.base.generators),
                          CIRCLE.g_word, CIRCLE.f, CIRCLE.generators,
                          CIRCLE.marked_angles)
    for pair in ((CIRCLE, bare), (bare, CIRCLE)):
        report = conjugacy_verdict(*pair)
        assert report.verdict.value == "UNDECIDED_NEEDS_WITNESS"
        assert report.reason == "actions lack exact irrational data"
