"""Evaluation kernels against reference copies of the code they replaced.

The per-segment Hermite table of `PiecewiseMonotone`, direct child calls
inside expression nodes, and the single orbit pass of
`approximate_poincare_conjugacy` must return the very same floats (`==`,
not approximately) as the straightforward versions kept here as oracles,
and every check that `evaluate` made on the way must still fire.
"""

import bisect
import json
import math
import random
import warnings

import pytest

from circledyn import (Affine, Compose, PiecewiseMonotone, Translate,
                       UnitCellHat, approximate_poincare_conjugacy, cli,
                       compose_all, evaluate, expr_from_jsonable,
                       expr_to_jsonable, inverse, project, rotation_number,
                       sine_lift)
from circledyn.circle import circular_distance, frac
from circledyn.errors import DomainError, RationalRotationError
from circledyn.expr import Inverse
from circledyn.rotnum import TIE_RESOLUTION, rational_screen


# -- reference evaluation of a PiecewiseMonotone table ------------------------

def _ref_hermite(y0, y1, d0, d1, h, s):
    s2 = s * s
    s3 = s2 * s
    return (y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
            + h * d0 * (s3 - 2.0 * s2 + s)
            + y1 * (-2.0 * s3 + 3.0 * s2)
            + h * d1 * (s3 - s2))


def _ref_segment_value(pm, tangents, i, x):
    xs, ys = pm.xs, pm.ys
    if i == len(xs) - 1:
        x1, y1 = xs[0] + 1.0, ys[0] + 1.0
        d1 = tangents[0] if tangents else None
    else:
        x1, y1 = xs[i + 1], ys[i + 1]
        d1 = tangents[i + 1] if tangents else None
    x0, y0 = xs[i], ys[i]
    if pm.interpolation == "linear":
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    h = x1 - x0
    return _ref_hermite(y0, y1, tangents[i], d1, h, (x - x0) / h)


def _ref_eval(pm, x):
    """The table evaluation that recomputed each segment on every call."""
    tangents = pm._compute_tangents() if pm.interpolation == "cubic" else None
    xs, ys = pm.xs, pm.ys
    if pm.extension == "periodic":
        m = math.floor(x - xs[0])
        t = x - m
        if t < xs[0]:
            m -= 1
            t = x - m
        elif t >= xs[0] + 1.0:
            m += 1
            t = x - m
        if t >= xs[-1]:
            return _ref_segment_value(pm, tangents, len(xs) - 1, t) + m
        i = max(0, bisect.bisect_right(xs, t) - 1)
        if t == xs[i]:
            return ys[i] + m
        return _ref_segment_value(pm, tangents, i, t) + m
    if x <= xs[0]:
        return ys[0] + (x - xs[0]) * pm._lo_slope
    if x >= xs[-1]:
        return ys[-1] + (x - xs[-1]) * pm._hi_slope
    i = bisect.bisect_right(xs, x) - 1
    if x == xs[i]:
        return ys[i]
    return _ref_segment_value(pm, tangents, i, x)


def _tables():
    rng = random.Random(4)
    xs = sorted(rng.uniform(0.0, 0.9) for _ in range(9))
    ys = sorted(rng.uniform(0.05, 0.95) for _ in range(9))
    line_xs = sorted(rng.uniform(-3.0, 3.0) for _ in range(7))
    line_ys = sorted(rng.uniform(-2.0, 5.0) for _ in range(7))
    out = [sine_lift(0.3, 0.1, knots=64)]
    for interp in ("cubic", "linear"):
        out.append(PiecewiseMonotone(xs, ys, interp, "periodic"))
        out.append(PiecewiseMonotone(line_xs, line_ys, interp, "linear"))
        out.append(PiecewiseMonotone(line_xs[:2], line_ys[:2], interp, "linear"))
    return out


def _probe_points(pm, rng):
    xs = list(pm.xs)
    wrap = [xs[-1], 0.5 * (xs[-1] + xs[0] + 1.0), xs[0] + 1.0 - 1e-15]
    pts = xs + wrap + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    pts += [rng.uniform(xs[0] - 2.0, xs[-1] + 2.0) for _ in range(300)]
    pts += [math.nextafter(x, math.inf) for x in xs]
    pts += [math.nextafter(x, -math.inf) for x in xs]
    return [p + k for p in pts for k in (0, 1, -1, 7, -13)]


@pytest.mark.parametrize("index", range(7))
def test_piecewise_tables_match_reference(index):
    pm = _tables()[index]
    rng = random.Random(index)
    for x in _probe_points(pm, rng):
        assert evaluate(pm, x) == _ref_eval(pm, x), (pm.interpolation,
                                                     pm.extension, x)


def test_json_round_trip_evaluates_identically():
    lift = sine_lift(0.21, 0.07)
    c = PiecewiseMonotone([0.0, 0.3, 0.55, 0.8], [0.0, 0.2, 0.6, 0.7],
                          "linear", "periodic")
    trees = [lift, compose_all([c, lift, inverse(c)]), inverse(lift),
             UnitCellHat(lift), Compose(Translate(0.25), Inverse(lift))]
    rng = random.Random(11)
    pts = [rng.uniform(-3.0, 3.0) for _ in range(200)]
    for h in trees:
        back = expr_from_jsonable(json.loads(json.dumps(expr_to_jsonable(h))))
        assert back == h
        for x in pts:
            assert evaluate(back, x, 1e-11) == evaluate(h, x, 1e-11)


# -- reference Poincare conjugacy: rotation number, then a second pass --------

def _ref_reduced_orbit(f, x0, n, step_eps):
    y = frac(x0)
    start = y
    deck = 0
    angles = [y]
    for k in range(n):
        z = evaluate(f.lift, y, step_eps)
        m = math.floor(z)
        y = z - m
        if y >= 1.0:
            y -= 1.0
            m += 1
        deck += m
        if k < n - 1:
            angles.append(y)
    return angles, deck, y, start


def _ref_sorted_unique(values):
    out = []
    for v in sorted(values):
        if out and v - out[-1] < TIE_RESOLUTION:
            continue
        out.append(v)
    return out


def _ref_conjugacy(f, N, x0=0.0):
    q_max = max(1, min(1000, math.isqrt(N) // 2))
    _, deck, y, start = _ref_reduced_orbit(f, x0, N, 1.0 / (10.0 * N * N))
    alpha = frac((deck + (y - start)) / N)
    hit = rational_screen(alpha, 1.0 / N, q_max)
    if hit is not None:
        raise RationalRotationError(hit[0], hit[1])
    angles, _, _, _ = _ref_reduced_orbit(f, x0, N,
                                         max(1.0 / (10.0 * N * N), 1e-15))
    targets = []
    t = 0.0
    for _ in range(N):
        targets.append(t)
        t = frac(t + alpha)
    xs = _ref_sorted_unique(angles)
    ts = _ref_sorted_unique(targets)
    conj = PiecewiseMonotone(xs, ts, "linear", "periodic")
    defect = 0.0
    for k in range(len(xs)):
        image = f(xs[k])
        defect = max(defect, circular_distance(
            frac(evaluate(conj, image)), frac(evaluate(conj, xs[k]) + alpha)))
    return conj, defect


def _seeded_closed_form_maps():
    """(f, N, x0): PL conjugates c T_a c^-1 at the base points 0, 0.3, -1.7
    and 0.999, and sine lifts at random base points, N up to 10**4."""
    rng = random.Random(18)
    maps = []
    for x0 in (0.0, 0.3, -1.7, 0.999):
        for _ in range(3):
            xs = [0.0] + sorted(rng.uniform(0.02, 0.98) for _ in range(6))
            ys = [0.0] + sorted(rng.uniform(0.02, 0.98) for _ in range(6))
            c = PiecewiseMonotone(xs, ys, "linear", "periodic")
            a = Translate(rng.uniform(0.05, 0.95))
            maps.append((project(compose_all([c, a, inverse(c)])),
                         rng.choice((200, 2000, 10**4)), x0))
    for _ in range(8):
        f = project(sine_lift(rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.1)))
        maps.append((f, rng.choice((300, 3000, 10**4)), rng.uniform(-3.0, 3.0)))
    return maps


def _outcome(conjugacy, f, N, x0):
    """conjugacy(f, N, x0), or the (p, q) of the RationalRotationError it
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return conjugacy(f, N, x0)
        except RationalRotationError as exc:
            return exc.args


def test_conjugacy_matches_two_pass_reference():
    c = PiecewiseMonotone([0.0, 0.2, 0.5, 0.7], [0.0, 0.3, 0.55, 0.8],
                          "linear", "periodic")
    maps = [(project(compose_all([c, Translate(0.41421356237), inverse(c)])),
             2000, 0.0),
            (project(sine_lift(0.381966, 0.05)), 1000, 0.37),
            (project(inverse(sine_lift(0.618034, 0.04))), 100, -2.25)]
    maps += _seeded_closed_form_maps()
    last_images_off_the_knots = 0
    for f, N, x0 in maps:
        got = _outcome(approximate_poincare_conjugacy, f, N, x0)
        want = _outcome(_ref_conjugacy, f, N, x0)
        if isinstance(want[0], PiecewiseMonotone):
            assert got[0] == want[0]
            assert got[1] == want[1]
            # the last orbit angle's image is read off the orbit, not a knot
            last = _ref_reduced_orbit(f, x0, N, 1.0 / (10.0 * N * N))[2]
            last_images_off_the_knots += last not in want[0].xs
        else:
            assert got == want
    assert last_images_off_the_knots >= 20


# -- the checks evaluate made are all still made -------------------------------

def test_evaluate_rejects_bad_eps_and_points():
    lift = sine_lift(0.3, 0.1)
    for eps in (0.0, -1e-12):
        with pytest.raises(ValueError, match="eps must be positive"):
            evaluate(lift, 0.3, eps)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite evaluation point"):
            evaluate(lift, x)


@pytest.mark.parametrize("h, x", [
    (Compose(UnitCellHat(Translate(0.3)), Translate(1e308)), 1e308),
    (Compose(Translate(1), Affine(1e300, 0)), 1e10),
    # the enclosure path of an approximate composition
    (Compose(Translate(1), Inverse(sine_lift(0.3, 0.1)), Affine(1e300, 0)),
     1e10),
])
def test_intermediate_overflow_raises_domain_error(h, x):
    with pytest.raises(DomainError, match="non-finite evaluation point inf"):
        evaluate(h, x)


def test_derived_eps_that_underflows_is_rejected():
    lift = sine_lift(0.3, 0.1)
    # bisection evaluates the forward map at eps/100, which underflows to 0
    with pytest.raises(ValueError, match="eps must be positive"):
        evaluate(Inverse(lift), 0.3, 1e-322)
    # the share of eps for one approximate member, eps/2, underflows to 0
    with pytest.raises(ValueError, match="eps must be positive"):
        evaluate(Compose(Translate(1), Inverse(lift)), 0.3, 5e-324)


# -- a non-finite base point is a DomainError, in the API and the CLI ---------

@pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
def test_non_finite_base_point(x0):
    f = project(sine_lift(0.3, 0.1))
    with pytest.raises(DomainError, match="non-finite base point"):
        rotation_number(f, 100, x0)
    with pytest.raises(DomainError, match="non-finite base point"):
        approximate_poincare_conjugacy(f, 100, x0)


@pytest.mark.parametrize("x0", ["inf", "-inf", "nan"])
def test_cli_rotnum_non_finite_base_point(capsys, x0):
    code = cli.main(["rotnum", "--lift", "translate:0.3", "--N", "100",
                     f"--x0={x0}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "non-finite base point" in captured.err
