"""rotation: rotation numbers, the Poincare conjugacy, fixed points and
GL(2,Z) equivalence.

Each rotation-number op evaluates one shallow tree 10^3 to 10^5 times, so
expression-leaf evaluation (the periodic monotone cubic, and bisection for
the inverse sine map) does nearly all the work, and the `circle` and
`groups` layers almost none.

A round is eleven ops on one parameter set, drawn fresh for the round from
the seeded stream (outside the timed ops), so no op repeats an earlier
input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles
from common import ALPHAS, Op, random_unimodular
from oracles import cdist, expect

LIMIT_MS = 2000.0
TRACE_ROUNDS = 1


@dataclass
class Entry:
    t: float
    amp: float
    sine: object            # project(sine_lift(t, amp))
    conj: object            # c o sine o c^-1
    inverse_sine: object
    alpha: object           # QuadIrrational
    rigid: object
    conj_rigid: object      # c o R_alpha o c^-1
    c: object
    fixed_map: object       # project(sine_lift(0, amp'))
    mobius_image: object
    other_field: object
    rho: dict               # analytic estimates by N


@dataclass
class State:
    cd: object
    rng: random.Random
    alphas: list


def random_circle_pl(cd, rng: random.Random, knots: int = 8,
                     gap: float = 0.04):
    """A seeded piecewise-linear circle homeomorphism fixing 0."""
    while True:
        xs = [0.0] + sorted(rng.random() for _ in range(knots - 1))
        ys = [0.0] + sorted(rng.random() for _ in range(knots - 1))
        if all(b - a > gap for pts in (xs, ys)
               for a, b in zip(pts, pts[1:] + [1.0])):
            return cd.PiecewiseMonotone(xs, ys, "linear", "periodic")


def distortion(c) -> float:
    """Largest over smallest slope of a piecewise-linear circle map."""
    xs, ys = list(c.xs) + [c.xs[0] + 1.0], list(c.ys) + [c.ys[0] + 1.0]
    slopes = [(y1 - y0) / (x1 - x0)
              for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    return max(slopes) / min(slopes)


def _entry(cd, rng: random.Random, alphas: list) -> Entry:
    t = rng.uniform(0.05, 0.95)
    amp = rng.uniform(0.03, 0.12)
    lift = cd.sine_lift(t, amp)
    c = random_circle_pl(cd, rng)
    i = rng.randrange(len(alphas))
    alpha = alphas[i]
    a = alpha.value(1e-18)
    return Entry(
        t=t, amp=amp, sine=cd.project(lift),
        conj=cd.project(cd.compose_all([c, lift, cd.inverse(c)])),
        inverse_sine=cd.project(cd.inverse(lift)),
        alpha=alpha, rigid=cd.rotation(a),
        conj_rigid=cd.project(cd.compose_all([c, cd.Translate(a),
                                              cd.inverse(c)])),
        c=c, fixed_map=cd.project(cd.sine_lift(0.0, rng.uniform(0.03, 0.12))),
        mobius_image=cd.mobius_apply(
            cd.Gl2zMatrix(*random_unimodular(rng)), alpha),
        other_field=alphas[(i + 1) % len(alphas)], rho={})


def setup(cd, env) -> State:
    return State(cd, random.Random(env.seed),
                 [cd.parse_quad_irrational(s) for s in ALPHAS])


def _rho(e: Entry, n: int) -> float:
    if n not in e.rho:
        e.rho[n] = oracles.rho_sine(e.t, e.amp, n)
    return e.rho[n]


def ops(state: State, r: int) -> list:
    cd = state.cd
    e = _entry(cd, state.rng, state.alphas)
    alpha = oracles.alpha_float(e.alpha)

    def rotation(label, f, n, target, tol):
        def check(est):
            expect(est.error_bound == 1.0 / n, f"error bound {est.error_bound}")
            want = target()
            expect(cdist(est.value, want) <= tol,
                   f"rotation number {est.value!r}, expected {want!r} +- {tol}")
        return Op(label, lambda: cd.rotation_number(f, n), check)

    def check_conjugacy(result):
        h, defect = result
        # the order-matching conjugacy is off by O(1/N), times how much c
        # distorts lengths
        tol = 20.0 * distortion(e.c) / 10**4
        expect(defect <= tol, f"conjugacy defect {defect} > {tol}")
        # c^-1 conjugates c R c^-1 to R, so h o c differs from the identity
        # by a constant modulo 1
        shifts = [h(e.c(j / 101)) - j / 101 for j in range(101)]
        spread = max(cdist(s, shifts[0]) for s in shifts)
        expect(spread <= tol, f"h o c - id varies by {spread} > {tol}")

    def check_fixed(points):
        expect(points == [0.0, 0.5], f"fixed points {points}")

    def check_equivalent(result):
        equivalent, w = result
        expect(equivalent and w is not None, "Moebius image not recognised")
        expect(cd.mobius_apply(w, e.alpha) == e.mobius_image,
               f"witness {w} does not map x to y")

    def check_refused(result):
        expect(result == (False, None), f"different fields gave {result}")

    return [
        rotation("rotation_number.sine.1e4", e.sine, 10**4,
                 lambda: _rho(e, 10**4), 2e-4),
        rotation("rotation_number.sine.1e5", e.sine, 10**5,
                 lambda: _rho(e, 10**5), 2e-5),
        rotation("rotation_number.conj.1e4", e.conj, 10**4,
                 lambda: _rho(e, 10**4), 2e-4),
        rotation("rotation_number.conj.1e5", e.conj, 10**5,
                 lambda: _rho(e, 10**5), 2e-5),
        rotation("rotation_number.rigid.1e4", e.rigid, 10**4,
                 lambda: alpha, 1e-12),
        rotation("rotation_number.rigid.1e5", e.rigid, 10**5,
                 lambda: alpha, 1e-12),
        rotation("rotation_number.inverse_sine.1e3", e.inverse_sine, 10**3,
                 lambda: -_rho(e, 10**4), 2e-3),
        Op("approximate_poincare_conjugacy.1e4",
           lambda: cd.approximate_poincare_conjugacy(e.conj_rigid, 10**4),
           check_conjugacy),
        Op("fixed_points", lambda: cd.fixed_points(e.fixed_map), check_fixed),
        Op("gl2z_equivalent.mobius",
           lambda: cd.gl2z_equivalent(e.alpha, e.mobius_image),
           check_equivalent),
        Op("gl2z_equivalent.other_field",
           lambda: cd.gl2z_equivalent(e.alpha, e.other_field),
           check_refused),
    ]


def layer_metrics(ctx) -> dict:
    def untraced_ms(label):
        (i,) = ctx.op_ids(label)
        return ctx.untraced_ms[i]

    return {
        # per-step cost = rotation_number time / N, in microseconds
        "expr.us_per_step.translate":
            untraced_ms("rotation_number.rigid.1e5") * 1e3 / 1e5,
        "expr.us_per_step.sine_lift":
            untraced_ms("rotation_number.sine.1e5") * 1e3 / 1e5,
        "expr.us_per_step.inverse_sine":
            untraced_ms("rotation_number.inverse_sine.1e3") * 1e3 / 1e3,
        "rotnum.rotation_number.ms.sine_1e4":
            untraced_ms("rotation_number.sine.1e4"),
        "rotnum.rotation_number.ms.rigid_1e4":
            untraced_ms("rotation_number.rigid.1e4"),
    }
