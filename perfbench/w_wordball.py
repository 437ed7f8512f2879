"""wordball: orbits and probes over the word balls of the Z^n actions.

Every word of a ball gets its own tree from `word_to_homeo` and `power`,
evaluated once or twice, so tree building and the word-ball enumerator
dominate -- the opposite use of `expr` from the rotation workload.  High
radius at low rank (line n=2, r=50) is bound by the enumerator, low radius
at high rank (line n=4, r=5) by tree building.

A round is sixteen ops: for each of four actions an orbit, a transitivity
probe, a wandering probe on a wide interval (refuted after a few words)
and one on a narrow interval (the whole ball is scanned).  Each round
draws fresh base points and intervals from the seeded stream, outside the
timed ops.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

import oracles
import tracing
from common import Op
from oracles import expect

LIMIT_MS = 2000.0
#: fixed, so that the seed changes the base points and intervals but not
#: the actions, whose ball geometry (and so the work) depends on alpha
ALPHA = "sqrt(2)-1"
TRACE_ROUNDS = 1

#: name, (n, k, g) of a circle action or (n,) of a line action, radius,
#: transitivity eps and window
ACTIONS = (
    ("n2r50", (2,), 50, 0.02, (0.0, 1.0)),
    ("n3r8", (3,), 8, 0.05, (0.2, 0.8)),
    ("n4r5", (4,), 5, 0.1, (0.2, 0.8)),
    ("c22r4", (2, 2, (1, 0)), 4, 0.1, (0.0, 1.0)),
)
WIDE = 0.2
NARROW = 1e-6


@dataclass
class Case:
    name: str
    action: object
    radius: int
    eps: float
    window: tuple
    alpha: float


@dataclass
class State:
    cd: object
    rng: random.Random
    cases: list
    orbit_sizes: dict = field(default_factory=dict)


def setup(cd, env) -> State:
    rng = random.Random(env.seed)
    alpha = cd.parse_quad_irrational(ALPHA)
    cases = []
    for name, spec, radius, eps, window in ACTIONS:
        if len(spec) == 1:
            action = cd.build_line_action(alpha, spec[0])
        else:
            action = cd.build_circle_action(alpha, *spec)
        cases.append(Case(name, action, radius, eps, window,
                          oracles.alpha_float(alpha)))
    return State(cd, rng, cases)


def _case_ops(state: State, case: Case) -> list:
    cd, rng = state.cd, state.rng
    act, r = case.action, case.radius
    a, b = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
    x0, wide, narrow = rng.uniform(0.3, 0.7), (a, a + WIDE), (b, b + NARROW)
    circular = act.space == "circle"
    expected = []

    def points():
        if not expected:
            expected.append(oracles.orbit_points(cd, act, case.alpha, x0, r))
        return expected[0]

    def check_orbit(sample):
        state.orbit_sizes[case.name] = (len(sample.points),
                                        (2 * r + 1) ** len(act.generators))
        oracles.same_point_set(sample.points, points(), circular,
                               f"orbit {case.name}")

    def check_transitivity(report):
        lo, hi = (oracles.coverage(p, case.eps, case.window)
                  for p in _edge_variants(points()))
        cov = report.coverage
        expect(min(lo, hi) <= cov <= max(lo, hi),
               f"coverage {cov} vs {lo}..{hi}")
        expect((report.verdict.value == "SUPPORTS") == (cov == 1.0),
               f"verdict {report.verdict} at coverage {cov}")
        if case.name == "n2r50":
            expect(cov == 1.0, f"n=2 r=50 coverage {cov}")

    def check_wandering(interval):
        def check(report):
            if report.verdict.value == "REFUTES":
                oracles.check_certificate(cd, act, case.alpha, interval,
                                          report.certificate)
                return
            expect(report.verdict.value == "SUPPORTS",
                   f"verdict {report.verdict}")
            word = oracles.wandering_violation(cd, act, case.alpha,
                                               interval, r)
            expect(word is None, f"SUPPORTS, but word {word} violates")
        return check

    return [
        Op(f"orbit.{case.name}", lambda: cd.orbit(act, x0, r), check_orbit),
        Op(f"transitivity_probe.{case.name}",
           lambda: cd.transitivity_probe(act, x0, case.eps, r, case.window),
           check_transitivity),
        Op(f"wandering_probe.wide.{case.name}",
           lambda: cd.wandering_probe(act, wide, r), check_wandering(wide)),
        Op(f"wandering_probe.narrow.{case.name}",
           lambda: cd.wandering_probe(act, narrow, r),
           check_wandering(narrow)),
    ]


def _edge_variants(points):
    """The oracle points nudged down and up by the point tolerance, so a
    point on a bin edge may fall in either bin."""
    tol = oracles.POINT_TOL
    return [p - tol for p in points], [p + tol for p in points]


def ops(state: State, r: int) -> list:
    return [op for case in state.cases for op in _case_ops(state, case)]


def _median_s(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(ctx) -> dict:
    cd, state = ctx.cd, ctx.state
    m = {}
    probe_ids = [i for i, lab in enumerate(ctx.labels)
                 if lab.split(".")[0] in ("orbit", "transitivity_probe",
                                          "wandering_probe")]
    words = ctx.spans.calls("groups.word_to_homeo", probe_ids)
    m["probes.words_per_s"] = words / ctx.untraced_s(probe_ids)

    # the probes' word-ball enumerator; if it is renamed or removed the
    # traced run stops here with an error instead of reporting a share of 0
    enumerate_ball = cd.probes._word_ball
    enum_s = {}
    for case in state.cases:
        rank = len(case.action.generators)
        enum_s[case.name] = _median_s(
            lambda: sum(1 for _ in enumerate_ball(rank, case.radius)))
    full_scan = [i for i, lab in enumerate(ctx.labels)
                 if not lab.startswith("wandering_probe.wide.")]
    m["probes.word_ball.share"] = (
        sum(enum_s[ctx.labels[i].split(".")[-1]] for i in full_scan)
        / ctx.untraced_s(full_scan))
    for name in ("n2r50", "n4r5"):
        ids = ctx.op_ids(f"orbit.{name}")
        m[f"probes.word_ball.share.{name}"] = enum_s[name] / ctx.untraced_s(ids)
        m[f"groups.word_to_homeo.share.{name}"] = (
            ctx.spans.inclusive("groups.word_to_homeo", ids)
            / ctx.spans.inclusive(tracing.OP, ids))
    points = sum(p for p, _ in state.orbit_sizes.values())
    evaluated = sum(w for _, w in state.orbit_sizes.values())
    m["probes.orbit.unique_ratio"] = points / evaluated

    alpha = cd.parse_quad_irrational("sqrt(2)-1")
    for n in (2, 3, 4):
        action = cd.build_line_action(alpha, n)
        m[f"probes.orbit.ms.n{n}r5"] = 1e3 * _median_s(
            lambda: cd.orbit(action, 0.5, 5))
    (i,) = ctx.op_ids("transitivity_probe.n2r50")
    m["probes.transitivity_probe.ms.n2r50"] = ctx.untraced_ms[i]
    return m
