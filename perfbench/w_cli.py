"""cli: the README session, each command a `python -m circledyn.cli`
subprocess, plus a bare interpreter start and a bare `import circledyn`.

This is the only workload that exercises the `cli` layer (argument parsing,
bundle loading, which rebuilds and re-validates circle actions, and
`emit_json`), and the only one that pays process start and package import
on every op, so import-time changes show here and nowhere else.

Every round repeats the same fourteen commands on seeded parameters; the
first output of each command is checked against an oracle and later ones
must be byte-identical to it.  Every op of the workload must succeed, so
the README's `euler-cocycle` call on its c32 bundle, which exits 2 with
PrecisionError in circledyn 0.1.0, is left out; the euler workload's
traced run reports that action's failures.  The traced pass runs the same
commands in-process through `circledyn.cli.main`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import oracles
from common import (Mismatch, Op, Refused, random_unimodular,
                    run_op)
from oracles import cdist, expect

LIMIT_MS = 5000.0
TRACE_ROUNDS = 1
UNTRACED_PASSES = 2
SUBPROCESS_TIMEOUT_S = 60
#: untraced subprocess rounds for the per-subcommand timings
LAYER_ROUNDS = 2

#: fixed, as in the wordball workload: the actions' work depends on alpha
ALPHA = "sqrt(2)-1"
README_C32 = ("(0+1*sqrt(2))/1 - 1", 3, 2, (1, 0, 1))


@dataclass
class State:
    cd: object
    env: object
    child_env: dict
    alpha: object
    line: object
    commands: list                  # (label, argv after the module, rc, check)
    files: dict
    reference: dict = field(default_factory=dict)
    elements: dict = field(default_factory=dict)
    #: largest peak RSS of any child so far, in KiB
    peak_child_kb: int = 0


def _surd_text(x) -> str:
    """A QuadIrrational in the CLI's input grammar."""
    sign = "+" if x.q >= 0 else "-"
    return f"({x.p}{sign}{abs(x.q)}*sqrt({x.d}))/{x.r}"


def _write(path, text: str):
    with open(path, "w") as handle:
        handle.write(text)


def setup(cd, env) -> State:
    importlib.import_module("circledyn.cli")
    rng = random.Random(env.seed)
    d = env.workdir
    alpha = cd.parse_quad_irrational(ALPHA)
    line = cd.build_line_action(alpha, 2)
    c22 = cd.build_circle_action(alpha, 2, 2, (1, 0))
    c32_alpha, n, k, g = README_C32
    c32 = cd.build_circle_action(cd.parse_quad_irrational(c32_alpha), n, k, g)
    files = {name: str(d / f"{name}.json")
             for name in ("g2", "c22", "c32", "witness", "g2_built",
                          "c32_built")}
    bundle = {name: cd.cli.emit_json(cd.cli.action_to_bundle(a))
              for name, a in (("g2", line), ("c22", c22), ("c32", c32))}
    for name, text in bundle.items():
        _write(files[name], text)
    _write(files["witness"], json.dumps(
        {"phi": {"kind": "identity"}, "h_word": [0, 0]}))
    state = State(cd, env, dict(os.environ, PYTHONPATH=str(env.src)), alpha,
                  line, [], files)
    state.commands = _commands(state, rng, bundle)
    return state


def _commands(state: State, rng: random.Random, bundle: dict) -> list:
    cd, f = state.cd, state.files
    alpha_f = oracles.alpha_float(state.alpha)
    t, amp = rng.uniform(0.05, 0.95), rng.uniform(0.03, 0.12)
    fixed_amp = rng.uniform(0.03, 0.12)
    x0 = rng.uniform(0.3, 0.7)
    a = rng.uniform(0.1, 0.6)
    wide = (a, a + 0.2)
    y = cd.mobius_apply(cd.Gl2zMatrix(*random_unimodular(rng)), state.alpha)

    def json_out(check):
        return lambda out: check(json.loads(out))

    def file_equals(name, built):
        def check(out):
            with open(f[built]) as handle:
                expect(handle.read() == bundle[name],
                       f"{built} differs from the expected bundle")
        return check

    def rotnum_translate(doc):
        expect(abs(doc["value"] - 0.3) <= 1e-12, f"value {doc['value']}")
        expect(doc["rational_screen"] == {"p": 3, "q": 10},
               f"screen {doc['rational_screen']}")

    def rotnum_sine(doc):
        want = oracles.rho_sine(t, amp, 10**4)
        expect(cdist(doc["value"], want) <= 2e-4,
               f"value {doc['value']} vs {want}")

    def orbit_csv(out):
        pts = [float(v) for v in out.split()]
        oracles.same_point_set(pts, oracles.orbit_points(
            cd, state.line, alpha_f, x0, 5), False, "orbit csv")

    def orbit_svg(out):
        expect(out.startswith("<svg") and out.rstrip().endswith("</svg>"),
               "not an svg document")
        drawn = out.count("<circle ")
        pts = oracles.orbit_points(cd, state.line, alpha_f, x0, 50)
        tol = oracles.POINT_TOL
        lo = sum(tol <= p <= 1.0 - tol for p in pts)
        hi = sum(-tol <= p <= 1.0 + tol for p in pts)
        expect(lo <= drawn <= hi, f"{drawn} points drawn, expected {lo}..{hi}")

    def transitive(doc):
        expect(doc["verdict"] == "SUPPORTS" and doc["coverage"] == 1.0,
               f"{doc['verdict']} at coverage {doc['coverage']}")
        expect(doc["parameters"]["orbit_size"] == 101 ** 2,
               f"orbit size {doc['parameters']['orbit_size']}")

    def wandering(doc):
        expect(doc["verdict"] == "REFUTES", f"verdict {doc['verdict']}")
        oracles.check_certificate(cd, state.line, alpha_f, wide,
                                  doc["certificate"])

    def fixed(doc):
        expect(doc["fixed_angles"] == [0.0, 0.5],
               f"fixed angles {doc['fixed_angles']}")

    def equivalent(doc):
        w = doc["witness"]
        expect(doc["equivalent"] and w is not None, "not recognised")
        expect(cd.mobius_apply(cd.Gl2zMatrix(*w), state.alpha) == y,
               f"witness {w} does not map x to y")

    def cocycle_table(name):
        def check(doc):
            elements = _elements(state, name)
            expect([tuple(w) for w in doc["elements"]] == list(elements),
                   "element list differs")
            expect(len(doc["values"]) == len(elements) ** 2,
                   f"{len(doc['values'])} table entries")
            for w1, w2, c in doc["values"]:
                want = oracles.cocycle_expected(cd, elements[tuple(w1)],
                                                elements[tuple(w2)])
                expect(c == want, f"c({w1}, {w2}) = {c}, expected {want}")
        return check

    def verdict(doc):
        expect(doc["verdict"] == "CONJUGATE_WITNESSED",
               f"verdict {doc['verdict']}")
        expect(doc["residual"] <= 1e-9, f"residual {doc['residual']}")

    def empty(out):
        expect(out == "", f"unexpected output {out[:80]!r}")

    return [
        ("python_start", ["-c", "pass"], 0, empty),
        ("import", ["-c", "import circledyn"], 0, empty),
        ("build-group.line", ["build-group", "--alpha", _surd_text(state.alpha),
                              "--n", "2", "--output", f["g2_built"]],
         0, file_equals("g2", "g2_built")),
        ("build-group.circle", ["build-group", "--alpha", README_C32[0],
                                "--n", "3", "--circle", "--k", "2",
                                "--g", "1,0,1", "--output", f["c32_built"]],
         0, file_equals("c32", "c32_built")),
        ("rotnum.translate", ["rotnum", "--lift", "translate:0.3",
                              "--N", "100"], 0, json_out(rotnum_translate)),
        ("rotnum.sine", ["rotnum", "--lift", f"sine:{t!r},{amp!r}",
                         "--N", "10000"], 0, json_out(rotnum_sine)),
        ("orbit.csv", ["orbit", "--group", f["g2"], "--x0", repr(x0),
                       "--radius", "5", "--format", "csv"], 0, orbit_csv),
        ("orbit.svg", ["orbit", "--group", f["g2"], "--x0", repr(x0),
                       "--radius", "50", "--format", "svg",
                       "--window", "0,1"], 0, orbit_svg),
        ("probe-transitive", ["probe-transitive", "--group", f["g2"],
                              "--x0", repr(x0), "--eps", "0.02",
                              "--radius", "50", "--window", "0,1"],
         0, json_out(transitive)),
        ("probe-wandering", ["probe-wandering", "--group", f["g2"],
                             "--interval", f"{wide[0]!r},{wide[1]!r}",
                             "--radius", "20"], 3, json_out(wandering)),
        ("fixed-points", ["fixed-points", "--lift", f"sine:0.0,{fixed_amp!r}"],
         0, json_out(fixed)),
        ("check-equiv", ["check-equiv", "--x", _surd_text(state.alpha),
                         "--y", _surd_text(y)], 0, json_out(equivalent)),
        ("euler-cocycle.c22", ["euler-cocycle", "--action", f["c22"],
                               "--ball", "1"], 0,
         json_out(cocycle_table("c22"))),
        ("conjugacy-verdict", ["conjugacy-verdict", "--a", f["c22"],
                               "--b", f["c22"], "--witness", f["witness"]],
         0, json_out(verdict)),
    ]


def _elements(state: State, name: str) -> dict:
    """The radius-1 ball of a bundle's action, built in-process, in the
    CLI's graded order."""
    if name not in state.elements:
        cd = state.cd
        action = cd.cli.action_from_bundle(_load_json(state.files[name]))
        rank = len(action.generators)
        words = sorted(oracles.word_ball(rank, 1),
                       key=lambda v: (max(map(abs, v)), v))
        state.elements[name] = {
            w: cd.CircleHomeo(cd.word_to_homeo(action, w)) for w in words}
    return state.elements[name]


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _checked(state: State, label: str, rc_expected: int, check):
    """Exit code first, then the first output against its oracle and every
    later one against the first, byte for byte."""
    def run_check(result):
        rc, out, err = result
        if rc != rc_expected:
            first = err.strip().splitlines()[-1] if err.strip() else ""
            if rc == 2 and first.startswith("circledyn:"):
                raise Refused(f"exit 2: {first}")
            raise Mismatch(f"exit {rc}, expected {rc_expected}: {first}")
        if label in state.reference:
            expect(out == state.reference[label],
                   "output differs from the first invocation")
            return
        check(out)
        state.reference[label] = out
    return run_check


def ops(state: State, r: int) -> list:
    def spawn(argv):
        return lambda: _spawn(state, argv)

    out = []
    for label, argv, rc, check in state.commands:
        full = argv if argv[0] == "-c" else ["-m", "circledyn.cli"] + argv
        out.append(Op(label, spawn(full), _checked(state, label, rc, check)))
    return out


def _spawn(state: State, argv):
    """Run one child to its end; reap it with wait4 to read its own peak
    RSS.  Output goes to files, so no pipe can fill up while it runs."""
    out_path, err_path = (state.env.workdir / f"child.{name}"
                          for name in ("out", "err"))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable] + argv,
                                cwd=state.env.workdir, env=state.child_env,
                                stdout=out, stderr=err)
        timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    state.peak_child_kb = max(state.peak_child_kb, usage.ru_maxrss)
    with open(out_path) as out, open(err_path) as err:
        return proc.returncode, out.read(), err.read()


def peak_child_rss_kb(state: State) -> int:
    return state.peak_child_kb


def trace_ops(state: State, r: int) -> list:
    """The subcommands of a round, in-process through circledyn.cli.main."""
    def call(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = state.cd.cli.main(list(argv))
            return rc, out.getvalue(), err.getvalue()
        return run

    return [Op(label, call(argv), _checked(state, label, rc, check))
            for label, argv, rc, check in state.commands if argv[0] != "-c"]


def layer_metrics(ctx) -> dict:
    state = ctx.state
    walls: dict[str, list] = {}
    for r in range(LAYER_ROUNDS):
        for op in ops(state, r):
            walls.setdefault(op.label, []).append(run_op(op, state.cd).wall_ms)
    ms = {label: statistics.median(v) for label, v in walls.items()}
    m = {"cli.python_start_ms": ms.pop("python_start"),
         "cli.import_ms": ms.pop("import")}
    m["cli.import_ms"] -= m["cli.python_start_ms"]
    for label, value in ms.items():
        m[f"cli.{label}.ms"] = value
    for name in ("cli.action_from_bundle", "cli.emit_json"):
        m[f"{name}.s"] = ctx.per_op(ctx.spans.inclusive(name, ctx.ops))
    return m
