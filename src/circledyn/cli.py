"""Command-line interface.

Subcommands: rotnum, build-group, orbit, probe-transitive, probe-wandering,
fixed-points, check-equiv, euler-cocycle, conjugacy-verdict.

Exit codes: 0 success, 2 validation error, 3 certified dynamical refutation
(a wandering probe returning REFUTES), so scripts can branch on probe
outcomes.  Output is deterministic for fixed inputs: floats are printed
with 17 significant digits and files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .circle import project, rotation, sine_lift
from .errors import CircledynError
from .euler import euler_cocycle_table
from .expr import (Affine, HomeoExpr, Identity, Translate,
                   expr_from_jsonable, expr_to_jsonable)
from .groups import (CircleZnAction, ConjugacyWitness, ZnAction,
                     build_circle_action, build_line_action,
                     check_word_budget, conjugacy_verdict, word_ball)
from .probes import (ProbeVerdict, fixed_points, orbit, transitivity_probe,
                     wandering_probe)
from .quadirr import QuadIrrational, gl2z_equivalent, parse_quad_irrational
from .rotnum import rational_screen, rotation_number


# -- deterministic output helpers --------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x!r} in output")
    return format(x, ".17g")


def emit_json(obj, indent: int = 0) -> str:
    """JSON with floats at fixed 17-significant-digit formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {emit_json(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _atomic_write(path: str, text: str):
    """Write text to a fresh file beside path, then rename it over path.
    The file is created with mode 0o666 less the umask, as a shell
    redirect would create it.  An OSError names path, not the temp file,
    whose name differs run to run, and the temp file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory,
                       f".circledyn-{os.getpid()}-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _deliver(text: str, output: str | None):
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _svg_scatter(points, window) -> str:
    width, height = 800, 160
    a, b = window
    rows = ['<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="40" y1="{height - 40}" x2="{width - 20}" '
            f'y2="{height - 40}" stroke="black"/>']
    span = b - a
    for x in points:
        if not a <= x <= b:
            continue
        px = 40 + (x - a) / span * (width - 60)
        rows.append(f'<circle cx="{px:.3f}" cy="{height - 40}" r="2" '
                    'fill="steelblue" fill-opacity="0.6"/>')
    rows.append(f'<text x="40" y="{height - 16}" font-size="12">{_fmt_float(a)}</text>')
    rows.append(f'<text x="{width - 80}" y="{height - 16}" '
                f'font-size="12">{_fmt_float(b)}</text>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


# -- input parsing ------------------------------------------------------------

def parse_map_spec(spec: str) -> HomeoExpr:
    """Lift grammar: identity | translate:a | affine:a,b | sine:t,amp |
    file:path (serialized expression tree)."""
    if spec == "identity":
        return Identity()
    if ":" not in spec:
        raise ValueError(f"bad map spec {spec!r}")
    head, _, rest = spec.partition(":")
    if head == "translate":
        return Translate(float(rest))
    if head == "affine":
        a, b = (float(v) for v in rest.split(","))
        return Affine(a, b)
    if head == "sine":
        t, amp = (float(v) for v in rest.split(","))
        return sine_lift(t, amp)
    if head == "file":
        return expr_from_jsonable(_load_json(rest))
    raise ValueError(f"unknown map spec kind {head!r}")


def _alpha_jsonable(alpha: QuadIrrational | None):
    return alpha.as_jsonable() if alpha is not None else None


def _alpha_from_jsonable(doc) -> QuadIrrational | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ValueError("alpha must be an object {p, q, d, r} or null")
    return QuadIrrational(doc["p"], doc["q"], doc["d"], doc["r"])


def action_to_bundle(action) -> dict:
    if isinstance(action, CircleZnAction):
        return {"space": "circle", "n": action.n, "k": action.k,
                "alpha": _alpha_jsonable(action.alpha),
                "g_word": list(action.g_word),
                "marked_angles": list(action.marked_angles),
                "generators": [expr_to_jsonable(g.lift)
                               for g in action.generators]}
    return {"space": "line", "n": action.n,
            "alpha": _alpha_jsonable(action.alpha),
            "generators": [expr_to_jsonable(g) for g in action.generators]}


def _bundle_int(doc: dict, name: str) -> int:
    """The bundle field doc[name], which must be a JSON integer."""
    value = doc[name]
    if type(value) is not int:
        raise ValueError(f"bundle field {name!r} must be an integer, "
                         f"got {value!r}")
    return value


def action_from_bundle(doc: dict):
    space = doc.get("space", "line")
    alpha = _alpha_from_jsonable(doc.get("alpha"))
    if space == "circle":
        if alpha is None:
            raise ValueError("circle bundles need exact alpha data")
        g_word = doc["g_word"]
        if not (isinstance(g_word, list)
                and all(type(e) is int for e in g_word)):
            raise ValueError(f"bundle field 'g_word' must be a list of "
                             f"integers, got {g_word!r}")
        action = build_circle_action(alpha, _bundle_int(doc, "n"),
                                     _bundle_int(doc, "k"), g_word)
        _check_rebuilt(doc, "generators",
                       [g.lift for g in action.generators], expr_from_jsonable)
        _check_rebuilt(doc, "marked_angles", list(action.marked_angles))
        return action
    if "generators" in doc:
        gens = tuple(expr_from_jsonable(g)
                     for g in _list_field(doc, "generators"))
        return ZnAction(n=_bundle_int(doc, "n"), generators=gens, alpha=alpha)
    if alpha is None:
        raise ValueError("line bundles need either generators or alpha")
    return build_line_action(alpha, _bundle_int(doc, "n"))


def _list_field(doc: dict, name: str, *, ints: bool = False) -> list:
    """The field doc[name], which must be a JSON list, and with ints a list
    of JSON integers."""
    value = doc[name]
    if not isinstance(value, list):
        raise ValueError(f"field {name!r} must be a list, got {value!r}")
    if ints and not all(type(v) is int for v in value):
        raise ValueError(f"field {name!r} must be a list of integers, "
                         f"got {value!r}")
    return value


def _check_rebuilt(doc: dict, name: str, rebuilt: list, load=lambda v: v):
    """Raise ValueError at the first index where the circle bundle's list
    doc[name], if written, differs from the rebuilt action's."""
    if name not in doc:
        return
    written = [load(v) for v in _list_field(doc, name)]
    for i in range(max(len(written), len(rebuilt))):
        if written[i:i + 1] != rebuilt[i:i + 1]:
            raise ValueError(f"circle bundle field {name}[{i}] does not match "
                             "the action rebuilt from (alpha, n, k, g_word)")


class _JsonObject(dict):
    """An object of the JSON document at path, whose missing fields are
    ValueErrors that name the document."""

    __slots__ = ("path",)

    def __init__(self, path: str, fields: dict):
        super().__init__(fields)
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"{self.path}: missing field {key!r}")


def _load_json(path: str) -> dict:
    """The JSON object in the file at path: the one reader of config,
    bundle, witness and file: documents."""
    with open(path) as handle:
        doc = json.load(handle, object_hook=lambda fields:
                        _JsonObject(path, fields))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


# -- subcommand handlers ------------------------------------------------------

def _cmd_rotnum(args) -> int:
    lift = parse_map_spec(args.lift)
    f = project(lift)
    est = rotation_number(f, args.N, args.x0)
    hit = rational_screen(est.value, est.error_bound, args.q_max)
    doc = est.as_jsonable()
    doc["rational_screen"] = None if hit is None else {"p": hit[0], "q": hit[1]}
    _deliver(emit_json(doc), args.output)
    return 0


def _cmd_build_group(args) -> int:
    alpha = parse_quad_irrational(args.alpha)
    if args.circle:
        if args.g is None:
            raise ValueError("--circle needs --g")
        g_word = tuple(int(v) for v in args.g.split(","))
        action = build_circle_action(alpha, args.n,
                                     1 if args.k is None else args.k, g_word)
    elif args.circle is None and (args.k is not None or args.g is not None):
        # a config "circle": false builds the line action on purpose
        raise ValueError(f"--{'k' if args.k is not None else 'g'} needs --circle")
    else:
        action = build_line_action(alpha, args.n)
    _deliver(emit_json(action_to_bundle(action)), args.output)
    return 0


def _cmd_orbit(args) -> int:
    action = action_from_bundle(_load_json(args.group))
    sample = orbit(action, args.x0, args.radius)
    if args.format == "csv":
        text = "\n".join(_fmt_float(p) for p in sample.points) + "\n"
    elif args.format == "svg":
        if args.window:
            window = _parse_window(args.window)
        elif getattr(action, "space", "line") == "circle":
            window = (0.0, 1.0)
        else:
            window = _point_range(sample.points)
        text = _svg_scatter(sample.points, window)
    else:
        text = emit_json({"base_point": sample.base_point,
                          "radius": sample.radius,
                          "points": list(sample.points)})
    _deliver(text, args.output)
    return 0


def _parse_window(text: str) -> tuple[float, float]:
    """'a,b' as two finite floats with a < b."""
    values = [float(v) for v in text.split(",")]
    if not (len(values) == 2 and all(map(math.isfinite, values))
            and values[0] < values[1]):
        raise ValueError(f"expected two finite numbers a,b with a < b; "
                         f"got {text!r}")
    return values[0], values[1]


def _point_range(points) -> tuple[float, float]:
    """The smallest and largest point.  A single point gets a range of
    width 1 centred on it, or two float spacings where those are wider."""
    a, b = min(points), max(points)
    if a == b:
        pad = max(0.5, math.ulp(a))
        a, b = a - pad, b + pad
    return a, b


def _cmd_probe_transitive(args) -> int:
    action = action_from_bundle(_load_json(args.group))
    window = _parse_window(args.window)
    report = transitivity_probe(action, args.x0, args.eps, args.radius, window)
    _deliver(emit_json(report.as_jsonable()), args.output)
    return 0


def _cmd_probe_wandering(args) -> int:
    action = action_from_bundle(_load_json(args.group))
    interval = _parse_window(args.interval)
    report = wandering_probe(action, interval, args.radius, args.tol)
    _deliver(emit_json(report.as_jsonable()), args.output)
    return 3 if report.verdict is ProbeVerdict.REFUTES else 0


def _cmd_fixed_points(args) -> int:
    f = project(parse_map_spec(args.lift))
    angles = fixed_points(f, args.tol)
    _deliver(emit_json({"fixed_angles": angles, "tol": args.tol}), args.output)
    return 0


def _cmd_check_equiv(args) -> int:
    x = parse_quad_irrational(args.x)
    y = parse_quad_irrational(args.y)
    equivalent, witness = gl2z_equivalent(x, y)
    doc = {"equivalent": equivalent,
           "witness": list(witness.as_tuple()) if witness else None}
    _deliver(emit_json(doc), args.output)
    return 0


def _cmd_euler_cocycle(args) -> int:
    action = action_from_bundle(_load_json(args.action))
    if getattr(action, "space", "line") != "circle":
        raise ValueError("the Euler cocycle needs a circle action bundle")
    rank = len(action.generators)
    check_word_budget(rank, args.ball)
    # The transplanted generators fix each marked point i/k and f moves it to
    # (i+1)/k, so a word's normalized lift agrees on the marked points with
    # the rotation by w_f/k, and c(v, w) = floor(F_v(F_w(0))) is read there.
    elements = [(word, rotation(Fraction(word[-1], action.k)))
                for word in word_ball(rank, args.ball)]
    table = euler_cocycle_table(elements)
    _deliver(emit_json(table.as_jsonable()), args.output)
    return 0


def _cmd_conjugacy_verdict(args) -> int:
    a = action_from_bundle(_load_json(args.a))
    b = action_from_bundle(_load_json(args.b))
    witness = None
    if args.witness:
        doc = _load_json(args.witness)
        witness = ConjugacyWitness(
            phi=expr_from_jsonable(doc["phi"]),
            h_word=tuple(_list_field(doc, "h_word", ints=True)),
            psi=(expr_from_jsonable(doc["psi"])
                 if doc.get("psi") is not None else Identity()))
    report = conjugacy_verdict(a, b, witness, tol=args.tol)
    _deliver(emit_json(report.as_jsonable()), args.output)
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circledyn",
        description="Group actions on the line and the circle: rotation "
                    "numbers, Euler cocycles, equivalence of irrationals, "
                    "and dynamics probes.")
    parser.add_argument("--config", help="JSON file supplying values for "
                                         "omitted flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotnum", help="estimate a rotation number")
    p.add_argument("--lift", required=True,
                   help="map spec: identity | translate:a | affine:a,b | "
                        "sine:t,amp | file:expr.json")
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--q-max", dest="q_max", type=int, default=1000)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_rotnum)

    p = sub.add_parser("build-group", help="build a line or circle action")
    p.add_argument("--alpha", required=True,
                   help='quadratic irrational, e.g. "sqrt(2)-1" or '
                        '"(0+1*sqrt(2))/1 - 1" or "golden - 1"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--circle", action="store_true", default=None)
    p.add_argument("--k", type=int, help="marked points, with --circle (default 1)")
    p.add_argument("--g", help="comma-separated word for g, length n, with --circle")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_build_group)

    p = sub.add_parser("orbit", help="enumerate an orbit sample")
    p.add_argument("--group", required=True, help="action bundle JSON path")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--window", help="a,b (svg axis range)")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("probe-transitive", help="orbit density coverage probe")
    p.add_argument("--group", required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--radius", type=int, default=50)
    p.add_argument("--window", default="0,1")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_probe_transitive)

    p = sub.add_parser("probe-wandering", help="wandering interval probe")
    p.add_argument("--group", required=True)
    p.add_argument("--interval", required=True, help="a,b")
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_probe_wandering)

    p = sub.add_parser("fixed-points", help="fixed angles of a circle map")
    p.add_argument("--lift", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_fixed_points)

    p = sub.add_parser("check-equiv", help="GL(2,Z) equivalence of irrationals")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_check_equiv)

    p = sub.add_parser("euler-cocycle", help="tabulate the Euler cocycle "
                                             "over a word ball")
    p.add_argument("--action", required=True, help="circle action bundle")
    p.add_argument("--ball", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_euler_cocycle)

    p = sub.add_parser("conjugacy-verdict", help="decidable conjugacy criteria")
    p.add_argument("--a", required=True, help="first circle action bundle")
    p.add_argument("--b", required=True, help="second circle action bundle")
    p.add_argument("--witness", help="witness JSON: {phi, h_word, psi?}")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_conjugacy_verdict, output=None)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv, args):
    """Parse again with the --config file's values appended as flags, so they
    are converted and checked as flag text is.  Explicit flags win, a false
    switch is set off, and null values and keys naming no option are ignored."""
    if not args.config:
        return args
    overrides = _load_json(args.config)
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_")
                for a in argv if a.startswith("--")}
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in commands.choices[args.command]._actions
               if a.option_strings and hasattr(args, a.dest)}
    extra, switched_off = [], {}
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None or action.dest in explicit or value is None:
            continue
        if action.nargs != 0 or not isinstance(value, bool):
            extra.append(f"{action.option_strings[0]}={value}")
        elif value:
            extra.append(action.option_strings[0])
        else:
            switched_off[action.dest] = False
    args = parser.parse_args(argv + extra)
    vars(args).update(switched_off)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, argv, args)
        return args.handler(args)
    except (CircledynError, ValueError, OSError, KeyError) as exc:
        print(f"circledyn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
