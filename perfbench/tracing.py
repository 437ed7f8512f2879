"""Spans and call counts recorded from outside circledyn.

`install` wraps the public functions of a freshly imported circledyn.  A
function is replaced under every name that binds it in the package
(`circle`, `groups`, `probes` and `rotnum` each import `evaluate` by name),
so calls are seen whichever module resolves them.  Nothing under `src/` is
edited.

Two kinds of wrapper:
  * a span wrapper records (name, start, end, parent, op id) in flat arrays;
  * a counting wrapper only counts: `evaluate` by node kind, because it
    recurses through every node of a tree, and `power` and `inverse`, which
    run several times per word.  Calls that enter the `expr` layer from
    another module (the `evaluate` bindings outside `expr`,
    `HomeoExpr.__call__`) also get an `expr.evaluate` span, so the time
    spent in evaluation is attributed to `expr`.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

MODULES = ("expr", "circle", "groups", "probes", "rotnum", "quadirr",
           "euler", "cli")

#: (module, function): every binding of the function is counted.  These
#: recurse and are called several times per word, too often for spans.
COUNTED = (("expr", "power"), ("expr", "inverse"))

#: (module, function): every binding of the function gets a span.
SPANNED = (
    ("circle", "project"), ("circle", "normalize_lift"),
    ("circle", "commutation_defect"),
    ("groups", "word_to_homeo"), ("groups", "build_line_action"),
    ("groups", "build_circle_action"),
    ("probes", "orbit"), ("probes", "transitivity_probe"),
    ("probes", "wandering_probe"), ("probes", "fixed_points"),
    ("rotnum", "rotation_number"),
    ("rotnum", "approximate_poincare_conjugacy"),
    ("quadirr", "gl2z_equivalent"),
    ("euler", "cocycle_value"), ("euler", "euler_cocycle_table"),
    ("euler", "rational_class_table"),
    ("cli", "main"), ("cli", "action_from_bundle"), ("cli", "emit_json"),
)

#: (module, class, method) replaced on the class.
SPANNED_METHODS = (("circle", "CircleHomeo", "compose"),)

EVALUATE = "expr.evaluate"
OP = "op"
SETUP_OP = -1


class Tracer:
    """In-memory span store.  Spans are appended to parallel arrays and
    written out once, when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: 1 when a span of the same name is open above this one
        self.nested = array("b")
        self._depth: list[int] = []
        self._stack = [-1]
        self.op_id = SETUP_OP
        self.active = True
        #: evaluate calls by node kind, all depths
        self.evals: dict[str, int] = {}
        self.eval_total = 0
        #: calls of the COUNTED functions, by op id and name
        self.counts: dict[tuple, int] = {}

    def intern(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return code

    def open(self, code: int) -> int:
        idx = len(self.start)
        self.code.append(code)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.nested.append(self._depth[code] > 0)
        self._depth[code] += 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._depth[self.code[idx]] -= 1
        self._stack.pop()

    def count_eval(self, kind: str):
        self.evals[kind] = self.evals.get(kind, 0) + 1
        self.eval_total += 1

    def write(self, path, op_labels):
        """Write the spans as gzipped JSON lines: a header with the op
        labels and span names, then [name, start, end, parent, op] rows."""
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"ops": op_labels, "names": self.names}))
            handle.write("\n")
            for i in range(len(self.start)):
                handle.write(f"[{self.code[i]},{self.start[i]!r},{self.end[i]!r},"
                             f"{self.parent[i]},{self.op[i]}]\n")


def _span_wrapper(tracer: Tracer, name: str, fn):
    code = tracer.intern(name)

    def spanned(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(code)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    spanned.__wrapped__ = fn
    return spanned


def _eval_wrapper(tracer: Tracer, fn):
    def counted(h, *args, **kwargs):
        if tracer.active:
            tracer.count_eval(h.kind)
        return fn(h, *args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _count_wrapper(tracer: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        if tracer.active:
            key = (tracer.op_id, name)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _entry_wrapper(tracer: Tracer, fn):
    """An `evaluate` binding outside `expr`: counted and spanned."""
    code = tracer.intern(EVALUATE)

    def entry(h, *args, **kwargs):
        if not tracer.active:
            return fn(h, *args, **kwargs)
        tracer.count_eval(h.kind)
        idx = tracer.open(code)
        try:
            return fn(h, *args, **kwargs)
        finally:
            tracer.close(idx)

    entry.__wrapped__ = fn
    return entry


def install(cd, tracer: Tracer):
    """Wrap the functions of the freshly imported package `cd`.

    The wrappers stay for the life of these module objects; the benchmark
    re-imports circledyn for every untraced pass, so they are never undone.
    """
    modules = {name: importlib.import_module(f"{cd.__name__}.{name}")
               for name in MODULES}

    def rebind(orig, wrapper, where):
        for mod in where:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    evaluate = modules["expr"].evaluate
    rebind(evaluate, _eval_wrapper(tracer, evaluate), [modules["expr"]])
    entry = _entry_wrapper(tracer, evaluate)
    rebind(evaluate, entry,
           [m for n, m in modules.items() if n != "expr"] + [cd])
    base = modules["expr"].HomeoExpr
    base.__call__ = _span_wrapper(tracer, EVALUATE, base.__call__)

    for mod_name, fn_name in COUNTED:
        orig = getattr(modules[mod_name], fn_name)
        wrapper = _count_wrapper(tracer, f"{mod_name}.{fn_name}", orig)
        rebind(orig, wrapper, list(modules.values()) + [cd])
    for mod_name, fn_name in SPANNED:
        orig = getattr(modules[mod_name], fn_name)
        wrapper = _span_wrapper(tracer, f"{mod_name}.{fn_name}", orig)
        rebind(orig, wrapper, list(modules.values()) + [cd])
    for mod_name, cls_name, meth in SPANNED_METHODS:
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, _span_wrapper(
            tracer, f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))


class SpanSummary:
    """Span totals by op id and name, from one scan of the spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer.start)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        # (op, name) -> [calls, inclusive time of outermost spans, self time]
        self._by_op: dict[tuple, list] = {}
        for i in range(n):
            key = (tracer.op[i], tracer.names[tracer.code[i]])
            agg = self._by_op.setdefault(key, [0, 0.0, 0.0])
            agg[0] += 1
            if not tracer.nested[i]:
                agg[1] += dur[i]
            agg[2] += dur[i] - child[i]
        for (op, name), calls in tracer.counts.items():
            self._by_op.setdefault((op, name), [0, 0.0, 0.0])[0] += calls

    def _total(self, field: int, name: str, ops) -> float:
        return sum(self._by_op.get((op, name), (0, 0.0, 0.0))[field]
                   for op in ops)

    def calls(self, name: str, ops) -> int:
        """Spans of `name`, or calls of a COUNTED function, in these ops."""
        return self._total(0, name, ops)

    def inclusive(self, name: str, ops) -> float:
        """Time under the outermost `name` spans of these ops."""
        return self._total(1, name, ops)

    def self_time(self, module: str, ops) -> float:
        """Self time of the spans of `module`'s functions in these ops."""
        keep = set(ops)
        return sum(agg[2] for (op, name), agg in self._by_op.items()
                   if op in keep and name.split(".")[0] == module)

    def signature(self) -> dict:
        """Calls of every name over all ops, setup included."""
        out: dict[str, int] = {}
        for (_, name), agg in self._by_op.items():
            out[name] = out.get(name, 0) + agg[0]
        return out

    def count_under(self, name: str, ancestor: str, ops) -> tuple[int, int]:
        """(spans of `name` in these ops with an `ancestor` span above them,
        all spans of `name` in these ops)."""
        t = self.tracer
        if name not in t.names:
            return 0, 0
        code, anc = t.intern(name), t.intern(ancestor)
        keep = set(ops)
        inside = total = 0
        for i in range(len(t.start)):
            if t.code[i] != code or t.op[i] not in keep:
                continue
            total += 1
            p = t.parent[i]
            while p >= 0:
                if t.code[p] == anc:
                    inside += 1
                    break
                p = t.parent[p]
        return inside, total
