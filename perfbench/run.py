#!/usr/bin/env python3
"""The circledyn benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rotation --seed 1 --seconds 20 --trace 0

Workloads: rotation, wordball, euler, cli (or `all`, which runs the four in
turn, each in its own process).  Each workload is a closed loop with one client: one
op runs at a time, on one thread, and the next op starts when the previous
one has finished and its output has been checked.

--trace 0 measures the end-to-end metrics: setup time, verified ops per
second, charged op latency (p50, p90) and peak RSS.  A successful op is
charged the mean wall time of the ops with its label in the run, divided
by the host factor (see `op_metrics` and hostspeed.py); a failed op (it
raised, exited with an unexpected code, or failed its output check) is
charged the workload's latency limit.

--trace 1 runs a fixed pass of ops twice with spans and call counts, checks
that the counts repeat exactly, runs the same pass untraced for the tracing
overhead, and prints the per-layer metrics declared in BENCHMARK.json.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The program is imported from `src/` of the checkout; without it the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import w_cli  # noqa: E402
import w_euler  # noqa: E402
import w_rotation  # noqa: E402
import w_wordball  # noqa: E402
from common import Op, Record, run_op  # noqa: E402

#: setup is repeated this many times per run; setup_s is the median
SETUP_REPEATS = 11
#: a run attempts at least this many ops (or the workload's MIN_OPS), so
#: that every label has several wall times for its percentile
MIN_OPS = 100
#: stop starting new rounds after this long, to stay inside the 180 s limit
HARD_STOP_S = 100.0
#: kernel times taken after each setup, for the setup's host factor
SETUP_KERNEL_SAMPLES = 5
#: untraced repetitions of the traced pass (overhead and layer timings)
UNTRACED_PASSES = 3

NODE_KINDS = ("identity", "translate", "affine", "hbar", "hbar_inv",
              "unit_cell_hat", "arc_hat", "piecewise_monotone", "compose",
              "inverse", "translation_conjugacy",
              "translation_conjugacy_inverse")


@dataclass
class Env:
    seed: int
    workdir: Path
    src: Path = SRC


def fresh_circledyn():
    """Import circledyn from the checkout's src/, discarding any earlier
    import, so every setup and every pass starts from fresh module state."""
    for name in [m for m in sys.modules
                 if m == "circledyn" or m.startswith("circledyn.")]:
        del sys.modules[name]
    cd = importlib.import_module("circledyn")
    if Path(cd.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"circledyn was imported from {cd.__file__}, "
                         f"not from {SRC}")
    return cd


def trace_pass_ops(wl, state) -> list[Op]:
    """The fixed pass of the traced run: TRACE_ROUNDS rounds of the
    workload's `trace_ops`, or of its `ops` where it has none."""
    make = getattr(wl, "trace_ops", wl.ops)
    return [op for r in range(wl.TRACE_ROUNDS) for op in make(state, r)]


# -- timed (untraced) run -----------------------------------------------------

def forked_setup_s(wl, env: Env) -> float:
    """Time one setup in a forked child.  Its memory goes with it, so the
    peak RSS of the benchmark process holds a single setup.  Called before
    the first op, while the process has no thread besides the main one."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            t0 = time.perf_counter()
            wl.setup(fresh_circledyn(), env)
            os.write(write_end, repr(time.perf_counter() - t0).encode())
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit("setup failed")
    return float(text)


def timed_run(wl, env: Env, seconds: float) -> dict:
    setup_clock, clock = hostspeed.HostClock(), hostspeed.HostClock()
    setup_times = []
    for i in range(SETUP_REPEATS):
        if i < SETUP_REPEATS - 1:
            setup_times.append(forked_setup_s(wl, env))
        else:
            t0 = time.perf_counter()
            cd = fresh_circledyn()
            state = wl.setup(cd, env)
            setup_times.append(time.perf_counter() - t0)
        for _ in range(SETUP_KERNEL_SAMPLES):
            setup_clock.sample()
    records: list[Record] = []
    rounds = 0
    min_ops = getattr(wl, "MIN_OPS", MIN_OPS)
    start = time.perf_counter()
    while True:
        for op in wl.ops(state, rounds):
            clock.maybe_sample()
            records.append(run_op(op, cd))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds
                                      and len(records) >= min_ops):
            break
    # the metrics with the host's speed taken out, and as measured
    factor, setup_factor = clock.factor(), setup_clock.factor()
    metrics = op_metrics(records, wl.LIMIT_MS, factor)
    metrics["setup_s"] = statistics.median(setup_times) / setup_factor
    raw = op_metrics(records, wl.LIMIT_MS)
    raw["setup_s"] = statistics.median(setup_times)
    # a workload that runs the program in child processes reports their peak
    peak_kb = (wl.peak_child_rss_kb(state) if hasattr(wl, "peak_child_rss_kb")
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = peak_kb / 1024.0
    return {"records": records, "rounds": rounds, "measured_s": elapsed,
            "metrics": metrics, "raw": raw,
            "host": (factor, len(clock.samples), setup_factor)}


def op_metrics(records, limit_ms: float, factor: float = 1.0) -> dict:
    """A successful op is charged the mean wall time of the successful ops
    with its label in the run, divided by the host factor; a failed op is
    charged the latency limit.

    The ops with one label do the same computation, each on fresh inputs.
    The host flips between a fast and a slow mode, about 2x apart, within
    a run, and the 50th and 90th percentiles of a mix of ops would fall on
    one label or the next as the share of slow ops moves; the mean of each
    label moves only with the host's mean speed, which the host factor
    takes out.  Mean charges leave ops_per_s what own wall times give."""
    walls: dict[str, list] = {}
    for rec in records:
        if rec.outcome == "ok":
            walls.setdefault(rec.label, []).append(rec.wall_ms)
    typical = {label: statistics.mean(times) / factor
               for label, times in walls.items()}
    charged = [typical[rec.label] if rec.outcome == "ok" else limit_ms
               for rec in records]
    ok = sum(rec.outcome == "ok" for rec in records)
    return {
        "ops_per_s": ok / (sum(charged) / 1e3),
        "op_p50_ms": statistics.median(charged),
        "op_p90_ms": statistics.quantiles(charged, n=10)[8],
    }


# -- traced run ---------------------------------------------------------------

@dataclass
class TracedPass:
    tracer: tracing.Tracer
    records: list[Record]
    evals: dict[str, int]           # evaluate calls by kind, ops only


def traced_pass(wl, env: Env) -> TracedPass:
    cd = fresh_circledyn()
    tracer = tracing.Tracer()
    tracing.install(cd, tracer)
    state = wl.setup(cd, env)
    tracer.active = False
    before = dict(tracer.evals)
    ops = trace_pass_ops(wl, state)
    records = [run_op(op, cd, tracer, i) for i, op in enumerate(ops)]
    evals = {k: v - before.get(k, 0) for k, v in tracer.evals.items()}
    return TracedPass(tracer, records, {k: v for k, v in evals.items() if v})


def untraced_pass(wl, env: Env):
    cd = fresh_circledyn()
    state = wl.setup(cd, env)
    return cd, state, [run_op(op, cd) for op in trace_pass_ops(wl, state)]


def count_signature(tp: TracedPass) -> dict:
    """Counts that must repeat exactly between two traced passes."""
    sig = {f"expr.evaluate.calls.{k}": v for k, v in tp.evals.items()}
    sig.update(tracing.SpanSummary(tp.tracer).signature())
    sig.pop(tracing.OP, None)
    return sig


class LayerContext:
    """What a workload's layer metrics are computed from."""

    def __init__(self, traced: TracedPass, untraced: list):
        self.traced = traced
        self.n_ops = len(traced.records)
        self.ops = range(self.n_ops)
        self.spans = tracing.SpanSummary(traced.tracer)
        self.labels = [rec.label for rec in traced.records]
        # median untraced wall time of each op of the pass
        self.untraced_ms = [statistics.median(p[2][i].wall_ms for p in untraced)
                            for i in self.ops]
        self.cd, self.state = untraced[-1][0], untraced[-1][1]

    def op_ids(self, prefix: str) -> list[int]:
        return [i for i, lab in enumerate(self.labels)
                if lab == prefix or lab.startswith(prefix + ".")]

    def per_op(self, total: float) -> float:
        return total / self.n_ops

    def untraced_s(self, ids) -> float:
        return sum(self.untraced_ms[i] for i in ids) / 1e3


def common_layer_metrics(ctx: LayerContext) -> dict:
    s, ops = ctx.spans, ctx.ops
    op_time = s.inclusive(tracing.OP, ops)
    m = {}
    evals = ctx.traced.evals
    m["expr.evaluate.calls"] = ctx.per_op(sum(evals.values()))
    for kind in NODE_KINDS:
        m[f"expr.evaluate.calls.{kind}"] = ctx.per_op(evals.get(kind, 0))
    m["expr.evaluate.calls.other"] = ctx.per_op(sum(
        v for k, v in evals.items() if k not in NODE_KINDS))
    for name in ("expr.power", "expr.inverse", "circle.project",
                 "circle.normalize_lift", "circle.commutation_defect",
                 "circle.CircleHomeo.compose", "groups.word_to_homeo",
                 "euler.cocycle_value"):
        m[f"{name}.calls"] = ctx.per_op(s.calls(name, ops))
    for name in ("circle.project", "circle.normalize_lift",
                 "circle.commutation_defect", "groups.word_to_homeo",
                 "probes.orbit", "probes.transitivity_probe",
                 "probes.wandering_probe", "probes.fixed_points",
                 "rotnum.rotation_number",
                 "rotnum.approximate_poincare_conjugacy",
                 "quadirr.gl2z_equivalent", "euler.cocycle_value"):
        m[f"{name}.s"] = ctx.per_op(s.inclusive(name, ops))
    for name in ("circle.commutation_defect", "groups.word_to_homeo"):
        m[f"{name}.share"] = s.inclusive(name, ops) / op_time
    inside, total = s.count_under("circle.normalize_lift",
                                  "circle.CircleHomeo.compose", ops)
    m["circle.revalidation_ratio"] = inside / total if total else 0.0
    for name in ("groups.build_line_action", "groups.build_circle_action"):
        m[f"{name}.s"] = s.inclusive(name, [tracing.SETUP_OP])
    for module in tracing.MODULES:
        m[f"{module}.self_s"] = ctx.per_op(s.self_time(module, ops))
    untraced_total = sum(ctx.untraced_ms) / 1e3
    m["trace.overhead_s"] = op_time - untraced_total
    m["trace.overhead_ratio"] = (op_time - untraced_total) / untraced_total
    return m


def traced_run(wl, env: Env, name: str) -> dict:
    first = traced_pass(wl, env)
    second = traced_pass(wl, env)
    sig_a, sig_b = count_signature(first), count_signature(second)
    deterministic = sig_a == sig_b
    if not deterministic:
        diff = {k: (sig_a.get(k), sig_b.get(k))
                for k in set(sig_a) | set(sig_b) if sig_a.get(k) != sig_b.get(k)}
        print(f"count mismatch between traced passes: {diff}", file=sys.stderr)
    del second
    untraced = [untraced_pass(wl, env)
                for _ in range(getattr(wl, "UNTRACED_PASSES", UNTRACED_PASSES))]
    ctx = LayerContext(first, untraced)
    metrics = common_layer_metrics(ctx)
    metrics.update(wl.layer_metrics(ctx))
    OUT.mkdir(exist_ok=True)
    first.tracer.write(OUT / f"trace-{name}-seed{env.seed}.jsonl.gz",
                       ctx.labels)
    records = first.records + [r for p in untraced for r in p[2]]
    return {"records": records, "metrics": metrics,
            "deterministic": deterministic}


# -- reporting ----------------------------------------------------------------

def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def report(name: str, env: Env, result: dict, declared: list, trace: bool,
           wl) -> dict:
    records = result["records"]
    failed = [r for r in records if r.outcome != "ok"]
    wrong = [r for r in records if r.outcome == "wrong"]
    values = result["metrics"]
    unknown = set(values) - {d["name"] for d in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for d in declared:
        if d["name"] not in values and not trace:
            raise SystemExit(f"workload {name} did not measure {d['name']}")
        # a layer the workload does not exercise reads 0
        out[d["name"]] = {"value": values.get(d["name"], 0.0), "unit": d["unit"]}
    print(f"== {name}  seed {env.seed}  trace {int(trace)}  "
          f"latency limit {wl.LIMIT_MS:g} ms")
    if not trace:
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.label] = counts.get(rec.label, 0) + 1
        print(f"   ops attempted {len(records)} in {result['rounds']} rounds, "
              f"{result['measured_s']:.2f} s; {len(counts)} labels, "
              f"{min(counts.values())} to {max(counts.values())} ops each")
    if not trace:
        factor, samples, setup_factor = result["host"]
        print(f"   host factor {factor:.4g} over {samples} kernel times "
              f"({setup_factor:.4g} at setup); as measured in brackets")
    for key, entry in out.items():
        measured = (f"  ({result['raw'][key]:.6g})" if not trace else "")
        print(f"   {key:<44} {entry['value']:.6g} {entry['unit']}{measured}")
    if not trace:
        print(f"   {'failed_ratio':<44} {len(failed) / len(records):.6g} 1 "
              f"({len(failed)}/{len(records)})")
    by_cause: dict[tuple, int] = {}
    for r in failed:
        cause = r.error.split(":")[0]
        key = (r.label, r.outcome, r.error[:72] if cause == "Refused" else cause)
        by_cause[key] = by_cause.get(key, 0) + 1
    for (label, outcome, err), count in sorted(by_cause.items()):
        print(f"   failed {count:>5}x {label} [{outcome}] {err}", file=sys.stderr)
    correct = not wrong and result.get("deterministic", True)
    return {"correct": correct, "attempted": len(records),
            "failed": len(failed), "metrics": out}


def main(argv=None) -> int:
    workloads = {"rotation": w_rotation, "wordball": w_wordball,
                 "euler": w_euler, "cli": w_cli}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circledyn" / "__init__.py").is_file():
        print(f"circledyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(sorted(workloads), args)
    declared = load_declared()["per_layer" if args.trace else "end_to_end"]
    wl = workloads[args.workload]
    env = Env(seed=args.seed,
              workdir=OUT / f"run-{os.getpid()}-{args.workload}")
    env.workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = (traced_run(wl, env, args.workload) if args.trace
                  else timed_run(wl, env, args.seconds))
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)
    line = report(args.workload, env, result, declared, bool(args.trace), wl)
    print(json.dumps(line))
    return 0


def run_all(names, args) -> int:
    """Run each workload in a process of its own, so that its peak RSS and
    module state are its own; print the result lines together at the end."""
    lines = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        out = proc.stdout.splitlines()
        if proc.returncode != 0 or not out:
            print("\n".join(out))
            return proc.returncode or 1
        print("\n".join(out[:-1]), flush=True)
        lines.append(out[-1])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
