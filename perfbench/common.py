"""The op model shared by run.py and the workloads: an op, the record
of one attempt, and how an attempt is timed and checked."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import tracing


#: quadratic irrationals in distinct fields, none within 1e-4 of a rational
#: with denominator <= 50 (the conjugacy's rational screen at N = 10^4)
ALPHAS = ("sqrt(2)-1", "golden - 1", "sqrt(3)-1", "sqrt(6)-2",
          "(sqrt(21)-3)/2")


def random_unimodular(rng) -> tuple:
    """Seeded (m1, n1, m2, n2) with |m1*n2 - n1*m2| = 1."""
    while True:
        m1, n1, m2, n2 = (rng.randint(-6, 6) for _ in range(4))
        if abs(m1 * n2 - n1 * m2) == 1:
            return m1, n1, m2, n2


class Mismatch(Exception):
    """The op returned an answer its oracle rejects."""


class Refused(Exception):
    """The op reported a typed failure (a CLI error exit) instead of a
    result."""


@dataclass
class Op:
    label: str                      # op type, e.g. "orbit.n2r50"
    fn: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Record:
    label: str
    wall_ms: float
    outcome: str                    # "ok", "refused" or "wrong"
    error: str = ""
    evals: int = 0                  # evaluate calls, traced passes only


def run_op(op: Op, cd, tracer=None, op_id: int = 0) -> Record:
    """Time one op, then check its output outside the timed region.

    A typed circledyn error or a Refused check is a refusal; an untyped
    exception or a Mismatch is a wrong answer.
    """
    if tracer is not None:
        tracer.op_id = op_id
        tracer.active = True
        evals0 = tracer.eval_total
        span = tracer.open(tracer.intern(tracing.OP))
    t0 = time.perf_counter()
    error = None
    try:
        result = op.fn()
    except Exception as exc:
        error = exc
    wall = (time.perf_counter() - t0) * 1e3
    evals = 0
    if tracer is not None:
        tracer.close(span)
        tracer.active = False
        evals = tracer.eval_total - evals0
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = exc
    if error is None:
        return Record(op.label, wall, "ok", evals=evals)
    refused = isinstance(error, (cd.errors.CircledynError, Refused))
    return Record(op.label, wall, "refused" if refused else "wrong",
                  f"{type(error).__name__}: {error}", evals)
