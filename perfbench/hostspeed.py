"""How fast the shared host runs Python at the moment, read from a fixed
pure-Python kernel timed between the ops.

Other tenants of the host slow every op by up to 2x, for minutes at a time,
and CPU time slows as much as wall time, so no clock and no statistic of
the op times alone removes it.  The kernel slows with them: over 10-s
windows of a 4-minute recording its median time and the median time of
`rotation_number` moved together with correlation 0.99, and over eight
25-s runs of the rotation workload the quartile spread of ops_per_s fell
from 0.17 as measured to 0.015 corrected.  The benchmark
divides its times by `factor()`, the kernel's mean time over REFERENCE_MS,
so the host's phases cancel, while a change to circledyn, which the kernel
never calls, does not.  The kernel runs for a few milliseconds, so that,
like the ops, it averages over the host's faster and slower moments.

The kernel evaluates a small expression tree the way circledyn does
(recursive calls, attribute loads, float arithmetic, `math` calls) and
allocates no container, so it cannot set off the garbage collector on
behalf of the ops around it.
"""

from __future__ import annotations

import math
import statistics
import time

#: the kernel's time, in ms, that corrected times are scaled to: a
#: corrected time is what the op would take on a host where the kernel
#: takes this long.  A round figure near its time on a 2-vCPU Xeon VM.
REFERENCE_MS = 4.0
#: between ops, time the kernel again once this long has passed
EVERY_S = 0.05


class _Node:
    __slots__ = ("kind", "left", "right", "c")

    def __init__(self, kind, left=None, right=None, c=0.0):
        self.kind, self.left, self.right, self.c = kind, left, right, c


def _evaluate(node: _Node, x: float) -> float:
    if node.kind == "translate":
        return x + node.c
    if node.kind == "compose":
        return _evaluate(node.left, _evaluate(node.right, x))
    f = math.floor(x)
    t = x - f
    return f + t + node.c * math.sin(2.0 * math.pi * t)


_TREE = _Node("compose", _Node("sine", c=0.05),
              _Node("compose", _Node("translate", c=0.3),
                    _Node("sine", c=0.02)))


def kernel() -> float:
    x = 0.1
    for _ in range(4000):
        x = _evaluate(_TREE, x)
    return x


class HostClock:
    """Kernel times taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append((self._last - t0) * 1e3)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        return statistics.mean(self.samples) / REFERENCE_MS
