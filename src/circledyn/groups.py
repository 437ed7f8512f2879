"""Construction of the explicit tightly transitive, almost minimal Z^n
actions on the line and on the circle, with word evaluation and the
decidable parts of the conjugacy criteria.

The line action is built inductively: level 2 is generated by the unit
translation and the translation by alpha; each further level transplants
every generator into the open unit cells through the arctan chart (fixing
the integers) and adjoins a fresh unit translation.

The circle action places k marked points at angles j/k, transplants the
line action onto every arc through the scaled chart, and takes f to be the
rigid 1/k rotation corrected on one arc family so that f^k restricted to
the first arc equals the transplanted g.

Words are integer vectors v, one exponent per generator.  `word_shells`
enumerates the sup-norm word ball shell by shell; since the generators
commute, every word of shell s is a word of shell s - 1 followed by one
step per coordinate of absolute value s, which lets the probes evaluate
each word from a neighbour instead of building its tree.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .circle import CircleHomeo, DEFAULT_EVAL_EPS, project
from .errors import BudgetExceededError, NotPrimitiveError, RangeError
from .expr import (ArcHat, Compose, HomeoExpr, Identity, Translate,
                   UnitCellHat, compose_all, evaluate, inverse, power)
from .quadirr import QuadIrrational, gl2z_equivalent


@dataclass(frozen=True)
class ZnAction:
    """Commuting generators realizing Z^n on the line.

    Generator ordering for built actions: the newest unit translation
    first, then the transplanted copies of the previous level in order.
    """

    n: int
    generators: tuple[HomeoExpr, ...]
    alpha: QuadIrrational | None = None
    space: str = "line"

    def __post_init__(self):
        if self.n < 1 or len(self.generators) != self.n:
            raise ValueError("generator count must equal n >= 1")


@dataclass(frozen=True)
class CircleZnAction:
    """The circle construction: transplanted generators plus the arc
    permuting map f.  generators = (sigma_bar for each base generator..., f);
    words are integer vectors of length n + 1 over that list."""

    n: int
    k: int
    base: ZnAction
    g_word: tuple[int, ...]
    f: CircleHomeo
    generators: tuple[CircleHomeo, ...]
    marked_angles: tuple[float, ...]
    space: str = "circle"

    @property
    def alpha(self) -> QuadIrrational | None:
        return self.base.alpha


def build_line_action(alpha: QuadIrrational, n: int) -> ZnAction:
    """The inductive line construction over alpha in (0, 1), n >= 2."""
    if n < 2:
        raise ValueError("the construction needs n >= 2")
    if not (alpha > 0 and alpha < 1):
        raise RangeError("alpha must lie in the open unit interval")
    gens: tuple[HomeoExpr, ...] = (Translate(1), Translate(alpha.value(1e-18)))
    for _ in range(n - 2):
        gens = (Translate(1),) + tuple(UnitCellHat(g) for g in gens)
    return ZnAction(n=n, generators=gens, alpha=alpha)


BUDGET_ENV_VAR = "CIRCLEDYN_WORD_BUDGET"
DEFAULT_WORD_BUDGET = 10**6


def _ball_size(rank: int, radius: int) -> int:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return (2 * radius + 1) ** rank


def check_word_budget(rank: int, radius: int) -> int:
    """The number of words of sup-norm at most radius.

    Raises ValueError for a negative radius and BudgetExceededError for a
    ball larger than the word budget (CIRCLEDYN_WORD_BUDGET, default 10**6).
    """
    count = _ball_size(rank, radius)
    raw = os.environ.get(BUDGET_ENV_VAR)
    budget = int(raw) if raw else DEFAULT_WORD_BUDGET
    if count > budget:
        raise BudgetExceededError(
            f"word ball of size {count} exceeds the budget {budget}")
    return count


def word_shells(rank: int, radius: int, steps):
    """The words of sup-norm at most radius, one shell at a time.

    For s = 0..radius yields three parallel lists (codes, preds, moves) over
    the words of sup-norm exactly s, in lexicographic order.  A word's code
    is its mixed-radix index sum_i (v_i + radius) * (2*radius + 1)**(rank-1-i)
    (see `word_of`); pred is the code of its neighbour in shell s - 1, the
    word with every coordinate of absolute value s moved one step toward 0;
    moves holds steps[i][0] for each such coordinate with v_i = s and
    steps[i][1] for v_i = -s.  The zero word is its own neighbour, with no
    moves.  Each shell is built from suffix tables, in time linear in its
    size.
    """
    size = _ball_size(rank, radius)
    base = 2 * radius + 1
    weights = [base ** (rank - 1 - i) for i in range(rank)]
    yield [size // 2], [size // 2], [()]
    for s in range(1, radius + 1):
        # tables over the coordinates i..rank-1, built from i = rank-1 down:
        # the cube (every |v_j| <= s) and the shell (max |v_j| = s)
        cube = ([0], [0], [()])
        shell = ([], [], [])
        for i in reversed(range(rank)):
            forward, backward = steps[i]
            layer = (weights[i], s, radius, forward, backward, cube)
            shell = _prepend(*layer, shell)
            if i:
                cube = _prepend(*layer, cube)
        yield shell


def _prepend(w, s, radius, forward, backward, edge, middle):
    """Tables with one more leading coordinate v_i (of weight w): v_i = -s
    over the `edge` tables, then each -s < v_i < s over `middle`, then
    v_i = s over `edge`.  At v_i = -s and v_i = s the neighbour has v_i
    one step nearer 0 and the word gains the move backward or forward."""
    codes, preds, moves = edge
    out_c = [(radius - s) * w + c for c in codes]
    out_p = [(radius - s + 1) * w + p for p in preds]
    head = (backward,)
    out_m = [head + m for m in moves]
    mid_c, mid_p, mid_m = middle
    offsets = range((radius + 1 - s) * w, (radius + s) * w, w)
    out_c += [off + c for off in offsets for c in mid_c]
    out_p += [off + p for off in offsets for p in mid_p]
    out_m += mid_m * (2 * s - 1)
    out_c += [(radius + s) * w + c for c in codes]
    out_p += [(radius + s - 1) * w + p for p in preds]
    head = (forward,)
    out_m += [head + m for m in moves]
    return out_c, out_p, out_m


def word_of(code: int, rank: int, radius: int) -> tuple[int, ...]:
    """The word whose `word_shells` code in the radius ball is code."""
    base = 2 * radius + 1
    word = [0] * rank
    for i in reversed(range(rank)):
        code, digit = divmod(code, base)
        word[i] = digit - radius
    return tuple(word)


def word_ball(rank: int, radius: int):
    """Words with sup-norm at most radius, in graded lexicographic order:
    shell by shell, lexicographic within a shell."""
    for codes, _, _ in word_shells(rank, radius, ((None, None),) * rank):
        for code in codes:
            yield word_of(code, rank, radius)


def word_to_homeo(action, v) -> HomeoExpr:
    """g_1^{v_1} o ... o g_m^{v_m} for the action's generator list.

    For circle actions the composition is taken on the lifts and has
    length n + 1 (the transplanted generators plus f)."""
    gens = action.generators
    if len(v) != len(gens):
        raise ValueError(f"word length {len(v)} != generator count {len(gens)}")
    parts = []
    for g, e in zip(gens, v):
        if e == 0:
            continue
        expr = g.lift if isinstance(g, CircleHomeo) else g
        parts.append(power(expr, int(e)))
    return compose_all(parts)


def _arc_transplant(inner: HomeoExpr, k: int) -> HomeoExpr:
    """Transplant inner onto every arc (i/k, (i+1)/k) mod 1 via the scaled
    chart.  Arc endpoints use the same floats as the marked angles, so the
    marked points are fixed exactly."""
    return compose_all([ArcHat(inner, i / k, (i + 1) / k) for i in range(k)])


def build_circle_action(alpha: QuadIrrational, n: int, k: int,
                        g_word) -> CircleZnAction:
    """The circle construction over (alpha, n, k, g).

    g_word indexes g in the line action's generators; it must not be
    divisible coordinatewise by k (otherwise g is a k-th power and the
    construction degenerates), which raises NotPrimitiveError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    g_word = tuple(int(e) for e in g_word)
    base = build_line_action(alpha, n)
    if len(g_word) != n:
        raise ValueError(f"g_word must have length {n}")
    if k > 1 and all(e % k == 0 for e in g_word):
        raise NotPrimitiveError(
            f"word {g_word} lies in the k-th power subgroup for k={k}")
    g = word_to_homeo(base, g_word)
    marked = tuple(((j % k) / k) for j in range(1, k + 1))
    # f = (correction on the first arc family) o (rigid rotation by 1/k):
    # the correction transplants g onto the arcs (1/k + m, 2/k + m), so
    # f^k restricted to the first arc equals the transplanted g exactly.
    correction = ArcHat(g, 1.0 / k, 2.0 / k) if k > 1 else ArcHat(g, 1.0, 2.0)
    f_lift = Compose(correction, Translate(Fraction(1, k)))
    f = project(f_lift)
    sigma_bars = tuple(project(_arc_transplant(gen, k)) for gen in base.generators)
    return CircleZnAction(n=n, k=k, base=base, g_word=g_word, f=f,
                          generators=sigma_bars + (f,), marked_angles=marked)


class Verdict(enum.Enum):
    NOT_CONJUGATE = "NOT_CONJUGATE"
    CONJUGATE_WITNESSED = "CONJUGATE_WITNESSED"
    UNDECIDED_NEEDS_WITNESS = "UNDECIDED_NEEDS_WITNESS"


@dataclass(frozen=True)
class ConjugacyWitness:
    """User-supplied data for the affine-orbit condition.

    phi must normalize the line action, h_word indexes an element of it,
    and psi (default identity) must conjugate B's line action onto A's;
    those group-level properties are vouched for by the caller, only the
    resulting equation is checked numerically.
    """

    phi: HomeoExpr
    h_word: tuple[int, ...]
    psi: HomeoExpr = field(default_factory=Identity)


@dataclass(frozen=True)
class ConjugacyReport:
    verdict: Verdict
    reason: str
    residual: float | None = None

    def as_jsonable(self) -> dict:
        doc = {"verdict": self.verdict.value, "reason": self.reason}
        if self.residual is not None:
            doc["residual"] = self.residual
        return doc


def conjugacy_verdict(a: CircleZnAction, b: CircleZnAction,
                      witness: ConjugacyWitness | None = None, *,
                      tol: float = 1e-9, grid: int = 64,
                      window: float = 2.0) -> ConjugacyReport:
    """Decide the decidable conjugacy criteria between two circle actions.

    (n, k) mismatch and inequivalent alpha are decided negatively; a
    supplied witness is checked against the affine-orbit equation
    psi g' psi^{-1} = phi g h^k phi^{-1} on a sample grid.  Without a
    witness the affine-orbit condition stays undecided.
    """
    if a.n != b.n or a.k != b.k:
        return ConjugacyReport(Verdict.NOT_CONJUGATE,
                               f"(n, k) = ({a.n}, {a.k}) differs from ({b.n}, {b.k})")
    if a.alpha is None or b.alpha is None:
        return ConjugacyReport(Verdict.UNDECIDED_NEEDS_WITNESS,
                               "actions lack exact irrational data")
    equivalent, _ = gl2z_equivalent(a.alpha, b.alpha)
    if not equivalent:
        return ConjugacyReport(Verdict.NOT_CONJUGATE,
                               "base irrationals are not GL(2,Z) equivalent")
    if witness is None:
        return ConjugacyReport(Verdict.UNDECIDED_NEEDS_WITNESS,
                               "affine-orbit condition requires a witness")
    h_word = tuple(int(e) for e in witness.h_word)
    if len(h_word) != a.n:
        raise ValueError(f"h_word must have length {a.n}")
    g_prime = word_to_homeo(b.base, b.g_word)
    combined = tuple(ga + a.k * ha for ga, ha in zip(a.g_word, h_word))
    g_h_k = word_to_homeo(a.base, combined)
    lhs = compose_all([witness.psi, g_prime, inverse(witness.psi)])
    rhs = compose_all([witness.phi, g_h_k, inverse(witness.phi)])
    worst = 0.0
    for j in range(grid):
        x = -window + 2.0 * window * j / (grid - 1)
        worst = max(worst, abs(evaluate(lhs, x, DEFAULT_EVAL_EPS)
                                - evaluate(rhs, x, DEFAULT_EVAL_EPS)))
    if worst <= tol:
        return ConjugacyReport(Verdict.CONJUGATE_WITNESSED,
                               "witness satisfies the affine-orbit equation",
                               residual=worst)
    return ConjugacyReport(Verdict.UNDECIDED_NEEDS_WITNESS,
                           "supplied witness fails the affine-orbit equation",
                           residual=worst)
