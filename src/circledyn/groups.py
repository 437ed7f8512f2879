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

Words are integer vectors v, one exponent per generator.  `word_ball`
lists the sup-norm word ball shell by shell; a word's code is its index
in the lexicographic order of the whole ball, the order of
`itertools.product(range(-radius, radius + 1), repeat=rank)`.  Since the
generators commute, the probes fill the ball one generator at a time
instead of building each word's tree.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
from fractions import Fraction

from ._record import Record
from .circle import CircleHomeo, project
from .errors import BudgetExceededError, NotPrimitiveError, RangeError
from .expr import (DEFAULT_EPS, CellHat, Compose, HomeoExpr, Identity,
                   Translate, UnitCellHat, compose_all, evaluate, inverse,
                   power)
from .quadirr import QuadIrrational, gl2z_equivalent


class ZnAction(Record):
    """Commuting generators realizing Z^n on the line.

    Generator ordering for built actions: the newest unit translation
    first, then the transplanted copies of the previous level in order.
    """

    __slots__ = ("n", "generators", "alpha", "space")
    _defaults = {"alpha": None, "space": "line"}

    def _check(self):
        if self.n < 1 or len(self.generators) != self.n:
            raise ValueError("generator count must equal n >= 1")


class CircleZnAction(Record):
    """The circle construction: transplanted generators plus the arc
    permuting map f.  generators = (sigma_bar for each base generator..., f);
    words are integer vectors of length n + 1 over that list."""

    __slots__ = ("n", "k", "base", "g_word", "f", "generators",
                 "marked_angles", "space")
    _defaults = {"space": "circle"}

    @property
    def alpha(self) -> QuadIrrational | None:
        return self.base.alpha

    def word_rotation(self, word) -> Fraction:
        """The exact rotation number (w_f mod k)/k of a word w, whose last
        entry w_f is its exponent of f.  The transplanted generators fix
        each marked point i/k and f moves it to (i+1)/k, so the word's
        normalized lift agrees on the marked points with the rotation by
        w_f/k, and c(v, w) = floor(F_v(F_w(0))) is read there."""
        return Fraction(word[-1] % self.k, self.k)

    def rotation_vector(self) -> tuple[Fraction, ...]:
        """The exact rotation numbers of the generators, `word_rotation` of
        each unit word: (0, ..., 0, 1/k), and 0 for f too when k = 1."""
        rank = len(self.generators)
        return tuple(self.word_rotation([int(i == j) for j in range(rank)])
                     for i in range(rank))


def is_circle(action) -> bool:
    """Whether action acts on the circle (its space is "circle")."""
    return getattr(action, "space", "line") == "circle"


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
#: conjugacy_verdict checks a witness at WITNESS_GRID equispaced points of
#: [-WITNESS_WINDOW, WITNESS_WINDOW]
WITNESS_GRID = 64
WITNESS_WINDOW = 2.0


def _ball_size(rank: int, radius: int) -> int:
    # operator.index refuses a radius that is not an integer, such as 1.5
    if operator.index(radius) < 0:
        raise ValueError("radius must be nonnegative")
    return (2 * radius + 1) ** rank


def _word_budget() -> int:
    """The word budget, read from CIRCLEDYN_WORD_BUDGET on each call; a
    value that is not an integer raises ValueError."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    try:
        return int(raw) if raw else DEFAULT_WORD_BUDGET
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, "
                         f"not {raw!r}") from None


def check_word_budget(rank: int, radius: int) -> int:
    """The number of words of sup-norm at most radius.

    Raises TypeError for a radius that is not an integer, ValueError for a
    negative radius or a budget that is not an integer, and
    BudgetExceededError for a ball larger than the word budget
    (CIRCLEDYN_WORD_BUDGET, default 10**6).
    """
    count = _ball_size(rank, radius)
    budget = _word_budget()
    if count > budget:
        raise BudgetExceededError(
            f"word ball of size {count} exceeds the budget {budget}")
    return count


def word_ball(rank: int, radius: int) -> list[tuple[int, ...]]:
    """Words with sup-norm at most radius, in graded lexicographic order:
    shell by shell, lexicographic within a shell."""
    _ball_size(rank, radius)    # rejects a radius that is not an integer >= 0
    span = range(-radius, radius + 1)
    # sorted is stable, so each shell keeps the product's lexicographic order
    return sorted(itertools.product(span, repeat=rank),
                  key=lambda v: max(map(abs, v), default=0))


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
    f = project(Compose(CellHat(g, (1 / k, 2 / k)), Translate(Fraction(1, k))))
    # every generator transplanted onto the arcs (i/k, (i+1)/k) mod 1, whose
    # edges are the marked angles' floats i/k, so the marked points stay put
    edges = [i / k for i in range(k + 1)]
    sigma_bars = tuple(project(CellHat(gen, edges)) for gen in base.generators)
    return CircleZnAction(n=n, k=k, base=base, g_word=g_word, f=f,
                          generators=sigma_bars + (f,), marked_angles=marked)


def _arc_edges(action) -> tuple | None:
    """The arc edges (0, 1/k, ..., 1) of a circle action whose lifts are
    those `build_circle_action` makes with k >= 2: every sigma_bar_i lifts
    to `CellHat(base generator i, edges)`, and f to a `CellHat` on the
    arcs (1/k, 2/k), transplanting g_word's base word, after the
    translation by 1/k, so f's lift carries each arc (i/k, (i+1)/k) onto
    the next.  None for any other action."""
    if not isinstance(action, CircleZnAction) or action.k < 2:
        return None
    k = action.k
    edges = tuple(i / k for i in range(k + 1))
    *sigma_bars, f = action.generators
    base = action.base.generators
    if len(sigma_bars) != len(base) or not all(
            type(s.lift) is CellHat and s.lift.edges == edges
            and s.lift.inner == g for s, g in zip(sigma_bars, base)):
        return None
    lift = f.lift
    if not (type(lift) is Compose and len(lift.members) == 2
            and type(lift.members[0]) is CellHat
            and lift.members[0].edges == edges[1:3]
            and lift.members[0].inner == word_to_homeo(action.base,
                                                       action.g_word)
            and lift.members[1] == Translate(Fraction(1, k))):
        return None
    return edges


class Verdict(enum.Enum):
    NOT_CONJUGATE = "NOT_CONJUGATE"
    CONJUGATE_WITNESSED = "CONJUGATE_WITNESSED"
    UNDECIDED_NEEDS_WITNESS = "UNDECIDED_NEEDS_WITNESS"


class ConjugacyWitness(Record):
    """User-supplied data for the affine-orbit condition.

    phi must normalize the line action, h_word indexes an element of it,
    and psi (default identity) must conjugate B's line action onto A's;
    those group-level properties are vouched for by the caller, only the
    resulting equation is checked numerically.
    """

    __slots__ = ("phi", "h_word", "psi")
    _defaults = {"psi": Identity}


class ConjugacyReport(Record):
    """A verdict, its reason and, for a checked witness, the largest
    residual of the affine-orbit equation."""

    __slots__ = ("verdict", "reason", "residual")
    _defaults = {"residual": None}


def conjugacy_verdict(a: CircleZnAction, b: CircleZnAction,
                      witness: ConjugacyWitness | None = None, *,
                      tol: float = 1e-9) -> ConjugacyReport:
    """Decide the decidable conjugacy criteria between two circle actions.

    (n, k) mismatch and inequivalent alpha are decided negatively; a
    supplied witness is checked against the affine-orbit equation
    psi g' psi^{-1} = phi g h^k phi^{-1} on the witness grid, and holds
    only when every residual there is finite and at most tol.  Without a
    witness the affine-orbit condition stays undecided.  An action that is
    not the circle construction (a line action, or a circle action of
    translations only), or a tol that is negative, infinite or NaN, raises
    ValueError.
    """
    if not (isinstance(a, CircleZnAction) and isinstance(b, CircleZnAction)):
        raise ValueError("the conjugacy verdict needs two circle actions")
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be nonnegative and finite")
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
    residuals = []
    for j in range(WITNESS_GRID):
        x = -WITNESS_WINDOW + 2.0 * WITNESS_WINDOW * j / (WITNESS_GRID - 1)
        residuals.append(abs(evaluate(lhs, x, DEFAULT_EPS)
                             - evaluate(rhs, x, DEFAULT_EPS)))
    if not all(map(math.isfinite, residuals)):
        return ConjugacyReport(Verdict.UNDECIDED_NEEDS_WITNESS,
                               "supplied witness gives a non-finite residual")
    worst = max(residuals)
    if worst <= tol:
        return ConjugacyReport(Verdict.CONJUGATE_WITNESSED,
                               "witness satisfies the affine-orbit equation",
                               residual=worst)
    return ConjugacyReport(Verdict.UNDECIDED_NEEDS_WITNESS,
                           "supplied witness fails the affine-orbit equation",
                           residual=worst)
