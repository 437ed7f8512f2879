"""The bounded Euler 2-cocycle via the canonical section, cochain tables,
and the coboundary operator on finite tabulations.

The section sigma assigns to each circle homeomorphism f its normalized lift
(value at 0 in [0, 1)), the CircleHomeo.lift that f stores; the cocycle
value on a pair is the constant integer deck transformation relating
sigma(f1) sigma(f2) to sigma(f1 f2).  For orientation-preserving maps it
always lands in {0, 1}; that range is asserted as a tested invariant, not
assumed.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from fractions import Fraction

from ._record import Record
from .circle import CircleHomeo, rotation
from .errors import EulerRangeWarning, MissingFaceError, NonIntegerCocycleError
from .expr import _listed

RESIDUAL_TOL = 1e-6
CONSTANCY_PROBE = 0.37
COBOUNDARY_BUDGET = 200000


def _deck_value(f1: CircleHomeo, f2: CircleHomeo, x: float) -> float:
    composite = f1.compose(f2).lift
    return f1.lift(f2.lift(x)) - composite(x)


def cocycle_value(f1: CircleHomeo, f2: CircleHomeo) -> int:
    """The integer c(f1, f2) with sigma(f1) sigma(f2) = T_c sigma(f1 f2).

    Computed at 0, rounded, and certified: the pre-rounding residual must be
    below 1e-6 and the value must reproduce at a second base point (the deck
    transformation is a constant integer translation).
    """
    v0 = _deck_value(f1, f2, 0.0)
    n = round(v0)
    if abs(v0 - n) > RESIDUAL_TOL:
        raise NonIntegerCocycleError(
            f"deck value {v0!r} is not close to an integer")
    v1 = _deck_value(f1, f2, CONSTANCY_PROBE)
    if abs(v1 - n) > RESIDUAL_TOL:
        raise NonIntegerCocycleError(
            f"deck value drifted from {n} to {v1!r} across base points")
    return n


def cocycle_identity_check(f1: CircleHomeo, f2: CircleHomeo,
                           f3: CircleHomeo) -> int:
    """c(f1,f2) + c(f1 f2, f3) - c(f2,f3) - c(f1, f2 f3); zero for honest lifts."""
    f12 = f1.compose(f2)
    f23 = f2.compose(f3)
    return (cocycle_value(f1, f2) + cocycle_value(f12, f3)
            - cocycle_value(f2, f3) - cocycle_value(f1, f23))


class GroupLaw(Record):
    """Composition law on element identifiers, for flavor conversions:
    the identity element and the callables compose(a, b) and inverse(a)."""

    __slots__ = ("identity", "compose", "inverse")


def cyclic_group_law(k: int) -> GroupLaw:
    return GroupLaw(identity=0, compose=lambda a, b: (a + b) % k,
                    inverse=lambda a: (-a) % k)


def word_group_law(n: int) -> GroupLaw:
    zero = (0,) * n
    return GroupLaw(identity=zero,
                    compose=lambda a, b: tuple(x + y for x, y in zip(a, b)),
                    inverse=lambda a: tuple(-x for x in a))


class CochainTable(Record):
    """Finite tabulation of a k-cochain.

    Homogeneous entries are keyed by (k+1)-tuples of identifiers and satisfy
    c(g*t) = c(t) for tabulated diagonal translates; inhomogeneous entries
    are keyed by k-tuples.
    """

    __slots__ = ("degree", "flavor", "entries")

    def _check(self):
        if self.flavor not in ("homogeneous", "inhomogeneous"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        arity = self.degree + 1 if self.flavor == "homogeneous" else self.degree
        for key in self.entries:
            if len(key) != arity:
                raise ValueError(
                    f"key {key!r} has arity {len(key)}, expected {arity}")

    def universe(self) -> list:
        ids = set()
        for key in self.entries:
            ids.update(key)
        return sorted(ids)

    def value(self, key: tuple):
        try:
            return self.entries[key]
        except KeyError:
            raise MissingFaceError(f"face {key!r} is not tabulated") from None


def _tabulate(ids: list, degree: int, flavor: str, entry) -> CochainTable:
    """The table of that degree and flavor whose value at each tuple of
    the identifiers ids is entry(tuple)."""
    arity = degree + 1 if flavor == "homogeneous" else degree
    tuples = itertools.product(ids, repeat=arity)
    return CochainTable(degree=degree, flavor=flavor,
                        entries={t: entry(t) for t in tuples})


def coboundary(table: CochainTable) -> CochainTable:
    """The alternating-sum coboundary of a homogeneous table, tabulated over
    all (k+2)-tuples of the table's element universe."""
    if table.flavor != "homogeneous":
        raise ValueError("coboundary needs a homogeneous table")
    ids = table.universe()
    k = table.degree
    if len(ids) ** (k + 2) > COBOUNDARY_BUDGET:
        raise ValueError("coboundary tabulation would exceed the budget")
    return _tabulate(ids, k + 1, "homogeneous", lambda t: sum(
        (-1) ** i * table.value(t[:i] + t[i + 1:]) for i in range(k + 2)))


def to_inhomogeneous(table: CochainTable, law: GroupLaw) -> CochainTable:
    """c_bar(g1,...,gk) = c(e, g1, g1 g2, ..., g1...gk), tabulated over
    the universe of the homogeneous table.

    Every product g1...gj must be in that universe, so it must be closed
    under the law, or raises MissingFaceError.  A finite table of Z^n words
    (word_group_law) is not closed: it converts at degree 1 when it holds
    the zero word, and not at higher degrees.
    """
    if table.flavor == "inhomogeneous":
        return table
    return _tabulate(
        table.universe(), table.degree, "inhomogeneous", lambda t: table.value(
            tuple(itertools.accumulate(t, law.compose, initial=law.identity))))


def to_homogeneous(table: CochainTable, law: GroupLaw) -> CochainTable:
    """c(g0,...,gk) = c_bar(g0^{-1} g1, ..., g_{k-1}^{-1} gk), tabulated over
    the universe of the inhomogeneous table.

    Every step g_{i-1}^{-1} g_i must be in that universe, so it must be
    closed under the law, or raises MissingFaceError.  A finite table of
    Z^n words (word_group_law) other than {0} is not closed and never
    converts this way; over such words only to_inhomogeneous at degree 1
    works.
    """
    if table.flavor == "homogeneous":
        return table
    return _tabulate(
        table.universe(), table.degree, "homogeneous", lambda t: table.value(
            tuple(law.compose(law.inverse(a), b) for a, b in zip(t, t[1:]))))


class CocycleTable(Record):
    """The Euler cocycle tabulated over a finite family of circle maps."""

    __slots__ = ("elements", "values")

    def as_jsonable(self) -> dict:
        return {"elements": [_listed(label) for label, _ in self.elements],
                "values": [[_listed(a), _listed(b), c]
                           for (a, b), c in sorted(self.values.items())]}

    def as_cochain(self) -> CochainTable:
        return CochainTable(degree=2, flavor="inhomogeneous",
                            entries=dict(self.values))


def euler_cocycle_table(elements) -> CocycleTable:
    """Tabulate the cocycle over all ordered pairs of the given
    (identifier, CircleHomeo) family; values outside {0, 1} emit
    EulerRangeWarning."""
    elements = tuple(elements)
    values = {}
    for a, fa in elements:
        for b, fb in elements:
            c = cocycle_value(fa, fb)
            if c not in (0, 1):
                warnings.warn(
                    f"cocycle value {c} at {(a, b)!r} falls outside {{0, 1}}",
                    EulerRangeWarning, stacklevel=2)
            values[(a, b)] = c
    return CocycleTable(elements=elements, values=values)


def rational_class_table(k: int, residues) -> CocycleTable:
    """The cocycle of the order-k rotation action for the given residues.

    Built through the section machinery (exact rational lifts), so the
    values can be checked independently against floor((r1 + r2)/k).
    Raises TypeError for a residue that is not an integer.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    residues = [operator.index(r) % k for r in residues]
    elements = tuple((r, rotation(Fraction(r, k))) for r in residues)
    return euler_cocycle_table(elements)
