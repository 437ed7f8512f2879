"""`_conjugate_split` peels every end member whose exact translation offset
is an integer: integer `Translate`s, whole-number `Fraction` amounts and
`Identity`.  A float amount stays, even a whole one."""

from fractions import Fraction

from circledyn import (Identity, PiecewiseMonotone, Translate, inverse,
                       project, rotation_number, sine_lift)
from circledyn.expr import Compose
from circledyn.rotnum import _conjugate_split

PSI = PiecewiseMonotone([0.0, 0.3, 0.6], [0.1, 0.5, 0.8], "linear", "periodic")
G = sine_lift(0.37, 0.1)


def test_identity_and_whole_fractions_are_peeled():
    lift = Compose(Identity(), Translate(Fraction(4, 2)), PSI, G, inverse(PSI),
                   Translate(-1), Identity())
    assert _conjugate_split(lift) == (1, PSI, G, inverse(PSI))


def test_float_and_fractional_amounts_stay():
    for end in (Translate(2.0), Translate(Fraction(1, 2))):
        assert _conjugate_split(Compose(end, PSI, G, inverse(PSI)))[1] is None


def test_identity_in_front_iterates_the_same_core():
    f = project(Compose(PSI, G, inverse(PSI)))
    g = project(Compose(Identity(), PSI, G, inverse(PSI)))
    assert g.lift.members[0] == Identity()
    for N in (10**3, 10**4):
        assert rotation_number(g, N, 0.3) == rotation_number(f, N, 0.3)
