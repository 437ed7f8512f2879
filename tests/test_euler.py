"""Euler cocycle values, cochain tables, coboundaries, flavor conversions."""

import random

import pytest

from circledyn import (CochainTable, Compose, Translate, coboundary,
                       cocycle_identity_check, cocycle_value,
                       cyclic_group_law, euler_cocycle_table, evaluate,
                       identity_circle, project, rational_class_table,
                       rotation, sigma_section, sine_lift, to_homogeneous,
                       to_inhomogeneous, word_group_law)
from circledyn.errors import MissingFaceError


def test_sigma_section_rotation():
    s = sigma_section(rotation(0.3))
    assert evaluate(s, 0.0, 1e-12) == pytest.approx(0.3, abs=1e-15)
    s = sigma_section(identity_circle())
    assert evaluate(s, 0.0, 1e-12) == 0.0


def test_sigma_section_normalizes():
    # lift x + 1.7 + 0.1 sin(2 pi x) has sigma value 0.7 at the base point
    s = sigma_section(project(sine_lift(1.7, 0.1)))
    assert evaluate(s, 0.0, 1e-12) == pytest.approx(0.7, abs=1e-12)
    assert 0.0 <= evaluate(s, 0.0, 1e-12) < 1.0


def test_cocycle_values_on_rotations():
    assert cocycle_value(rotation(0.6), rotation(0.6)) == 1
    assert cocycle_value(rotation(0.2), rotation(0.3)) == 0


def test_cocycle_identity_element():
    for f in (rotation(0.37), project(sine_lift(0.52, 0.07))):
        assert cocycle_value(identity_circle(), f) == 0
        assert cocycle_value(f, identity_circle()) == 0


def test_cocycle_identity_residual_zero():
    rng = random.Random(314)
    for _ in range(100):
        fs = [project(sine_lift(rng.random(), rng.uniform(0.0, 0.12)))
              for _ in range(3)]
        assert cocycle_identity_check(*fs) == 0


def test_cocycle_bounded_on_random_pairs():
    rng = random.Random(2718)
    for _ in range(1000):
        f1 = rotation(rng.random())
        f2 = rotation(rng.random())
        assert cocycle_value(f1, f2) in (0, 1)
    for _ in range(100):
        f1 = project(sine_lift(rng.random(), rng.uniform(0.0, 0.12)))
        f2 = project(sine_lift(rng.random(), rng.uniform(0.0, 0.12)))
        assert cocycle_value(f1, f2) in (0, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_rational_tables_match_floor_formula(k):
    table = rational_class_table(k, range(k))
    for (r1, r2), v in table.values.items():
        assert v == (r1 + r2) // k


def test_rational_table_examples():
    t3 = rational_class_table(3, [0, 1, 2])
    assert t3.values[(1, 2)] == 1
    assert t3.values[(1, 1)] == 0
    t2 = rational_class_table(2, [0, 1])
    assert t2.values[(1, 1)] == 1
    t1 = rational_class_table(1, [0])
    assert all(v == 0 for v in t1.values.values())


def test_coboundary_of_constant_zero_cochain():
    c = CochainTable(degree=0, flavor="homogeneous",
                     entries={(g,): 1 for g in range(3)})
    d = coboundary(c)
    assert all(v == 0 for v in d.entries.values())


def test_coboundary_squared_is_zero():
    rng = random.Random(7)
    c = CochainTable(degree=0, flavor="homogeneous",
                     entries={(g,): rng.randint(-5, 5) for g in range(4)})
    dd = coboundary(coboundary(c))
    assert all(v == 0 for v in dd.entries.values())


def test_euler_homogeneous_table_is_cocycle():
    # Euler table over the rotations of order 3, homogenized, killed by d
    law = cyclic_group_law(3)
    table = rational_class_table(3, range(3))
    hom = to_homogeneous(table.as_cochain(), law)
    assert len(hom.entries) == 27
    d = coboundary(hom)
    assert len(d.entries) == 81
    assert all(v == 0 for v in d.entries.values())


def test_flavor_roundtrip():
    law = cyclic_group_law(5)
    table = rational_class_table(5, range(5)).as_cochain()
    hom = to_homogeneous(table, law)
    back = to_inhomogeneous(hom, law)
    assert back.entries == table.entries
    # homogeneity: c(g + t) = c(t) for every translate
    for (a, b, c), v in hom.entries.items():
        for g in range(5):
            assert hom.entries[((a + g) % 5, (b + g) % 5, (c + g) % 5)] == v


def test_broken_lift_detected():
    # a non-lift smuggled past normalization is rejected when the composite
    # lift is normalized (commutation check at composition time)
    from circledyn import Affine, CircleHomeo
    from circledyn.errors import NotALiftError
    fake = CircleHomeo(Affine(2.0, 0.0), _normalized=True)
    with pytest.raises(NotALiftError):
        cocycle_value(fake, fake)


def test_out_of_range_value_warns():
    # a denormalized section (value at 0 outside [0,1)) yields an integer
    # deck value outside {0,1}; the table builder diagnoses it instead of
    # clamping
    from circledyn import CircleHomeo
    from circledyn.errors import EulerRangeWarning
    denormalized = CircleHomeo(Translate(2.3), _normalized=True)
    with pytest.warns(EulerRangeWarning):
        euler_cocycle_table([("a", denormalized), ("b", denormalized)])


def test_missing_face_detected():
    c = CochainTable(degree=1, flavor="homogeneous",
                     entries={(0, 1): 2, (1, 0): -2, (0, 0): 0})
    with pytest.raises(MissingFaceError):
        coboundary(c)


def test_conjugated_tables_differ_by_lift_discrepancy_coboundary():
    # two finite families related by a fixed conjugating circle map: the
    # cocycle tables differ by the inhomogeneous coboundary of the integer
    # 1-cochain measuring the lift discrepancy between sigma(c g c^{-1})
    # and C sigma(g) C^{-1}.  Generic angles keep every section value away
    # from the [0,1) boundary, where the floor is ill-conditioned.
    from circledyn import PiecewiseMonotone, inverse as expr_inverse

    angles = [0.21, 0.37, 0.52]
    conj = project(PiecewiseMonotone(
        [0.0, 0.2, 0.55, 0.9], [0.0, 0.31, 0.6, 0.93], "linear", "periodic"))
    C = conj.lift
    C_inv = expr_inverse(C)

    def discrepancy(g):
        direct = conj.compose(g).compose(conj.inverse()).lift
        routed = Compose(C, Compose(g.lift, C_inv))
        delta = evaluate(routed, 0.25, 1e-12) - evaluate(direct, 0.25, 1e-12)
        n = round(delta)
        assert abs(delta - n) < 1e-9
        return n

    for a in angles:
        for b in angles:
            fa, fb = rotation(a), rotation(b)
            fab = fa.compose(fb)
            lhs = (cocycle_value(fa, fb)
                   - cocycle_value(conj.compose(fa).compose(conj.inverse()),
                                   conj.compose(fb).compose(conj.inverse())))
            rhs = discrepancy(fa) - discrepancy(fab) + discrepancy(fb)
            assert lhs == rhs, (a, b)


def test_flavor_conversions_over_z2_words():
    law = word_group_law(2)
    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    assert law.compose((1, -2), law.inverse((1, -2))) == law.identity == (0, 0)
    # a diagonal-invariant 1-cochain c(g0, g1) = phi(g1 - g0) over the box
    phi = {g: 3 * g[0] - g[1] for g in [(a, b) for a in range(-4, 5)
                                        for b in range(-4, 5)]}
    hom = CochainTable(degree=1, flavor="homogeneous", entries={
        (g0, g1): phi[law.compose(law.inverse(g0), g1)]
        for g0 in box for g1 in box})
    inhom = to_inhomogeneous(hom, law)
    assert inhom.entries == {(g,): phi[g] for g in box}
    # a table already in the target flavor comes back as it is
    assert to_inhomogeneous(inhom, law) is inhom
    assert to_homogeneous(hom, law) is hom
    # the box is not closed under the law, so the way back needs faces
    # g0^-1 g1 outside it, and says which one is missing
    with pytest.raises(MissingFaceError, match="not tabulated"):
        to_homogeneous(inhom, law)
