"""`orbit` skips its merge on a closed-form line ball whose top cell is
spaced mod 1 (`probes._spaced`), and returns the same floats: its points
equal the sorted ball merged, bit for bit, whether the merge runs or not,
on the line construction, on translation-only line actions of either head
and on balls whose points come within DEDUP_RESOLUTION, or within a few
ulps of it."""

import random

import pytest

from circledyn import Translate, ZnAction, build_line_action, orbit
from circledyn import probes
from circledyn.circle import merge_sorted
from circledyn.probes import DEDUP_RESOLUTION, _sorted_values
from test_sorted_ball import ALPHA, BASE_POINTS, LEVELS

A = float(ALPHA)

#: translation-only line actions: unit heads, which take the residue check,
#: heads of another shift, which always merge, rank 1, and translations
#: whose points come within DEDUP_RESOLUTION or just clear of it
TRANSLATIONS = {
    "unit, alpha": (Translate(1), Translate(ALPHA.value(1e-18))),
    "unit, alpha, alpha^2": (Translate(1), Translate(A), Translate(A * A)),
    "half, alpha": (Translate(0.5), Translate(A)),
    "half, alpha, 1": (Translate(0.5), Translate(A), Translate(1)),
    "unit": (Translate(1),),
    "half": (Translate(0.5),),
    "unit, 1e-13": (Translate(1), Translate(1e-13)),
    "unit, 1e-12": (Translate(1), Translate(1e-12)),
    "unit, 2e-12": (Translate(1), Translate(2e-12)),
    "unit, 1 - 1e-12": (Translate(1), Translate(1 - 1e-12)),
    "unit, 1/3": (Translate(1), Translate(1 / 3)),
    # at radius 1 the residues x - a and x + a are 1e-13 apart across 0
    "unit, 1/2 - 5e-14": (Translate(1), Translate(0.5 - 5e-14)),
}

#: walls and their neighbours, signed zeros and tiny points, the middle of
#: the cell and points whose ulp is far above DEDUP_RESOLUTION
EXTRA_POINTS = (0.5, -0.5, 1e-17, -1e-17, 1e15, -1e15, 1e15 + 0.5,
                1 + 2.0**-52, 1 - 2.0**-53, 0.37)


def _same_points(action, x0, radius):
    want = merge_sorted(_sorted_values(action.generators, float(x0), radius),
                        DEDUP_RESOLUTION)
    got = orbit(action, x0, radius).points
    assert list(map(float.hex, got)) == list(map(float.hex, want)), x0


@pytest.mark.parametrize("n,radius", LEVELS)
def test_line_construction_points_are_the_merged_ball(n, radius):
    action = build_line_action(ALPHA, n)
    rng = random.Random(f"spaced orbit {n}")
    seeded = tuple(rng.uniform(-3.0, 3.0) for _ in range(12))
    for x0 in BASE_POINTS + EXTRA_POINTS + seeded:
        _same_points(action, x0, radius)


@pytest.mark.parametrize("name", sorted(TRANSLATIONS))
@pytest.mark.parametrize("radius", [0, 1, 5])
def test_translation_points_are_the_merged_ball(name, radius):
    gens = TRANSLATIONS[name]
    action = ZnAction(n=len(gens), generators=gens)
    rng = random.Random(f"spaced translations {name}")
    seeded = tuple(rng.uniform(-3.0, 3.0) for _ in range(6))
    for x0 in BASE_POINTS + EXTRA_POINTS + seeded:
        _same_points(action, x0, radius)


def _merges(monkeypatch, action, x0, radius) -> bool:
    """Whether orbit calls merge_sorted on this ball."""
    calls = []
    merge = probes.merge_sorted

    def spy(values, resolution):
        calls.append(len(values))
        return merge(values, resolution)

    monkeypatch.setattr(probes, "merge_sorted", spy)
    orbit(action, x0, radius)
    monkeypatch.setattr(probes, "merge_sorted", merge)
    return bool(calls)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spaced_ball_skips_the_merge(n, monkeypatch):
    assert not _merges(monkeypatch, build_line_action(ALPHA, n), 0.37, 5)


@pytest.mark.parametrize("action,x0", [
    # n = 4 at the middle of the cell: its cell holds repeated points
    (build_line_action(ALPHA, 4), 0.5),
    # a wall is fixed by every cell transplant
    (build_line_action(ALPHA, 3), 2.0),
    (build_line_action(ALPHA, 4), 2.0),
    # a head of another shift, and points closer than the resolution
    (ZnAction(n=2, generators=TRANSLATIONS["half, alpha"]), 0.37),
    (ZnAction(n=2, generators=TRANSLATIONS["unit, 1e-13"]), 0.37),
    (ZnAction(n=2, generators=TRANSLATIONS["unit, 1/2 - 5e-14"]), 0.37),
    # gaps of 2e-12 that the points' ulps at 1e15 swamp
    (ZnAction(n=2, generators=TRANSLATIONS["unit, 2e-12"]), 1e15),
])
def test_close_ball_is_merged(action, x0, monkeypatch):
    assert _merges(monkeypatch, action, x0, 5)


def test_spaced_translations_skip_the_merge(monkeypatch):
    for name in ("unit, alpha", "unit, 2e-12", "unit"):
        gens = TRANSLATIONS[name]
        action = ZnAction(n=len(gens), generators=gens)
        assert not _merges(monkeypatch, action, 0.37, 5), name
