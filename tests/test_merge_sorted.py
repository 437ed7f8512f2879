"""`merge_sorted` compares each value with the last one kept, held in a
local: the same list, bit for bit, as the former sort-and-loop, on
unsorted and sorted input, exact ties, near-ties under the resolution,
resolution 0 and lists of length 0 and 1."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circledyn.circle import merge_sorted  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
RESOLUTIONS = (0.0, 1e-12, 2e-9, 0.25)


def _former_merge(values, resolution):
    kept = []
    for v in sorted(values):
        if kept and v - kept[-1] < resolution:
            continue
        kept.append(v)
    return kept


@st.composite
def value_lists(draw):
    """Floats with exact ties and with neighbours a little below, at and
    above each resolution, in any order."""
    base = draw(st.lists(st.one_of(st.floats(-4.0, 4.0),
                                   st.sampled_from([0.0, -0.0, 1.0, 1e6])),
                         max_size=12))
    offsets = st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 2e-9, 0.25, 0.3])
    values = list(base)
    for v in base:
        if draw(st.booleans()):
            values.append(v + draw(offsets))
    return draw(st.permutations(values))


def _bits(values):
    return [v.hex() for v in values]


@PROPERTY
@given(value_lists())
@example([])
@example([0.5])
@example([-0.0, 0.0])
@example([1.0, 1.0, 1.0])
@example([3.0, 1.0 + 1e-12, 1.0, 2.0])
def test_merge_sorted_matches_the_former_loop(values):
    for resolution in RESOLUTIONS:
        assert (_bits(merge_sorted(values, resolution))
                == _bits(_former_merge(values, resolution)))


@PROPERTY
@given(value_lists())
def test_sorted_input_gives_the_same_merge(values):
    ordered = sorted(values)
    for resolution in RESOLUTIONS:
        assert (_bits(merge_sorted(ordered, resolution))
                == _bits(_former_merge(values, resolution)))


def test_well_separated_input_comes_back_sorted():
    values = [0.3, -1.0, 2.5, 0.3 + 1e-9]
    assert merge_sorted(values, 1e-12) == sorted(values)
    assert merge_sorted(values, 1e-6) == [-1.0, 0.3, 2.5]
