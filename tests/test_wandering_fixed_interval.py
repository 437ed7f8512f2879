"""The wandering probe's exemption for words that fix the interval
pointwise, on a one-generator action that moves only the cell (0.5, 0.9)."""

from circledyn import ProbeVerdict, ZnAction, wandering_probe
from circledyn.expr import CellHat, Translate

ACTION = ZnAction(n=1, generators=(CellHat(Translate(0.3), (0.5, 0.9)),))


def test_interval_fixed_by_every_word_supports():
    report = wandering_probe(ACTION, (0.1, 0.3), 3)
    assert report.verdict is ProbeVerdict.SUPPORTS
    assert report.coverage == 1.0
    assert report.certificate is None


def test_interval_inside_the_cell_refutes():
    report = wandering_probe(ACTION, (0.4, 0.6), 3)
    assert report.verdict is ProbeVerdict.REFUTES
    assert report.certificate["word"] == [-1]
