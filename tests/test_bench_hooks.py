"""The names the benchmark's traced runs wrap or read still resolve in
circledyn: a rename would break the traced wordball run, not a test.  The
benchmark's lists are read from the literals in `perfbench/tracing.py`,
which is neither run nor edited here."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names() -> dict:
    """The module-level tuples of tracing.py, by name."""
    tree = ast.parse(TRACING.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)}


def _module(name):
    return importlib.import_module(f"circledyn.{name}")


TRACED = _traced_names()


@pytest.mark.parametrize("module,function",
                         TRACED["COUNTED"] + TRACED["SPANNED"])
def test_wrapped_function_resolves(module, function):
    assert callable(getattr(_module(module), function))


@pytest.mark.parametrize("module,cls,method", TRACED["SPANNED_METHODS"])
def test_wrapped_method_resolves(module, cls, method):
    assert callable(getattr(getattr(_module(module), cls), method))


def test_traced_modules_import():
    for name in TRACED["MODULES"]:
        _module(name)


def test_word_ball_enumerator_resolves():
    # the traced wordball run times this enumerator over each case's ball
    enumerate_ball = _module("probes")._word_ball
    assert list(enumerate_ball(2, 1))[:2] == [(0, 0), (-1, -1)]
