"""Source hygiene of the package, checked on its syntax trees: every import
is from the standard library or from circledyn itself, sits at module level,
and every imported name is used.  The README's schema table lists every
expression kind.  Start-up stays light (no dataclasses or typing), and the
value records keep the equality, hashing, immutability, copying and
pickling of frozen dataclasses."""

import ast
import copy
import operator
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circledyn
from circledyn import (CircleZnAction, CochainTable, CocycleTable,
                       ConjugacyReport, ConjugacyWitness, Gl2zMatrix,
                       GroupLaw, Identity, OrbitSample, ProbeReport,
                       ProbeVerdict, RotationEstimate, Translate, Verdict,
                       ZnAction, expr, sqrt_of)

PACKAGE = Path(circledyn.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    """(top-level module or None for a relative import, bound name, line)
    for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield top, alias.asname or top, node.lineno
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            if top == "__future__":
                continue
            for alias in node.names:
                yield top, alias.asname or alias.name, node.lineno


def _all_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _reexported():
    """Names the package's __init__ imports from each of its modules."""
    out: dict[str, set] = {}
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            out.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "expr.py", "rotnum.py"}


def test_imports_are_stdlib_or_circledyn():
    allowed = set(sys.stdlib_module_names) | {"circledyn"}
    bad = [f"{path.name}:{line} imports {top}"
           for path in MODULES
           for top, _, line in _imports(_tree(path))
           if top is not None and top not in allowed]
    assert bad == []


def test_every_imported_name_is_used():
    reexported = _reexported()
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _all_names(tree) | reexported.get(path.stem, set())
        unused += [f"{path.name}:{line} {name}"
                   for _, name, line in _imports(tree) if name not in used]
    assert unused == []


def test_readme_lists_every_expression_kind():
    # the kinds expr_to_jsonable writes, and the load-only kinds that
    # earlier versions wrote
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    table = readme.split("**Expression trees**", 1)[1].split("\n\n**", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(expr._NODE_REGISTRY) | set(expr._LOAD_ONLY_KINDS)


def test_every_import_is_at_module_level():
    nested = []
    for path in MODULES:
        tree = _tree(path)
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert nested == []


# -- start-up and the value records -------------------------------------------

def test_no_module_imports_dataclasses_or_typing():
    # both pull inspect, ast, dis and tokenize into every CLI process
    heavy = [f"{path.name}:{line} imports {top}"
             for path in MODULES
             for top, _, line in _imports(_tree(path))
             if top in ("dataclasses", "typing")]
    assert heavy == []


def test_cli_import_leaves_heavy_modules_unloaded():
    probe = ("import circledyn.cli, sys; print(sorted(m for m in "
             "('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# (class, keyword arguments naming every field in constructor order); the
# record machinery does not look at field types, so the circle action is
# given expression stand-ins whose == compares values
RECORDS = [
    (GroupLaw, dict(identity=0, compose=operator.add, inverse=operator.neg)),
    (CochainTable, dict(degree=1, flavor="inhomogeneous",
                        entries={((0,),): 1})),
    (CocycleTable, dict(elements=(((0,), None),), values={((0,), (0,)): 0})),
    (ZnAction, dict(n=1, generators=(Translate(0.5),), alpha=sqrt_of(2) - 1,
                    space="line")),
    (CircleZnAction, dict(n=1, k=2, base=ZnAction(1, (Translate(0.5),)),
                          g_word=(1,), f=Translate(0.5),
                          generators=(Translate(0.25), Translate(0.5)),
                          marked_angles=(0.0, 0.5), space="circle")),
    (ConjugacyWitness, dict(phi=Identity(), h_word=(0, 1),
                            psi=Translate(1.0))),
    (ConjugacyReport, dict(verdict=Verdict.CONJUGATE_WITNESSED,
                           reason="witness satisfies the affine-orbit "
                                  "equation", residual=0.0)),
    (OrbitSample, dict(points=(0.25, 0.5), radius=1, base_point=0.25)),
    (ProbeReport, dict(verdict=ProbeVerdict.SUPPORTS, coverage=1.0,
                       parameters={"radius": 2}, certificate={"word": [1]})),
    (Gl2zMatrix, dict(m1=1, n1=1, m2=1, n2=0)),
    (RotationEstimate, dict(value=0.25, error_bound=1e-9, iterations=100,
                            base_point=0.0)),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_value_record(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    others = [other(**kw) for other, kw in RECORDS if other is not cls]
    assert all(a != o and o != a for o in others)
    assert a != tuple(fields.values())
    try:
        hash(tuple(fields.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, 0)
    with pytest.raises(AttributeError):
        setattr(a, "unknown", 0)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == fields[name]
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a


def test_records_of_different_classes_differ_on_equal_fields():
    matrix = Gl2zMatrix(1, 1, 1, 0)
    estimate = RotationEstimate(1, 1, 1, 0)
    assert matrix.as_tuple() == (estimate.value, estimate.error_bound,
                                 estimate.iterations, estimate.base_point)
    assert matrix != estimate and estimate != matrix


def test_record_defaults():
    first = ConjugacyWitness(phi=Identity(), h_word=(0, 0))
    second = ConjugacyWitness(phi=Identity(), h_word=(0, 0))
    assert first.psi == Identity() and first.psi is not second.psi
    a, b = ProbeReport(ProbeVerdict.SUPPORTS, 1.0), ProbeReport(
        ProbeVerdict.SUPPORTS, 1.0)
    assert a.parameters == {} and a.parameters is not b.parameters
    assert a.certificate is None
    line = ZnAction(1, (Translate(0.5),))
    assert (line.alpha, line.space) == (None, "line")
    assert ConjugacyReport(Verdict.NOT_CONJUGATE, "r").residual is None
    circle = CircleZnAction(1, 2, line, (1,), None, (), ())
    assert circle.space == "circle"


def test_record_checks_run_with_their_messages():
    with pytest.raises(ValueError, match="generator count must equal n >= 1"):
        ZnAction(2, (Translate(0.5),))
    with pytest.raises(ValueError, match="unknown flavor 'mixed'"):
        CochainTable(1, "mixed", {})
    with pytest.raises(ValueError, match="has arity 2, expected 1"):
        CochainTable(1, "inhomogeneous", {(0, 0): 1})
    with pytest.raises(ValueError, match=r"must be 1, got 2"):
        Gl2zMatrix(2, 0, 0, 1)
