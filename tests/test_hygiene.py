"""Source hygiene of the package, checked on its syntax trees: every import
is from the standard library or from circledyn itself, sits at module level,
and every imported name is used, no module calls exec, eval or compile, and
no module binds a second name to a function, class or constant (the one
alias is probes._word_ball, the benchmark harness's hook), and every
private function has a caller in the library outside its own body.
The README's schema table lists every expression kind.  Start-up stays
light (no dataclasses or typing).  Every class the package defines is a
value record, an expression node, an exception or warning, or an Enum,
apart from two private helpers (cli._JsonObject and quadirr._Parser).  The
value records, circle maps among them, keep the equality, hashing,
immutability, copying and pickling of frozen dataclasses, so circle actions
built twice from the same data compare equal.  Every exception and warning
survives pickling, so it can cross a process boundary."""

import ast
import copy
import enum
import hashlib
import importlib
import operator
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import circledyn
from circledyn import (CfExpansion, CircleHomeo, CircleZnAction,
                       CochainTable, CocycleTable, ConjugacyReport,
                       ConjugacyWitness, Gl2zMatrix, GroupLaw, HomeoExpr,
                       Identity, OrbitSample, ProbeReport, ProbeVerdict,
                       QuadIrrational, RotationEstimate, Translate, Verdict,
                       ZnAction, build_circle_action, cf_expand, expr,
                       mobius_apply, parse_quad_irrational,
                       errors, rational_class_table, rotation)
from circledyn._record import Record
from circledyn.cli import action_from_bundle, action_to_bundle

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


def test_no_module_calls_exec_eval_or_compile():
    # source compiled at run time is never cached in __pycache__
    calls = [f"{path.name}:{node.lineno} calls {node.func.id}"
             for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert calls == []


def test_no_module_level_aliases():
    # one public name per operation; probes._word_ball is the name the
    # benchmark harness times the word ball under
    aliases = [f"{path.name}: {ast.unparse(node)}"
               for path in MODULES for node in _tree(path).body
               if isinstance(node, ast.Assign)
               and isinstance(node.value, (ast.Name, ast.Attribute))]
    assert aliases == ["probes.py: _word_ball = word_ball"]


def _named(node) -> str | None:
    """The name a Name, Attribute, import alias or string node refers to."""
    for field in ("id", "attr", "name", "value"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def test_only_cli_main_delivers_output():
    # the command handlers return (text, exit code), and main writes it
    refs = [f"{path.name}:{node.lineno}" for path in MODULES
            for node in ast.walk(_tree(path))
            if isinstance(node, (ast.Name, ast.Attribute))
            and _named(node) == "_deliver"]
    main = next(node for node in _tree(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = [node for node in ast.walk(main) if isinstance(node, ast.Call)
               and _named(node.func) == "_deliver"]
    assert len(refs) == len(in_main) == 1, refs


def test_only_record_and_cocycle_table_define_as_jsonable():
    # every other record is written from its fields by Record.as_jsonable
    owners = sorted(f"{path.name}:{node.name}" for path in MODULES
                    for node in ast.walk(_tree(path))
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef)
                            and item.name == "as_jsonable"
                            for item in node.body))
    assert owners == ["_record.py:Record", "euler.py:CocycleTable"]


def test_no_module_refers_to_the_private_subparsers_action():
    # build_parser hands each command's parser to _apply_config itself
    refs = [f"{path.name}:{getattr(node, 'lineno', '?')}" for path in MODULES
            for node in ast.walk(_tree(path))
            if "_SubParsersAction" in (_named(node) or "")]
    assert refs == []


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


# (class, keyword arguments naming every field in constructor order)
RECORDS = [
    (CircleHomeo, dict(lift=Translate(Fraction(1, 4)))),
    (GroupLaw, dict(identity=0, compose=operator.add, inverse=operator.neg)),
    (CochainTable, dict(degree=1, flavor="inhomogeneous",
                        entries={((0,),): 1})),
    (CocycleTable, dict(elements=(((0,), None),), values={((0,), (0,)): 0})),
    (ZnAction, dict(n=1, generators=(Translate(0.5),),
                    alpha=QuadIrrational(0, 1, 2) - 1, space="line")),
    (CircleZnAction, dict(n=1, k=2, base=ZnAction(1, (Translate(0.5),)),
                          g_word=(1,), f=rotation(Fraction(1, 2)),
                          generators=(rotation(Fraction(1, 4)),
                                      rotation(Fraction(1, 2))),
                          marked_angles=(0.0, 0.5), space="circle")),
    (ConjugacyWitness, dict(phi=Identity(), h_word=(0, 1),
                            psi=Translate(1.0))),
    (ConjugacyReport, dict(verdict=Verdict.CONJUGATE_WITNESSED,
                           reason="witness satisfies the affine-orbit "
                                  "equation", residual=0.0)),
    (OrbitSample, dict(base_point=0.25, radius=1, points=(0.25, 0.5))),
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


def test_circle_maps_and_actions_built_twice_are_equal():
    # compared by identity, each pair here differed while line actions
    # built twice were equal
    alpha = parse_quad_irrational("sqrt(2)-1")
    action = build_circle_action(alpha, 2, 2, (1, 0))
    pairs = [
        (action, build_circle_action(alpha, 2, 2, (1, 0))),
        (action, action_from_bundle(action_to_bundle(action))),
        (rotation(Fraction(1, 3)), rotation(Fraction(1, 3))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    # a table holds its values in a dict, so it is hashed by its elements
    a, b = rational_class_table(3, range(3)), rational_class_table(3, range(3))
    assert a == b and hash(a.elements) == hash(b.elements)
    assert rotation(Fraction(1, 3)) != rotation(Fraction(2, 3))


def _classes():
    """(module name, class) for every class statement of the package."""
    for path in MODULES:
        module = importlib.import_module(f"circledyn.{path.stem}")
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef):
                yield path.stem, getattr(module, node.name)


def test_every_class_is_a_record_node_error_or_enum():
    # a value class outside the record model compares by identity
    models = (Record, HomeoExpr, Exception, enum.Enum)
    others = sorted(f"{name}.{cls.__qualname__}" for name, cls in _classes()
                    if not issubclass(cls, models))
    assert others == ["cli._JsonObject", "quadirr._Parser"]


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


# the records built by Record's own constructor; CircleHomeo's takes its
# lift as an ordinary parameter, as QuadIrrational's takes its own
BASE_INIT_RECORDS = [(cls, fields) for cls, fields in RECORDS
                     if cls is not CircleHomeo]


@pytest.mark.parametrize("cls, fields", BASE_INIT_RECORDS,
                         ids=[cls.__name__ for cls, _ in BASE_INIT_RECORDS])
def test_record_rejects_bad_fields(cls, fields):
    first, *rest = fields
    values = list(fields.values())
    calls = [
        ((), {name: fields[name] for name in rest}, "missing field"),
        ((), dict(fields, unknown=0), "unknown field 'unknown'"),
        ((values[0],), fields, f"field {first!r} twice"),
        ((*values, 0), {}, "positional"),
    ]
    for make in (cls, cls._trusted):
        for args, kwargs, message in calls:
            with pytest.raises(TypeError, match=message):
                make(*args, **kwargs)


def _irrational_values(seed=1009, count=300) -> list:
    """Seeded irrationals from the constructor, the operators and
    mobius_apply, each followed by its continued fraction expansion."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice([2, 3, 5, 8, 12, 13, 18, 9991])
        x = QuadIrrational(rng.randint(-30, 30), rng.choice([-4, -1, 1, 3, 6]),
                           d, rng.choice([-12, -6, -1, 1, 2, 4, 9]))
        y = QuadIrrational(rng.randint(-30, 30), rng.choice([-4, -1, 1, 2]),
                           d, rng.choice([1, 3, -5]))
        for v in (x, -x, x + y, x * y, x / y, x - rng.randint(-5, 5),
                  mobius_apply(Gl2zMatrix(3, 2, 4, 3), x)):
            if isinstance(v, QuadIrrational):
                out += [v, cf_expand(v)]
    return out


def test_irrationals_keep_their_repr_equality_and_hash():
    values = _irrational_values()
    digest = hashlib.sha256()
    for v in values:
        first = next(i for i, w in enumerate(values) if w == v)
        digest.update(f"{v!r}|{hash(v)}|{first}\n".encode())
    # recorded with the hand-written __eq__, __hash__ and __repr__ these
    # classes had before they were records
    assert (len(values), digest.hexdigest()) == (
        304, "05a3784a43f3c0c4eb8ff5be409901662aeb2c318cee0ef4c532d134e6aec21d")


@pytest.mark.parametrize("value", [QuadIrrational(3, 6, 8, -9),
                                   CfExpansion([1, 2], [3, 3])],
                         ids=lambda v: type(v).__name__)
def test_irrationals_are_frozen_records(value):
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 3
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("cls", sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and c.__module__ == errors.__name__),
    key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    rational = cls is errors.RationalRotationError
    error = cls(1, 2) if rational else cls("message")
    twin = pickle.loads(pickle.dumps(error))
    assert type(twin) is cls and str(twin) == str(error)
    assert twin.args == error.args
    if rational:
        assert (twin.p, twin.q) == (1, 2)


def _references(tree):
    """(name of the module-level statement it sits in or None, referenced
    name) for every name, attribute and imported name of the module."""
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                yield owner, _named(node)


def test_every_private_function_has_a_library_caller():
    # a retired path may not leave its helpers behind; a function that only
    # the tests or its own body call is dead code
    refs = {(path.stem, owner, name) for path in MODULES
            for owner, name in _references(_tree(path))}
    orphans = []
    for path in MODULES:
        for node in _tree(path).body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                others = {(module, owner) for module, owner, name in refs
                          if name == node.name}
                if not others - {(path.stem, node.name)}:
                    orphans.append(f"{path.name}:{node.name}")
    assert orphans == []
