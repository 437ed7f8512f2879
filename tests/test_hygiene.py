"""Source hygiene of the package, checked on its syntax trees: every import
is from the standard library or from circledyn itself, sits at module level,
and every imported name is used.  The README's schema table lists every
expression kind."""

import ast
import re
import sys
from pathlib import Path

import circledyn
from circledyn import expr

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
