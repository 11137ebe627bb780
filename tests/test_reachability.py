"""The package holds no function, class, method or property that only tests call.

Every module-level function or class defined in `src/socialgcn/*.py` must
be referred to, as a name or an attribute, somewhere in the package or in
`perfbench/`. Every method or property of a package class must be used as
an attribute there: a bare name does not count, since a local variable can
share a method's name. The package's `__init__.py` is left out, since
re-exporting a name does not use it. `cmd_*` handlers are exempt, as
`cli.main` looks them up by name, and so are dunder methods, which Python
calls.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "socialgcn").glob("*.py") if p.name != "__init__.py")
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SCANNED}


def _uses():
    """(names, attribute names) that the scanned files use."""
    names, attributes = set(), set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unreferenced_names():
    """Sorted module-level function and class names of the package that no scanned file refers to."""
    names, attributes = _uses()
    defined = {
        node.name
        for tree in map(TREES.get, PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return sorted(name for name in defined - names - attributes if not name.startswith("cmd_"))


def unused_methods():
    """Sorted "Class.method" for each non-dunder method or property of a package class that no scanned attribute names."""
    _, attributes = _uses()
    return sorted(
        f"{cls.name}.{node.name}"
        for tree in map(TREES.get, PACKAGE)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes
    )


def test_every_package_function_has_a_caller_outside_tests():
    assert unreferenced_names() == []


def test_every_package_method_has_a_caller_outside_tests():
    assert unused_methods() == []
