"""The package holds no module-level function or class that only tests call.

Every such name defined in `src/socialgcn/*.py` must be referred to, as a
name or an attribute, somewhere in the package or in `perfbench/`. The
package's `__init__.py` is left out, since re-exporting a name does not use
it. `cmd_*` handlers are exempt: `cli.main` looks them up by name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unreferenced_names():
    """Sorted module-level function and class names of the package that no scanned file refers to."""
    package = sorted(p for p in (ROOT / "src" / "socialgcn").glob("*.py") if p.name != "__init__.py")
    defined, used = set(), set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path in package:
            defined.update(
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in defined - used if not name.startswith("cmd_"))


def test_every_package_function_has_a_caller_outside_tests():
    assert unreferenced_names() == []
