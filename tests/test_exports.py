"""Every public name in the package has a caller in the package or demos.

A public name whose only callers are tests is a second API to keep working.
The first test keeps the functions ``fragtail/__init__`` exports to those
called outside their own module; the second keeps every public module-level
function and class in ``src/fragtail`` to those that ``src/`` or ``demos/``
reference, so test-only code cannot hide behind a public name.
"""

import ast
import inspect
from pathlib import Path

import fragtail

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fragtail"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _names_used(path):
    """Names read in a file, as bare names or as attributes."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_exported_function_has_a_caller_outside_its_module():
    used = {path: _names_used(path) for path in SOURCES
            if path != PACKAGE / "__init__.py"}
    exported = {name: obj for name, obj in vars(fragtail).items()
                if inspect.isfunction(obj)
                and obj.__module__.startswith("fragtail.")}
    assert exported  # the package does export functions
    orphans = []
    for name, obj in sorted(exported.items()):
        home = PACKAGE / (obj.__module__.split(".")[-1] + ".py")
        if not any(name in names for path, names in used.items()
                   if path != home):
            orphans.append(f"{obj.__module__}.{name}")
    assert not orphans, f"exported, no caller outside its module: {orphans}"


def _public_definitions(path):
    """Module-level functions and classes a file defines without a leading
    underscore."""
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_is_referenced_outside_the_tests():
    # a re-export in __init__ is an import, not a reference
    used = set().union(*(_names_used(path) for path in SOURCES))
    unreferenced = [f"{path.stem}.{name}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    for name in _public_definitions(path)
                    if name not in used]
    assert not unreferenced, (
        f"public, referenced only from tests: {unreferenced}")
