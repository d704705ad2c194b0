"""Every function the package exports is called outside its own module.

A public name whose only callers are tests is a second API to keep working;
this test keeps ``fragtail/__init__`` to what the package and its demos use.
Classes and the error types are exempt.
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
