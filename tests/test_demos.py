"""Every name a demo imports from fragtail still exists.

The demos are not run here (they take minutes); their import statements are
read from the syntax tree and resolved the way ``from m import n`` does.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def _resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fragtail":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "fragtail"):
            for alias in node.names:
                assert _resolves(node.module, alias.name), \
                    f"{path.name}: from {node.module} import {alias.name}"
