"""Every name a demo imports from fragtail still exists, and every result
field a demo reads off an ensemble is one.

The demos are not run here (they take minutes); their import statements and
attribute reads are taken from the syntax tree, imports resolved the way
``from m import n`` does.
"""

import ast
import dataclasses
import importlib
import pathlib

import pytest

from fragtail.simulate import EnsembleResult

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


def _is_run_ensemble_call(node):
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
    return name == "run_ensemble"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_ensemble_reads_exist(path):
    # names bound to a run_ensemble(...) call anywhere in the demo; every
    # attribute read off them must be an EnsembleResult field or property
    tree = ast.parse(path.read_text(), filename=str(path))
    ensembles = {target.id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and _is_run_ensemble_call(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
    known = {f.name for f in dataclasses.fields(EnsembleResult)} | {
        name for name, value in vars(EnsembleResult).items()
        if isinstance(value, property)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ensembles):
            assert node.attr in known, \
                f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
