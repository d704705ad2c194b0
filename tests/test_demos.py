"""Every name a demo imports from fragtail still exists, every result
field a demo reads off an ensemble is one, and the quick demos run.

Demos 01 and 02 (about a second each) run end to end in a subprocess.
The simulation demos 03 and 04 take about 10 s each, so they are checked
from the syntax tree only: their import statements and attribute reads,
imports resolved the way ``from m import n`` does.
"""

import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from fragtail.simulate import EnsembleResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("name", ["01_laplace_exponents.py",
                                  "02_tail_shapes.py"])
def test_quick_demo_runs(name):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
