"""The names the benchmark in ``perfbench/`` hard-codes still resolve in the package.

``perfbench/run.py --trace 1`` imports the layer modules, wraps the
methods listed in ``tracer.METHODS`` and reads the solvers' ``iters``
defaults, and the worker calls ``run_suite`` with a ``jobs`` keyword; a
cleanup that removes or renames one of them breaks the benchmark, not any
suite.  The perfbench files are read as source (never imported), so this
test leaves them as they are.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from extraction_lab.harness import suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _constant(file: str, name: str):
    """The literal value bound to module-level ``name`` in perfbench/``file``."""
    tree = ast.parse((PERFBENCH / file).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{file} no longer binds {name}")


def _module(layer: str):
    return importlib.import_module(f"extraction_lab.{layer}")


def _public_function(layer: str, fname: str):
    fn = getattr(_module(layer), fname, None)
    assert inspect.isfunction(fn) and not fname.startswith("_"), f"{layer}.{fname}"
    assert fn.__module__ == _module(layer).__name__, f"{layer}.{fname} is not defined there"
    return fn


def test_traced_layers_import():
    for layer in _constant("tracer.py", "LAYER_MODULES"):
        _module(layer)


@pytest.mark.parametrize("layer,cls_name,meth", _constant("tracer.py", "METHODS"))
def test_traced_methods_are_the_classes_own(layer, cls_name, meth):
    cls = getattr(_module(layer), cls_name)
    assert meth in cls.__dict__, f"{cls_name}.{meth} is inherited or gone"


def test_family_builders_and_solvers_are_public_functions():
    for name in _constant("layers.py", "FAMILY_BUILDERS"):
        _public_function(*name.rsplit(".", 1))
    for fname in _constant("tracer.py", "SOLVERS"):
        assert "iters" in inspect.signature(_public_function("entropies", fname)).parameters


def test_suite_calls_match_the_suite_signatures():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "suite"]
    assert "run_suite" in {call.func.attr for call in calls}
    for call in calls:
        sig = inspect.signature(getattr(suite, call.func.attr))
        sig.bind(*call.args, **{kw.arg: None for kw in call.keywords})
    assert "jobs" in inspect.signature(suite.run_suite).parameters
