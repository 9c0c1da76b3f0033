"""The names the benchmark in ``perfbench/`` hard-codes still resolve in the package.

``perfbench/run.py --trace 1`` imports the layer modules, wraps the
methods listed in ``tracer.METHODS`` and reads the solvers' ``iters``
defaults, and the worker calls ``run_suite`` with a ``jobs`` keyword; a
cleanup that removes or renames one of them breaks the benchmark, not any
suite.  Each workload's suite must also give the report rows that
``perfbench/workloads.py`` pins, or every benchmark pass counts as lost.
The perfbench files are read as source (never imported), so this test
leaves them as they are.
"""

import ast
import hashlib
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


def _suite_calls() -> list:
    """The worker's calls of ``suite.<name>(...)``, as AST nodes."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "suite"]


def test_suite_calls_match_the_suite_signatures():
    calls = _suite_calls()
    assert "run_suite" in {call.func.attr for call in calls}
    for call in calls:
        sig = inspect.signature(getattr(suite, call.func.attr))
        sig.bind(*call.args, **{kw.arg: None for kw in call.keywords})
    assert "jobs" in inspect.signature(suite.run_suite).parameters


def _workloads() -> list:
    """The fields of each ``Workload(...)`` in perfbench/workloads.py, by name."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    cls, = [node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Workload"]
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    return [dict(zip(fields, map(ast.literal_eval, node.args))) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Workload"]


WORKLOADS = _workloads()
SUITE_RUNS = sorted({(w["suite"], w["seed"]) for w in WORKLOADS})

# sha256 of report.json for the config-file workloads, at their seeds.
CONFIG_DIGESTS = {
    ("classical-exhaustive.json", 0):
        "d367d82b19b5e3c32f2ae212048ad2dfa10736959899eca052767753b4a1f0b0",
    ("small-state-mix.json", 3):
        "9386cc8418ef6a221fbc87a8a6979bfecb2f9a51e5948531cd6302d7b2850894",
}


def test_every_pinned_config_is_a_workload():
    assert len(WORKLOADS) >= 4 and set(CONFIG_DIGESTS) <= set(SUITE_RUNS)


@pytest.mark.parametrize("name,seed", SUITE_RUNS)
def test_workload_suites_give_the_pinned_rows(name, seed):
    config = str(PERFBENCH / "configs" / name) if name.endswith(".json") else name
    result = suite.run_suite(suite.load_config(config), seed=seed)
    assert result.all_pass
    for w in WORKLOADS:
        if (w["suite"], w["seed"]) == (name, seed):
            assert len(result.reports) == w["rows"], w["name"]
    if (name, seed) in CONFIG_DIGESTS:
        digest = hashlib.sha256(suite.render_json(result).encode()).hexdigest()
        assert digest == CONFIG_DIGESTS[name, seed]
