"""The benchmark's traced run wraps functions by name; a name the program no
longer has is skipped there and its metrics read 0, so check them here. Its
rep script calls into the program by name too, so check those as well."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
REP = PERFBENCH / "rep.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("target", _targets())
def test_benchmark_target_resolves(target):
    mod_name, _, path = target.partition(".")
    obj = importlib.import_module(f"neuromap.{mod_name}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"neuromap.{target} does not exist"
        obj = getattr(obj, attr)
    assert callable(obj)


def _rep_references():
    """Sorted "<module>.<attr>" names that rep.py uses from neuromap: the
    names it imports from a neuromap module and the attributes it reads
    off a module imported from the neuromap package."""
    tree = ast.parse(REP.read_text())
    modules, refs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "neuromap":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("neuromap."):
            mod = node.module.removeprefix("neuromap.")
            refs.update(f"{mod}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.add(f"{node.value.id}.{node.attr}")
    return sorted(refs)


@pytest.mark.parametrize("ref", _rep_references())
def test_benchmark_rep_reference_resolves(ref):
    mod_name, _, attr = ref.partition(".")
    mod = importlib.import_module(f"neuromap.{mod_name}")
    assert hasattr(mod, attr), f"neuromap.{ref} does not exist"
