"""The benchmark's traced run wraps functions by name; a name the program no
longer has is skipped there and its metrics read 0, so check them here, and
so does a name the program has but no longer calls, so check that too. Its
rep script calls into the program by name too, so check those as well."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
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


# traced targets that the smoke reps never call, and why each is exempt
UNCALLED = {
    # a one-worker evaluate_batch scores designs through optimize._score, and
    # a pool runs evaluate in its workers, which the tracer does not see
    "optimize.evaluate",
}

# with the benchmark's and the package's directories in argv[1:3], runs each
# workload's smoke rep under one tracer, writing under the directory in
# argv[3], and prints the sorted names of the spans it recorded
TRACED_SMOKE_REPS = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import rep
from tracing import Tracer
tracer = Tracer()
tracer.install()
for name in rep.WORKLOADS:
    workload = rep.Replay if name == "replay" else rep.Search
    workload(name, rep.DEFAULT_SEED, True).run(Path(sys.argv[3]) / name, tracer)
print(json.dumps(sorted({span.name for span in tracer.spans})))
"""


def test_every_benchmark_target_is_called(tmp_path):
    """A separate interpreter, since the tracer patches the modules for good."""
    package_root = Path(importlib.import_module("neuromap").__file__).parents[1]
    proc = subprocess.run([sys.executable, "-B", "-c", TRACED_SMOKE_REPS,
                           str(PERFBENCH), str(package_root), str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    called = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {t for t in _targets() if t not in called} == UNCALLED
