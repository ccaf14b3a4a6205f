"""The benchmark's traced run wraps functions by name; a name the program no
longer has is skipped there and its metrics read 0, so check them here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
