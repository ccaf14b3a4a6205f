"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_named_metric_with_its_unit(workload, trace):
    code, result, proc = bench("--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke")
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


def copy_bench(tmp_path, with_program=True):
    """The benchmark's files in tmp_path, beside the program's sources."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path / "perfbench" / "expected.json"


@pytest.mark.parametrize("change", ["perturb", "drop"])
def test_a_replay_differing_from_its_record_fails_alone(tmp_path, change):
    expected = copy_bench(tmp_path)
    recorded = json.loads(expected.read_text())
    replays = recorded["replay"]["outputs"]["replays"]
    if change == "perturb":
        first = replays[0]
        first["total_energy"] = math.nextafter(first["total_energy"], math.inf)
    else:
        del replays[0]
    expected.write_text(json.dumps(recorded))
    code, result, proc = bench("--workload", "replay", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code == 1
    assert result["correct"] is False
    # one of each rep's six replays fails; the later ones still match
    assert result["failed"] * 6 == result["attempted"]
    assert "fps30/naive" in proc.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    copy_bench(tmp_path, with_program=False)
    code, result, _ = bench("--workload", "replay", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and result is None
