"""neuromap benchmark: desk-search, toy-search and replay.

    python3 perfbench/run.py --workload desk-search --seed 1 --seconds 30 --trace 0

Runs reps of one workload, each in a fresh interpreter (``rep.py``), until
``--seconds`` of reps have run, then checks every rep's outputs and prints
one JSON line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced reps (interleaved with untraced ones) with ``--trace 1``.
Exits 1 when an output check fails, 2 when the benchmark cannot run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import DEFAULT_SEED, WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 15      # set-up-only interpreters per run, besides the reps
OVERRUN = 1.25          # no rep starts that would end past OVERRUN x seconds
HARD_LIMIT_S = 150.0    # no rep starts that would end past this
REP_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(args, tmp: Path, trace: int, setup_only: bool = False,
          deadline: float = REP_TIMEOUT_S) -> dict:
    """Run one rep in a fresh interpreter and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--smoke", str(int(args.smoke)), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"rep exceeded {deadline:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"rep exited {proc.returncode}:\n{err.strip()}")
    return json.loads(lines[-1])


def run_reps(args, base: Path) -> tuple[list[float], list[dict]]:
    """(set-up samples, reps); each rep tagged with 'traced'."""
    t0 = time.monotonic()
    setups = []
    if not args.smoke and not args.trace:
        for i in range(SETUP_SAMPLES):
            setups.append(spawn(args, base / f"setup{i}", 0, True)["setup_s"])
    kinds = [0, 1] if args.trace else [0]
    reps = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - t0
        done_kinds = {r["traced"] for r in reps}
        need = len(done_kinds) < len(kinds)
        if not need and (args.smoke or elapsed >= args.seconds
                         or elapsed + last > args.seconds * OVERRUN):
            break
        if elapsed + last > HARD_LIMIT_S:
            if need:
                raise BenchError("no time left for a traced rep")
            break
        trace = kinds[len(reps) % len(kinds)]
        start = time.monotonic()
        rec = spawn(args, base / f"rep{len(reps)}", trace,
                    deadline=REP_TIMEOUT_S - elapsed)
        last = time.monotonic() - start
        rec["traced"] = trace
        reps.append(rec)
        if not trace:
            setups.append(rec["setup_s"])
    return setups, reps


def compare(label: str, got, want, problems: list[str]) -> bool:
    if got == want:
        return True
    problems.append(f"{label}: got {got!r}, recorded {want!r}")
    return False


def by_label(replays) -> dict:
    return {r["replay"]: r for r in replays or []}


def replay_failures(rep: dict, references: list[dict]) -> int:
    """Replays of one rep that failed: its own checks, or an entry missing
    from or differing from a reference entry with the same label."""
    got = by_label(rep["outputs"].get("replays"))
    bad = set(rep["failed_ops"])
    for ref in references:
        bad |= {label for label in got.keys() | ref.keys()
                if got.get(label) != ref.get(label)}
    return len(bad)


def check_reps(args, reps: list[dict], expected: dict | None) -> list[str]:
    """Problems found; each failed check also counts its rep's ops failed."""
    problems = []
    first_counts: dict = {}
    references = [by_label(reps[0]["outputs"].get("replays"))]
    if expected is not None:
        references.append(by_label(expected["outputs"].get("replays")))
    for i, rep in enumerate(reps):
        rep_problems = [f"rep {i}: {p}" for p in rep["problems"]]
        compare(f"rep {i} outputs differ from rep 0", rep["outputs"],
                reps[0]["outputs"], rep_problems)
        for key, value in rep["counts"].items():
            first = first_counts.setdefault(key, value)
            compare(f"rep {i} count {key} differs from rep 0", value, first,
                    rep_problems)
        if expected is not None:
            for key, want in expected["counts"].items():
                if key in rep["counts"]:
                    compare(f"rep {i} count {key}", rep["counts"][key], want,
                            rep_problems)
            for key, want in expected["outputs"].items():
                got = rep["outputs"].get(key)
                if key == "replays":
                    got, want = by_label(got), by_label(want)
                    for label in sorted(got.keys() | want.keys()):
                        compare(f"rep {i} {label}", got.get(label),
                                want.get(label), rep_problems)
                else:
                    compare(f"rep {i} {key}", got, want, rep_problems)
        if args.workload == "replay":  # one operation per replay
            rep["failed"] = replay_failures(rep, references)
        if rep_problems and (args.workload != "replay" or not rep["failed"]):
            # a search's outputs, and any count, belong to the whole rep
            rep["failed"] = rep["attempted"]
        problems += rep_problems
    return problems


def end_to_end(setups: list[float], reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in plain),
        "evals_per_s": med(r["attempted"] / r["wall_s"] for r in plain),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        "setup_s": med(setups),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def record_expected(args, reps: list[dict]) -> None:
    """Store rep 0's outputs and exact counts as the recorded values."""
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    counts = {}
    for rep in reps:
        counts.update(rep["counts"])
    data[args.workload] = {"seed": args.seed, "outputs": reps[0]["outputs"],
                           "counts": counts}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def report(args, metrics: dict, units: dict, attempted: int, failed: int,
           problems: list[str]) -> None:
    """Human-readable table on stderr; 'n/a' marks a layer off this path."""
    w = sys.stderr.write
    w(f"# {args.workload} seed={args.seed} trace={args.trace} "
      f"attempted={attempted} failed={failed} "
      f"failed_ratio={failed / max(attempted, 1):.4g}\n")
    for name, value in metrics.items():
        shown = "n/a" if args.trace and value == 0 else f"{value:.6g}"
        w(f"  {name:36s} {shown:>14s} {units[name]}\n")
    for p in problems[:20]:
        w(f"  CHECK FAILED: {p}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one shortened rep (and one traced rep), no recorded check")
    p.add_argument("--record", action="store_true",
                   help="store this run's outputs as the recorded ones")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "neuromap" / "__init__.py").is_file():
        print(f"perfbench: no neuromap sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups, reps = run_reps(args, base)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    expected = None
    if args.seed == DEFAULT_SEED and not args.smoke and not args.record:
        recorded = json.loads(EXPECTED.read_text()).get(args.workload)
        if recorded is None:
            print(f"perfbench: nothing recorded for {args.workload} in "
                  f"{EXPECTED}", file=sys.stderr)
            return 2
        expected = recorded
    problems = check_reps(args, reps, expected)
    if args.record:
        if problems or args.seed != DEFAULT_SEED or args.smoke or not args.trace:
            print("perfbench: --record needs a clean traced run on the default "
                  "seed", file=sys.stderr)
            return 2
        record_expected(args, reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    measured = per_layer(reps) if args.trace else end_to_end(setups, reps)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: measured[name] for name in units}
    correct = not problems and failed == 0
    report(args, metrics, units, attempted, failed, problems)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
