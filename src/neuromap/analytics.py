"""Experiment bookkeeping: run directories, evaluation logs, reports.

Directory layout per optimization run:

    <root>/<app>_app/<ALGO>_<seed>_<stamp>/
        evaluations.csv                  one row per evaluation, appended
                                         once per generation
        Energy/<stamp>_<idx>/            simulator snapshots for flagged evals
        Latency/<stamp>_<idx>/
        <ALGO>_sum_<stamp>/
            algo.prm  sim.prm            parameter echoes, written first
            energyOpt.csv  latOpt.csv    running best per generation
            plot_cores  plot_interconnect  pareto.csv  plot_relative_energy

plus a master index at <root>/index.csv. Timestamps appear only in
directory names and evaluations.csv; the Opt CSVs and every report file
carry none, so identical (seed, config) runs produce byte-identical
optimization traces. All files are plain CSV (or key = value echoes).
"""

from __future__ import annotations

import csv
import shutil
import time
from dataclasses import dataclass, field
from datetime import datetime
from functools import reduce
from operator import add
from pathlib import Path

from .configio import dataclass_block, format_blocks
from .optimize import AlgoParams, EvalResult, dominance, simulate_genome
from .simcost import HardwareConfig, write_run_files

SNAPSHOT_POLICIES = ("all", "bests", "sampled")

EVAL_FIXED_COLUMNS = ("eval_index", "generation", "timestamp", "violation",
                      "energy", "latency", "area", "fidelity_penalty",
                      "n_cores", "mesh_rows", "mesh_cols", "error")


class AnalyticsError(ValueError):
    pass


def _stamp(when: datetime | None = None) -> str:
    """Fig-5 style timestamp with ':' swapped for '-' (portable paths)."""
    when = when or datetime.now()
    return when.strftime("%Y_%m_%d_%H-%M-%S")


def _fmt(value: float) -> str:
    return repr(float(value))


@dataclass
class ExperimentRecord:
    """Single open run directory; the one writer for its lifetime."""

    app: str
    algo: str
    seed: int
    root: Path
    run_dir: Path
    sum_dir: Path
    gene_names: tuple[str, ...]
    policy: str = "bests"
    sample_every: int = 10
    eval_index: int = 0
    generation: int = 0
    best_energy: EvalResult | None = None
    best_latency: EvalResult | None = None
    last_timestamp: float = 0.0
    closed: bool = False
    _opt_headers_written: bool = field(default=False, repr=False)
    # id(result) -> (result, its row cells after the timestamp); the result
    # is held so its id is not reused
    _cells: dict = field(default_factory=dict, repr=False)

    @property
    def evaluations_path(self) -> Path:
        return self.run_dir / "evaluations.csv"

    @property
    def energy_opt_path(self) -> Path:
        return self.sum_dir / "energyOpt.csv"

    @property
    def latency_opt_path(self) -> Path:
        return self.sum_dir / "latOpt.csv"


def open_run(root, app: str, algo: str, seed: int, params: AlgoParams,
             hw: HardwareConfig, run_settings: dict | None = None,
             gene_names=(), policy: str = "bests", sample_every: int = 10,
             when: datetime | None = None) -> ExperimentRecord:
    """Create the run directory tree and write the parameter echoes."""
    if policy not in SNAPSHOT_POLICIES:
        raise AnalyticsError(f"snapshot policy must be one of {SNAPSHOT_POLICIES}")
    if sample_every < 1:
        raise AnalyticsError("sample_every must be >= 1")
    root = Path(root)
    stamp = _stamp(when)
    algo_tag = algo.upper()
    run_dir = root / f"{app}_app" / f"{algo_tag}_{seed}_{stamp}"
    if run_dir.exists():
        raise AnalyticsError(f"run directory already exists: {run_dir}")
    sum_dir = run_dir / f"{algo_tag}_sum_{stamp}"
    for d in (sum_dir, run_dir / "Energy", run_dir / "Latency"):
        d.mkdir(parents=True)

    (sum_dir / "algo.prm").write_text(
        format_blocks([("algorithm", dataclass_block(params))]), encoding="utf-8")

    run_body: dict[str, object] = {"app": app, "algo": algo, "seed": seed,
                                   "snapshot_policy": policy,
                                   "sample_every": sample_every}
    for key in sorted(run_settings or {}):
        run_body[key] = (run_settings or {})[key]
    (sum_dir / "sim.prm").write_text(
        format_blocks([("run", run_body), ("hardware", dataclass_block(hw))]),
        encoding="utf-8")

    record = ExperimentRecord(app=app, algo=algo, seed=seed, root=root,
                              run_dir=run_dir, sum_dir=sum_dir,
                              gene_names=tuple(gene_names), policy=policy,
                              sample_every=sample_every)
    with open(record.evaluations_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(EVAL_FIXED_COLUMNS) + list(record.gene_names))
    return record


def _improves(best: EvalResult | None, result: EvalResult, objective: str) -> bool:
    return best is None or (getattr(result.objectives, objective)
                            < getattr(best.objectives, objective))


def _row_cells(record: ExperimentRecord, result: EvalResult) -> list[str]:
    """The evaluations.csv cells after the timestamp, formatted once per
    distinct result of the run."""
    entry = record._cells.get(id(result))
    if entry is None or entry[0] is not result:
        obj = result.objectives
        cells = [_fmt(result.violation), _fmt(obj.energy), _fmt(obj.latency),
                 _fmt(obj.area), _fmt(obj.fidelity_penalty),
                 str(result.n_cores), str(result.mesh_shape[0]),
                 str(result.mesh_shape[1]), result.error or "",
                 *map(str, result.genome)]
        entry = record._cells[id(result)] = (result, cells)
    return entry[1]


def _channels(record: ExperimentRecord, result: EvalResult,
              idx: int) -> tuple[str, ...]:
    """Snapshot channels the policy flags this evaluation for; updates the
    running bests."""
    if not result.feasible:
        return ()
    energy_flag = _improves(record.best_energy, result, "energy")
    latency_flag = _improves(record.best_latency, result, "latency")
    if energy_flag:
        record.best_energy = result
    if latency_flag:
        record.best_latency = result
    if record.policy == "all":
        return ("Energy", "Latency")
    if record.policy == "sampled":
        return ("Energy", "Latency") if idx % record.sample_every == 0 else ()
    return tuple(name for name, flag in
                 (("Energy", energy_flag), ("Latency", latency_flag)) if flag)


def record_evaluation(record: ExperimentRecord, results, ctx=None) -> None:
    """Append the rows of a sequence of evaluations (one generation's),
    then materialize snapshots for the flagged ones, in evaluation order.
    evaluations.csv is opened once per call.

    Flagging by policy: 'bests' snapshots strict improvements of the
    running energy/latency best into the matching channel; 'all' puts
    every feasible evaluation in both channels; 'sampled' every
    sample_every-th feasible evaluation in both. Infeasible evaluations
    are logged but never snapshotted (there is nothing to simulate). A
    flagged evaluation's snapshot comes from re-simulating its genome
    under ctx.
    """
    if record.closed:
        raise AnalyticsError("record is closed")
    rows, flagged = [], []
    for result in results:
        idx = record.eval_index
        record.eval_index += 1
        now = max(time.time(), record.last_timestamp)
        record.last_timestamp = now
        rows.append([str(idx), str(record.generation), _fmt(now),
                     *_row_cells(record, result)])
        channels = _channels(record, result, idx)
        if channels:
            flagged.append((result, idx, now, channels))
    with open(record.evaluations_path, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)

    for result, idx, now, channels in flagged:
        if ctx is None:
            raise AnalyticsError("flagged evaluation needs an EvalContext")
        stamp = _stamp(datetime.fromtimestamp(now))
        settings = {"eval_index": idx, "generation": record.generation,
                    "genome": " ".join(str(g) for g in result.genome)}
        # a copy avoids snapshotting and writing the same charge log again
        first = record.run_dir / channels[0] / f"{stamp}_{idx}"
        write_run_files(simulate_genome(result.genome, ctx), first,
                        settings=settings)
        for channel in channels[1:]:
            shutil.copytree(first, record.run_dir / channel / first.name)


def record_generation(record: ExperimentRecord, generation: int) -> None:
    """Append the running bests to energyOpt.csv / latOpt.csv."""
    if record.closed:
        raise AnalyticsError("record is closed")
    record.generation = generation + 1
    header = ["generation", "energy", "latency"] + list(record.gene_names)
    mode = "a" if record._opt_headers_written else "w"
    for path, best in ((record.energy_opt_path, record.best_energy),
                       (record.latency_opt_path, record.best_latency)):
        with open(path, mode, encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            if mode == "w":
                w.writerow(header)
            if best is None:
                w.writerow([str(generation), "inf", "inf"]
                           + [""] * len(record.gene_names))
            else:
                w.writerow([str(generation), _fmt(best.objectives.energy),
                            _fmt(best.objectives.latency)]
                           + [str(g) for g in best.genome])
    record._opt_headers_written = True


def attach(record: ExperimentRecord, ctx):
    """on_generation callback wiring a search loop to this record."""
    def on_generation(gen, results, _best_or_archive):
        record_evaluation(record, results, ctx=ctx)
        record_generation(record, gen)
    return on_generation


def finalize_run(record: ExperimentRecord) -> None:
    """Emit reports, append the master index row, close the record."""
    if record.closed:
        raise AnalyticsError("record is closed")
    if record.best_energy is not None:
        report_run(record.run_dir)
    index_path = record.root / "index.csv"
    new = not index_path.exists()
    with open(index_path, "a", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(["run_id", "app", "algo", "seed", "path",
                        "n_evaluations", "best_energy", "best_latency"])
        w.writerow([record.run_dir.name, record.app, record.algo,
                    str(record.seed), str(record.run_dir),
                    str(record.eval_index),
                    _fmt(record.best_energy.objectives.energy)
                    if record.best_energy else "inf",
                    _fmt(record.best_latency.objectives.latency)
                    if record.best_latency else "inf"])
    record.closed = True


# --- report generation (pure functions of evaluations.csv) ---

def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, r)) for r in reader]


def read_evaluations(run_dir) -> tuple[list[str], list[dict[str, str]]]:
    path = Path(run_dir) / "evaluations.csv"
    if not path.exists():
        raise AnalyticsError(f"no evaluations.csv under {run_dir}")
    return _read_csv(path)


def _sum_dir_of(run_dir: Path) -> Path:
    cands = sorted(p for p in run_dir.iterdir()
                   if p.is_dir() and "_sum_" in p.name)
    if not cands:
        raise AnalyticsError(f"no summary directory under {run_dir}")
    return cands[0]


def _aggregate(rows, key_of, out_path: Path, key_name: str,
               label_of=str) -> None:
    groups: dict = {}
    for r in rows:
        groups.setdefault(key_of(r), []).append(r)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([key_name, "count", "min_energy", "mean_energy",
                    "min_latency", "mean_latency"])
        for key in sorted(groups):
            g = groups[key]
            es = [float(r["energy"]) for r in g]
            ls = [float(r["latency"]) for r in g]
            # left folds: Python 3.12's sum() compensates, which moves means
            w.writerow([label_of(key), str(len(g)), _fmt(min(es)),
                        _fmt(reduce(add, es, 0.0) / len(es)), _fmt(min(ls)),
                        _fmt(reduce(add, ls, 0.0) / len(ls))])


def relative_energy_table(rows, group_key: str) -> list[tuple[str, float, float]]:
    """(key, min energy, energy relative to the worst group) per group.

    Normalization is to the worst (largest) group minimum, so the table
    starts at 1.0 and a single point is exactly 1.0.
    """
    groups: dict[str, list[float]] = {}
    for r in rows:
        if group_key not in r:
            raise AnalyticsError(f"unknown group key {group_key!r}")
        groups.setdefault(r[group_key], []).append(float(r["energy"]))
    if not groups:
        raise AnalyticsError("no feasible evaluations to report")
    mins = {k: min(v) for k, v in groups.items()}
    worst = max(mins.values())
    def sort_key(k):
        try:
            return (0, float(k))
        except ValueError:
            return (1, k)
    return [(k, mins[k], mins[k] / worst if worst > 0 else 1.0)
            for k in sorted(mins, key=sort_key)]


def report_run(run_dir, group_key: str = "n_cores") -> dict[str, Path]:
    """Recompute every report file from the raw evaluation rows.

    Idempotent: running twice on the same directory rewrites identical
    bytes. Only feasible evaluations (violation == 0) enter reports.
    """
    run_dir = Path(run_dir)
    _, rows = read_evaluations(run_dir)
    feasible = [r for r in rows if float(r["violation"]) == 0.0]
    if not feasible:
        raise AnalyticsError("no feasible evaluations to report")
    sum_dir = _sum_dir_of(run_dir)

    out: dict[str, Path] = {}
    out["plot_cores"] = sum_dir / "plot_cores"
    _aggregate(feasible, lambda r: int(r["n_cores"]), out["plot_cores"],
               "n_cores")
    out["plot_interconnect"] = sum_dir / "plot_interconnect"
    _aggregate(feasible, lambda r: (int(r["mesh_rows"]), int(r["mesh_cols"])),
               out["plot_interconnect"], "mesh",
               label_of=lambda k: f"{k[0]}x{k[1]}")

    out["plot_relative_energy"] = sum_dir / "plot_relative_energy"
    table = relative_energy_table(feasible, group_key)
    with open(out["plot_relative_energy"], "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow([group_key, "energy", "relative_energy"])
        for key, energy, rel in table:
            w.writerow([key, _fmt(energy), _fmt(rel)])

    out["pareto"] = sum_dir / "pareto.csv"
    gene_cols = [c for c in rows[0] if c not in EVAL_FIXED_COLUMNS]
    # each distinct row once: repeated genomes would only grow the matrix
    keys = list(dict.fromkeys((float(r["energy"]), float(r["latency"]),
                               tuple(r[c] for c in gene_cols)) for r in feasible))
    beaten = dominance([0.0] * len(keys), [k[:2] for k in keys]).any(axis=0)
    front = sorted((k for k, b in zip(keys, beaten) if not b), key=lambda k: k[:2])
    with open(out["pareto"], "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["energy", "latency"] + gene_cols)
        for (e, l, genes) in front:
            w.writerow([_fmt(e), _fmt(l), *genes])
    return out


def sweep_report(records: dict[str, Path], out_path) -> None:
    """Cross-run comparison: one row per labeled run, energy relative to
    the worst run (the Fig-8 style pre/post table)."""
    rows = []
    for label, run_dir in records.items():
        _, evals = read_evaluations(run_dir)
        feas = [float(r["energy"]) for r in evals
                if float(r["violation"]) == 0.0]
        if not feas:
            raise AnalyticsError(f"run {label!r} has no feasible evaluations")
        rows.append((label, min(feas)))
    worst = max(e for (_, e) in rows)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "min_energy", "relative_energy"])
        for (label, e) in rows:
            w.writerow([label, _fmt(e), _fmt(e / worst if worst > 0 else 1.0)])
