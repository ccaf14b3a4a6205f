"""Experiment bookkeeping: run directories, evaluation logs, reports.

Directory layout per optimization run:

    <root>/<app>_app/<ALGO>_<seed>_<stamp>/
        evaluations.csv                  one row per evaluation, appended
                                         once per generation
        Energy/<stamp>_<idx>/            simulator snapshots for flagged evals
        Latency/<stamp>_<idx>/
        <ALGO>_sum_<stamp>/
            algo.prm  sim.prm            parameter echoes, written first
            energyOpt.csv  latOpt.csv    running best, one row per generation
            plot_cores  plot_interconnect  pareto.csv  plot_relative_energy

plus a master index at <root>/index.csv. open_run writes the headers of
evaluations.csv and the two Opt CSVs, and the search only appends rows,
so a run stopped before its first generation leaves header-only files.
Timestamps appear only in directory names and evaluations.csv; the Opt
CSVs and every report file carry none, so identical (seed, config) runs
produce byte-identical optimization traces. Every CSV here goes through
_write_rows, so each has the csv module's CRLF line ends; the snapshot
directories' files come from simcost.write_run_files, with LF ends.
"""

from __future__ import annotations

import csv
import os
import shutil
import time
from dataclasses import dataclass
from datetime import datetime
from functools import reduce
from operator import add, call, itemgetter
from pathlib import Path

from .configio import convert, dataclass_block, format_blocks
from .optimize import OBJECTIVE_NAMES, AlgoParams, EvalResult, dominance, simulate_genome
from .simcost import HardwareConfig, write_run_files

SNAPSHOT_POLICIES = ("all", "bests", "sampled")

# evaluations.csv's fixed columns and their cell types; gene columns follow, as ints
_EVAL_COLUMNS = (("eval_index", int), ("generation", int), ("timestamp", float),
                 ("violation", float), *((name, float) for name in OBJECTIVE_NAMES),
                 ("n_cores", int), ("mesh_rows", int), ("mesh_cols", int), ("error", str))
EVAL_FIXED_COLUMNS = tuple(name for name, _ in _EVAL_COLUMNS)


class AnalyticsError(ValueError):
    pass


def _stamp(when: datetime | None = None) -> str:
    """Fig-5 style timestamp with ':' swapped for '-' (portable paths)."""
    when = when or datetime.now()
    return when.strftime("%Y_%m_%d_%H-%M-%S")


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(path: Path, rows, header=None, mode: str = "w") -> None:
    """The one CSV writer: header (if given), then rows."""
    with open(path, mode, encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        w.writerows(rows)


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
             gene_names=(), policy: str = "bests",
             sample_every: int = 10) -> ExperimentRecord:
    """Create the run directory tree, write the parameter echoes and the
    headers of evaluations.csv, energyOpt.csv and latOpt.csv. The app label
    names a directory under root, so it may hold no path separator."""
    if set(app) & {"/", os.sep, os.altsep}:
        raise AnalyticsError(f"app label {app!r} holds a path separator")
    if policy not in SNAPSHOT_POLICIES:
        raise AnalyticsError(f"snapshot policy must be one of {SNAPSHOT_POLICIES}")
    if sample_every < 1:
        raise AnalyticsError("sample_every must be >= 1")
    root = Path(root)
    stamp = _stamp()
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
    _write_rows(record.evaluations_path, (), EVAL_FIXED_COLUMNS + record.gene_names)
    for path in (record.energy_opt_path, record.latency_opt_path):
        _write_rows(path, (), ("generation", "energy", "latency", *record.gene_names))
    return record


def _improves(best: EvalResult | None, result: EvalResult, objective: str) -> bool:
    return best is None or (getattr(result.objectives, objective)
                            < getattr(best.objectives, objective))


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


def record_evaluation(record: ExperimentRecord, results, ctx) -> None:
    """Append the rows of a sequence of evaluations (one generation's),
    then materialize snapshots for the flagged ones, in evaluation order.
    evaluations.csv is opened once per call.

    Flagging by policy: 'bests' snapshots strict improvements of the
    running energy/latency best into the matching channel; 'all' puts
    every feasible evaluation in both channels; 'sampled' every
    sample_every-th feasible evaluation in both. Infeasible evaluations
    are logged but never snapshotted (there is nothing to simulate). A
    flagged evaluation's snapshot comes from re-simulating its genome
    under ctx; AnalyticsError, before its directory is written, unless
    that gives the evaluation's own energy and latency.
    """
    if record.closed:
        raise AnalyticsError("record is closed")
    rows, flagged = [], []
    formats = [_fmt if kind is float else str for _, kind in _EVAL_COLUMNS]
    formats += [str] * len(record.gene_names)
    for result in results:
        idx = record.eval_index
        record.eval_index += 1
        now = max(time.time(), record.last_timestamp)
        record.last_timestamp = now
        values = (idx, record.generation, now, result.violation,
                  *result.objectives.as_tuple(OBJECTIVE_NAMES), result.n_cores,
                  *result.mesh_shape, result.error or "", *result.genome)
        rows.append([fmt(v) for fmt, v in zip(formats, values, strict=True)])
        channels = _channels(record, result, idx)
        if channels:
            flagged.append((result, idx, now, channels))
    _write_rows(record.evaluations_path, rows, mode="a")

    for result, idx, now, channels in flagged:
        stamp = _stamp(datetime.fromtimestamp(now))
        settings = {"eval_index": idx, "generation": record.generation,
                    "genome": " ".join(str(g) for g in result.genome)}
        # a copy avoids snapshotting and writing the same charge log again
        first = record.run_dir / channels[0] / f"{stamp}_{idx}"
        report = simulate_genome(result.genome, ctx)
        got = (report.total_energy, report.latency_end_to_end)
        want = (result.objectives.energy, result.objectives.latency)
        if got != want:
            raise AnalyticsError(f"evaluation {idx} re-simulates to (energy, latency) "
                                 f"{got!r}, not {want!r}")
        write_run_files(report, first, settings=settings)
        for channel in channels[1:]:
            shutil.copytree(first, record.run_dir / channel / first.name)


def record_generation(record: ExperimentRecord, generation: int) -> None:
    """Append the running bests to energyOpt.csv / latOpt.csv."""
    if record.closed:
        raise AnalyticsError("record is closed")
    record.generation = generation + 1
    for path, best in ((record.energy_opt_path, record.best_energy),
                       (record.latency_opt_path, record.best_latency)):
        cells = ([_fmt(best.objectives.energy), _fmt(best.objectives.latency),
                  *map(str, best.genome)] if best else
                 ["inf", "inf"] + [""] * len(record.gene_names))
        _write_rows(path, [[str(generation), *cells]], mode="a")


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
    row = [record.run_dir.name, record.app, record.algo, str(record.seed),
           str(record.run_dir), str(record.eval_index),
           _fmt(record.best_energy.objectives.energy) if record.best_energy else "inf",
           _fmt(record.best_latency.objectives.latency) if record.best_latency else "inf"]
    _write_rows(index_path, [row], None if index_path.exists() else (
        "run_id", "app", "algo", "seed", "path", "n_evaluations", "best_energy",
        "best_latency"), mode="a")
    record.closed = True


# --- report generation (pure functions of evaluations.csv) ---

def read_evaluations(run_dir) -> tuple[list[str], list[dict[str, object]]]:
    """Header and rows of evaluations.csv, each cell read as its column's
    type; AnalyticsError names the line and column of a cell that is not."""
    path = Path(run_dir) / "evaluations.csv"
    if not path.exists():
        raise AnalyticsError(f"no evaluations.csv under {run_dir}")
    known = dict(_EVAL_COLUMNS)
    typed = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if missing := [c for c in EVAL_FIXED_COLUMNS if c not in header]:
            raise AnalyticsError(f"{path}: header lacks column {missing[0]!r}"
                                 if header else f"{path}: empty file")
        columns = [(c, known.get(c, int)) for c in header]
        kinds = [kind for _, kind in columns]
        # each row is converted as it is read, so the text rows are never all held
        for r in reader:
            if len(r) != len(header):
                raise AnalyticsError(f"{path}:{reader.line_num}: expected {len(header)} "
                                     f"fields, got {len(r)}")
            try:
                typed.append(dict(zip(header, map(call, kinds, r))))
            except ValueError:
                # convert is slower, so it only words the error
                for (name, kind), text in zip(columns, r):
                    convert(text, kind, f"{path}:{reader.line_num}", name, AnalyticsError)
                raise
    return header, typed


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
    out = []
    for key in sorted(groups):
        g = groups[key]
        es = [r["energy"] for r in g]
        ls = [r["latency"] for r in g]
        # left folds: Python 3.12's sum() compensates, which moves means
        out.append([label_of(key), str(len(g)), _fmt(min(es)),
                    _fmt(reduce(add, es, 0.0) / len(es)), _fmt(min(ls)),
                    _fmt(reduce(add, ls, 0.0) / len(ls))])
    _write_rows(out_path, out, [key_name, "count", "min_energy", "mean_energy",
                                "min_latency", "mean_latency"])


def _relative(mins: dict) -> list[tuple]:
    """(key, min, min relative to the largest min) per key, in mins' order."""
    worst = max(mins.values())
    return [(k, m, m / worst if worst > 0 else 1.0) for k, m in mins.items()]


def relative_energy_table(rows, group_key: str) -> list[tuple[str, float, float]]:
    """(key, min energy, energy relative to the worst group) per group.

    Normalization is to the worst (largest) group minimum, so the table
    starts at 1.0 and a single point is exactly 1.0.
    """
    groups: dict[str, list[float]] = {}
    for r in rows:
        if group_key not in r:
            raise AnalyticsError(f"unknown group key {group_key!r}")
        groups.setdefault(r[group_key], []).append(r["energy"])
    if not groups:
        raise AnalyticsError("no feasible evaluations to report")
    return _relative({k: min(groups[k]) for k in sorted(groups)})


def report_run(run_dir, group_key: str = "n_cores") -> dict[str, Path]:
    """Recompute every report file from the raw evaluation rows.

    Idempotent: running twice on the same directory rewrites identical
    bytes. Only feasible evaluations (violation == 0) enter reports.
    """
    run_dir = Path(run_dir)
    _, rows = read_evaluations(run_dir)
    feasible = [r for r in rows if r["violation"] == 0.0]
    if not feasible:
        raise AnalyticsError("no feasible evaluations to report")
    sum_dir = _sum_dir_of(run_dir)

    out: dict[str, Path] = {}
    out["plot_cores"] = sum_dir / "plot_cores"
    _aggregate(feasible, itemgetter("n_cores"), out["plot_cores"], "n_cores")
    out["plot_interconnect"] = sum_dir / "plot_interconnect"
    _aggregate(feasible, itemgetter("mesh_rows", "mesh_cols"), out["plot_interconnect"],
               "mesh", label_of=lambda k: f"{k[0]}x{k[1]}")

    out["plot_relative_energy"] = sum_dir / "plot_relative_energy"
    _write_rows(out["plot_relative_energy"],
                [(key, _fmt(energy), _fmt(rel)) for key, energy, rel
                 in relative_energy_table(feasible, group_key)],
                (group_key, "energy", "relative_energy"))

    out["pareto"] = sum_dir / "pareto.csv"
    gene_cols = [c for c in rows[0] if c not in EVAL_FIXED_COLUMNS]
    # each distinct row once: repeated genomes would only grow the matrix
    keys = list(dict.fromkeys((r["energy"], r["latency"], tuple(r[c] for c in gene_cols))
                              for r in feasible))
    beaten = dominance([0.0] * len(keys), [k[:2] for k in keys]).any(axis=0)
    front = sorted((k for k, b in zip(keys, beaten) if not b), key=lambda k: k[:2])
    _write_rows(out["pareto"], [(_fmt(e), _fmt(l), *genes) for e, l, genes in front],
                ("energy", "latency", *gene_cols))
    return out


def sweep_report(records: dict[str, Path], out_path) -> None:
    """Cross-run comparison: one row per labeled run, energy relative to
    the worst run (the Fig-8 style pre/post table)."""
    mins = {}
    for label, run_dir in records.items():
        _, evals = read_evaluations(run_dir)
        feas = [r["energy"] for r in evals if r["violation"] == 0.0]
        if not feas:
            raise AnalyticsError(f"run {label!r} has no feasible evaluations")
        mins[label] = min(feas)
    _write_rows(out_path, [(label, _fmt(e), _fmt(rel)) for label, e, rel in _relative(mins)],
                ("run", "min_energy", "relative_energy"))
