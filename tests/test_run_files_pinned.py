"""sha256 pins of the files a search run writes.

One small fixed-seed run per search loop, on a two-layer toy whose memory
cap and core bound make some genomes overflow a core and some fail to
split, while the search repeats others. The pins hold the bytes of
evaluations.csv (timestamp column removed), the running-best files and
the report files, so any change to how a row or a report is formatted
fails here, across commits; the worker-count tests compare two runs of
one commit only. The three runs together also pin the master index
(run ids and paths removed) and a sweep table across them.
"""

import csv
import hashlib
from dataclasses import replace

import pytest

from neuromap.analytics import (
    EVAL_FIXED_COLUMNS,
    attach,
    finalize_run,
    open_run,
    sweep_report,
)
from neuromap.optimize import RUNNERS, AlgoParams, EvalContext, GenomeSpace
from neuromap.simcost import HardwareConfig
from neuromap.workload import Layer, NetworkModel, synth_trace

HW = HardwareConfig(npes_per_core=2, mem_per_core=1700, e_npe_op=1.0,
                    e_ctrl_event=2.0, e_hop_per_flit=0.5, e_inject=1.0,
                    p_static_core=3.0, t_npe_op=1.0, t_hop=1.0, t_inject=1.0)
SUMMARY_FILES = ("energyOpt.csv", "latOpt.csv", "pareto.csv", "plot_cores",
                 "plot_interconnect", "plot_relative_energy")

PINNED = {
    "ga": {
        "evaluations.csv":
            "dc0daed390d6c34a036edc1e4d9dc759e56e63594950669c5d19099f7d98a5de",
        "energyOpt.csv":
            "3edf50133456edbb09e5eeecfbb4bb36261f43cf8d272aed37b87e645ae9616a",
        "latOpt.csv":
            "b647884d271b19fc01626d6b37e5696d3247506375f9d8d783343f791274b9aa",
        "pareto.csv":
            "f6536049021152e1a9da03505eb1c559c8dd200d803a5e4f5805abeaacf22353",
        "plot_cores":
            "aea6bf539b667d5a420015ae6cad5d6c779a124fdeb7c81392457f230b28e785",
        "plot_interconnect":
            "e9c717c747c6bce296e31519a5a89ccef1656978a618a67999e58ee4ec43485b",
        "plot_relative_energy":
            "0bf27d50a1e9e0678c04ab82db515f8e79c5ec4f1d0b8481f311493c3063e66a",
    },
    "nsga2": {
        "evaluations.csv":
            "a046f3ff79a7578b565cd92fc8673f2fb1b872fd0f53e2b5afe51346e6d4305c",
        "energyOpt.csv":
            "3edf50133456edbb09e5eeecfbb4bb36261f43cf8d272aed37b87e645ae9616a",
        "latOpt.csv":
            "4334e89a67b579b7e3a7d31699da834922bfac713af8ef929d348f29eda331b5",
        "pareto.csv":
            "d3a89c1409726014fe5c60479392e4e5c8aa1370fe626c460551c98f39152a63",
        "plot_cores":
            "0855bd8700e407e85d0d7140ae01459285aeb6ba9ec88a7b922615d5327a436f",
        "plot_interconnect":
            "f2239aaa032b2af7df4a366c371b0ee7437c92895d000dbf83f0dba97eb0ad33",
        "plot_relative_energy":
            "ac09ba943d41c06d87f8c6c43429f5f5bed01ba6c42f75f9e75efecf8b2c6d89",
    },
    "pso": {
        "evaluations.csv":
            "2482bd65951a0e2bd84bc708700dc307f26613baac10f188912156405c26f885",
        "energyOpt.csv":
            "3edf50133456edbb09e5eeecfbb4bb36261f43cf8d272aed37b87e645ae9616a",
        "latOpt.csv":
            "b8b86a06aef6f96de6fe0d4b183cd8ab9a4bd5d2692edffa36cef7cfd439a2d2",
        "pareto.csv":
            "b78259a7437a1236be5cc46cf05c603ab38f57a54d8b63d01c66b0649bb5455c",
        "plot_cores":
            "c7ed9e8626a88f143a46a67beb7e44c16e2abba5224cce0857ba1ea366053d55",
        "plot_interconnect":
            "313ba5e837e90acc68de1cd79ce08933d61023335da02bfb5e86b53d110fd82d",
        "plot_relative_energy":
            "1c6ac60cb488e5cb710eec640ad1f9fee5a57062b490654a896a2d630e723995",
    },
}

# the index of the three runs above, and their sweep table (every run
# reaches the same least energy, so each ratio is 1.0)
INDEX_PIN = "b92569346da8002c04cb8cfed839a6eb88de65f041faf87459c6046a9a1b095d"
SWEEP_PIN = "9f32adca61b63fc9c6f9091302a34cf2bcb52aad434394e54a461136c605e2e0"


def toy_ctx(algo: str) -> EvalContext:
    model = NetworkModel(name="toy", edges=((0, 1),), layers=(
        Layer(id=0, kind="conv", channels=4, height=2, width=3, weights=0,
              biases=0, is_snn=True, avg_event_rate=0.8),
        Layer(id=1, kind="dense", channels=1, height=1, width=5, weights=120,
              biases=5, is_snn=True, avg_event_rate=0.5)))
    ctx = EvalContext(model=model, trace=synth_trace(model, n_frames=2, fps=0, seed=3),
                      base_hw=HW, space=GenomeSpace(n_layers=2, c_max=6))
    if algo == "nsga2":
        # a third objective, so fidelity_penalty cells vary too
        ctx = replace(ctx, objective_names=("energy", "latency", "fidelity_penalty"),
                      reference=(1.0, 3.0, 2.0, 5.0))
    return ctx


def _without_timestamps(data: bytes) -> bytes:
    col = EVAL_FIXED_COLUMNS.index("timestamp")
    return b"\r\n".join(b",".join(cells[:col] + cells[col + 1:]) for cells in
                        (line.split(b",") for line in data.split(b"\r\n")))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("algo", sorted(PINNED))
def test_run_files_are_pinned(tmp_path, algo):
    ctx = toy_ctx(algo)
    params = AlgoParams(algo=algo, population=8, generations=4, offspring=8)
    record = open_run(tmp_path, "toy", algo, seed=1, params=params, hw=HW,
                      gene_names=ctx.space.gene_names())
    RUNNERS[algo](ctx, params, seed=1, on_generation=attach(record, ctx))
    finalize_run(record)

    evaluations = record.evaluations_path.read_bytes()
    with open(record.evaluations_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    genes = [tuple(r[g] for g in ctx.space.gene_names()) for r in rows]
    infeasible = [r for r in rows if float(r["violation"]) > 0]
    # the run holds repeats, failed splits and memory overflows
    assert len(set(genes)) < len(genes)
    assert any(r["error"] for r in infeasible)
    assert any(not r["error"] for r in infeasible)

    got = {"evaluations.csv": _sha(_without_timestamps(evaluations))}
    for name in SUMMARY_FILES:
        got[name] = _sha((record.sum_dir / name).read_bytes())
    assert got == PINNED[algo]


def _without_cells(data: bytes, columns) -> bytes:
    return b"\r\n".join(b",".join(b"" if i in columns else cell
                                   for i, cell in enumerate(line.split(b",")))
                        for line in data.split(b"\r\n"))


@pytest.fixture(scope="module")
def three_runs(tmp_path_factory):
    """The three pinned runs, in one root, by algorithm."""
    root = tmp_path_factory.mktemp("runs")
    records = {}
    for algo in sorted(PINNED):
        ctx = toy_ctx(algo)
        params = AlgoParams(algo=algo, population=8, generations=4, offspring=8)
        record = open_run(root, "toy", algo, seed=1, params=params, hw=HW,
                          gene_names=ctx.space.gene_names())
        RUNNERS[algo](ctx, params, seed=1, on_generation=attach(record, ctx))
        finalize_run(record)
        records[algo] = record
    return root, records


def test_index_is_pinned(three_runs):
    root, _ = three_runs
    # run_id and path hold the stamp and the temporary root
    data = _without_cells((root / "index.csv").read_bytes(), {0, 4})
    assert _sha(data) == INDEX_PIN


def test_sweep_table_is_pinned(three_runs):
    root, records = three_runs
    out = root / "sweep.csv"
    sweep_report({algo: r.run_dir for algo, r in records.items()}, out)
    assert _sha(out.read_bytes()) == SWEEP_PIN
